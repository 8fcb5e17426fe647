(** Dense complex matrices in row-major order with split real/imaginary
    storage. All binary operations raise [Invalid_argument] on dimension
    mismatch. *)

type t = private { rows : int; cols : int; re : float array; im : float array }

(** [create r c] is the [r] x [c] zero matrix. *)
val create : int -> int -> t

(** [init r c f] builds a matrix whose [(i, j)] entry is [f i j]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [identity n] is the [n] x [n] identity matrix. *)
val identity : int -> t

(** [of_lists rows] builds a matrix from a list of equal-length rows. *)
val of_lists : Cx.t list list -> t

(** [diag v] is the square matrix with [v] on its diagonal. *)
val diag : Cvec.t -> t

val dims : t -> int * int

(** [num_qubits m] is [floor (log2 rows)]: the qubit count of a
    [2^n]-row operator or density matrix. *)
val num_qubits : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t
val map : (Cx.t -> Cx.t) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

(** [scale c a] multiplies every entry by the complex scalar [c]. *)
val scale : Cx.t -> t -> t

(** [rscale c a] multiplies every entry by the real scalar [c]. *)
val rscale : float -> t -> t

(** [mul a b] is the matrix product [a * b]. *)
val mul : t -> t -> t

(** [mul_into ~dst a b] writes the product [a * b] into the preallocated
    matrix [dst] (overwriting it) without allocating. The kernel is
    cache-blocked (i-k-j loop order with the [j] loop tiled) and skips
    entries of [a] that are exactly zero; for each output entry the
    accumulation order over [k] is ascending regardless of tiling, so the
    result is reproducible bit-for-bit across tile sizes. [dst] must not
    alias [a] or [b]. Raises [Invalid_argument] on dimension mismatch or
    aliasing. *)
val mul_into : dst:t -> t -> t -> unit

(** [mul3 a b c] is [a * b * c]. *)
val mul3 : t -> t -> t -> t

val transpose : t -> t
val conj : t -> t

(** [adjoint a] is the conjugate transpose of [a]. *)
val adjoint : t -> t

(** [adjoint_into ~dst a] writes [adjoint a] into [dst] without
    allocating; [dst] must not alias [a]. *)
val adjoint_into : dst:t -> t -> unit

(** [trace a] sums the diagonal of a square matrix. *)
val trace : t -> Cx.t

(** [frob_norm a] is the Frobenius (L2) norm of [a]. *)
val frob_norm : t -> float

(** [hs_inner a b] is the Hilbert-Schmidt inner product [tr (adjoint a * b)]. *)
val hs_inner : t -> t -> Cx.t

(** [kron a b] is the Kronecker (tensor) product of [a] and [b]. *)
val kron : t -> t -> t

(** [outer u v] is the rank-one matrix [u * adjoint v]. *)
val outer : Cvec.t -> Cvec.t -> t

(** [apply a v] is the matrix-vector product [a * v]. *)
val apply : t -> Cvec.t -> Cvec.t

(** [col a j] extracts column [j] as a vector. *)
val col : t -> int -> Cvec.t

(** [row a i] extracts row [i] as a vector. *)
val row : t -> int -> Cvec.t

(** [set_col a j v] overwrites column [j] with [v]. *)
val set_col : t -> int -> Cvec.t -> unit

(** [equal ~eps a b] holds when all entries agree within [eps]. *)
val equal : ?eps:float -> t -> t -> bool

(** [is_hermitian ~eps a] tests [a = adjoint a] entrywise within [eps]. *)
val is_hermitian : ?eps:float -> t -> bool

(** [is_unitary ~eps a] tests [adjoint a * a = I] within [eps]. *)
val is_unitary : ?eps:float -> t -> bool

(** [hermitize a] is [(a + adjoint a) / 2], the Hermitian part of [a]. *)
val hermitize : t -> t

(** [hermitize_into ~dst a] writes [hermitize a] into [dst], bit for bit,
    without allocating; [dst] must not alias [a]. *)
val hermitize_into : dst:t -> t -> unit

val pp : Format.formatter -> t -> unit
