(** Dense real matrices and linear solvers (LU with partial pivoting,
    Cholesky, ridge-regularized least squares). *)

type t = private { rows : int; cols : int; a : float array }

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_lists : float list list -> t
val dims : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val transpose : t -> t

(** [apply a x] is the matrix-vector product. *)
val apply : t -> float array -> float array

(** [solve a b] solves the square system [a x = b] by LU decomposition with
    partial pivoting. Raises [Failure] when [a] is singular. *)
val solve : t -> float array -> float array

(** [cholesky a] returns the lower-triangular factor [l] with [a = l * l^T] of
    a symmetric positive-definite matrix. Raises [Failure] when [a] is not
    positive definite. *)
val cholesky : t -> t

(** [lstsq ?ridge a b] returns the minimizer of [||a x - b||^2 + ridge ||x||^2]
    via the (regularized) normal equations. [ridge] defaults to [1e-10], which
    keeps the normal equations well-posed for rank-deficient sampling sets. *)
val lstsq : ?ridge:float -> t -> float array -> float array

(** The normal equations of one least-squares problem, factorized once for
    repeated right-hand sides (the hot path of the isomorphism-based
    approximation). *)
type lstsq

(** [lstsq_factor ?ridge a] forms [a^T a + ridge I] and its Cholesky
    factor; when that fails, {!lstsq_solve_into} falls back to LU. *)
val lstsq_factor : ?ridge:float -> t -> lstsq

(** [lstsq_solve_into f b ~dst] writes [lstsq ?ridge a b] into [dst]. It
    allocates nothing unless the factorization failed. *)
val lstsq_solve_into : lstsq -> float array -> dst:float array -> unit

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
