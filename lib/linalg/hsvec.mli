(** Isometric vectorization of Hermitian matrices.

    An [n] x [n] Hermitian matrix is encoded as a real vector of length [n^2]
    (the diagonal, then sqrt(2)-scaled real and imaginary parts of the strict
    upper triangle). The encoding preserves the Hilbert-Schmidt inner product:
    [dot (encode a) (encode b) = Re (Cmat.hs_inner a b)], which lets the
    isomorphism-based approximation solve its decomposition as an ordinary
    real least-squares problem. *)

(** [dim n] is the real dimension [n * n] of the encoding of [n] x [n]
    Hermitian matrices. *)
val dim : int -> int

(** [encode a] vectorizes the Hermitian part of [a]. *)
val encode : Cmat.t -> float array

(** [encode_into ~herm a ~dst] writes [encode a] into [dst] without
    allocating, using [herm] (the size of [a]) for the Hermitian part. *)
val encode_into : herm:Cmat.t -> Cmat.t -> dst:float array -> unit

(** [decode n v] reconstructs the [n] x [n] Hermitian matrix encoded in [v]. *)
val decode : int -> float array -> Cmat.t
