(** Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
    method, plus spectral-function helpers used throughout the quantum
    substrate.

    Each computation is defined once, as a kernel that writes into a
    caller-owned {!workspace} and a destination matrix, allocating only the
    stdlib sort's closures and one boxed norm. The allocating functions
    wrap those kernels with a fresh workspace, so both forms give
    bit-identical results. A workspace holds the state of one computation
    at a time: share it between domains and the results are garbage. *)

(** Buffers for eigensolves and spectral functions of [n] x [n] matrices. *)
type workspace

(** [workspace n] allocates the buffers for dimension [n]. *)
val workspace : int -> workspace

(** [hermitian a] returns [(w, v)] where [w] holds the eigenvalues of the
    Hermitian matrix [a] in ascending order and the columns of [v] are the
    corresponding orthonormal eigenvectors, so that [a = v * diag w * adjoint v].
    The matrix is symmetrized first; a non-square input raises
    [Invalid_argument]. *)
val hermitian : Cmat.t -> float array * Cmat.t

(** [funm f a] applies the real function [f] to the spectrum of the Hermitian
    matrix [a]: [funm f a = v * diag (f w) * adjoint v]. *)
val funm : (float -> float) -> Cmat.t -> Cmat.t

(** [sqrtm_psd a] is the principal square root of a positive semi-definite
    Hermitian matrix. Slightly negative eigenvalues (numerical noise) are
    clamped to zero. *)
val sqrtm_psd : Cmat.t -> Cmat.t

(** [project_psd a] projects a Hermitian matrix onto the positive
    semi-definite cone by clipping negative eigenvalues, then renormalizes
    the result to trace one, which makes it a valid density matrix. A fully
    clipped spectrum (trace [<= 1e-14]) gives the maximally mixed state. *)
val project_psd : Cmat.t -> Cmat.t

(** [project_psd_into ws a ~dst] writes [project_psd a] into [dst], which
    must not be a buffer of [ws], and returns [true] when the spectrum
    was fully clipped, so [dst] is the maximally mixed fallback. *)
val project_psd_into : workspace -> Cmat.t -> dst:Cmat.t -> bool
