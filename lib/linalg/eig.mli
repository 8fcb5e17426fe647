(** Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
    method, plus spectral-function helpers used throughout the quantum
    substrate. *)

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

(** [project_psd ?unit_trace a] projects a Hermitian matrix onto the positive
    semi-definite cone by clipping negative eigenvalues. When [unit_trace] is
    true (default) the result is renormalized to trace one, which makes it a
    valid density matrix. *)
val project_psd : ?unit_trace:bool -> Cmat.t -> Cmat.t
