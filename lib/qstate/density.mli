(** Density matrices over [n] qubits with channel application (unitaries and
    Kraus maps). Operations are functional (each returns a new value); the
    per-qubit kernels avoid materializing full [2^n]-dimensional gate
    matrices. *)

type t = private { n : int; m : Linalg.Cmat.t }

(** [of_statevec st] is the pure-state density matrix [|st><st|]. *)
val of_statevec : Statevec.t -> t

(** [of_cmat n m] wraps a [2^n x 2^n] density matrix (validated for shape
    only; use {!is_valid} for physicality). *)
val of_cmat : int -> Linalg.Cmat.t -> t

(** [pure n v] is the projector onto the normalized amplitude vector [v]. *)
val pure : int -> Linalg.Cvec.t -> t

(** [basis n k] is [|k><k|]. *)
val basis : int -> int -> t

(** [maximally_mixed n] is [I / 2^n]. *)
val maximally_mixed : int -> t

(** [mix parts] forms the convex mixture [sum p_i rho_i]; probabilities are
    normalized first. *)
val mix : (float * t) list -> t

val num_qubits : t -> int
val mat : t -> Linalg.Cmat.t

(** [apply1 u q rho] applies a 2 x 2 unitary to qubit [q]. *)
val apply1 : Linalg.Cmat.t -> int -> t -> t

(** [apply_controlled ~controls u q rho] applies the controlled version. *)
val apply_controlled : controls:int list -> Linalg.Cmat.t -> int -> t -> t

(** [apply_kraus ks q rho] applies the channel [sum_k K rho K^dagger] given by
    2 x 2 Kraus operators acting on qubit [q]. *)
val apply_kraus : Linalg.Cmat.t list -> int -> t -> t

(** [measure_qubit rho q] returns both post-measurement branches
    [((p0, rho0), (p1, rho1))]; a zero-probability branch carries the
    maximally mixed placeholder. *)
val measure_qubit : t -> int -> (float * t) * (float * t)

(** [partial_trace ~keep rho] is the reduced state over the listed qubits. *)
val partial_trace : keep:int list -> t -> t

val trace : t -> float
val purity : t -> float
val prob1 : t -> int -> float
val probs : t -> float array
val expectation_pauli : Pauli.t -> t -> float

(** [fidelity a b] is the Uhlmann fidelity
    [(tr sqrt(sqrt a * b * sqrt a))^2], symmetric and equal to
    [<psi| b |psi>] when [a] is the pure state [psi]. *)
val fidelity : t -> t -> float

(** [is_valid ~eps rho] checks Hermiticity, unit trace and positive
    semi-definiteness within [eps]. *)
val is_valid : ?eps:float -> t -> bool

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
