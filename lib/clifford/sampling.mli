(** Input-state sampling for the characterization phase (Section 5.1 of the
    paper).

    Three families are supported:
    - [Basis]: computational basis states (the paper's cheap baseline in the
      Figure 15a ablation);
    - [Clifford]: states prepared by shallow random Clifford-style circuits
      (phase + entangling + Hadamard stages in the spirit of the
      Bravyi-Maslov Hadamard-free decomposition the paper cites) — more
      expressive because they carry superposition and entanglement;
    - [Haar]: Haar-random pure states (used for test inputs and ablations;
      prepared directly rather than by a circuit). *)

type kind = Basis | Clifford | Haar

(** [basis_index n ~index] is the computational-basis index of the
    [index]-th [Basis] input on [n] qubits: [index] modulo [2^n]. *)
val basis_index : int -> index:int -> int

(** [prep_circuit rng kind n ~index] builds the preparation circuit of the
    [index]-th sampled input on [n] qubits. [Basis] enumerates bitstrings in
    order; [Clifford] and [Haar] draw fresh random circuits. *)
val prep_circuit : Stats.Rng.t -> kind -> int -> index:int -> Circuit.t

(** [state rng kind n ~index] is the prepared input state. *)
val state : Stats.Rng.t -> kind -> int -> index:int -> Qstate.Statevec.t

(** [sample_set rng kind n ~count] prepares [count] inputs, returning each
    with its preparation circuit. *)
val sample_set :
  Stats.Rng.t -> kind -> int -> count:int -> (Circuit.t * Qstate.Statevec.t) list

(** [haar_state rng n] draws a Haar-random pure state directly (Gaussian
    amplitudes, normalized). *)
val haar_state : Stats.Rng.t -> int -> Qstate.Statevec.t

(** [random_mixture rng states] draws a random convex mixture of the given
    pure states — by construction a "case 1" input that lies in the span of
    its components (Theorem 2). *)
val random_mixture : Stats.Rng.t -> Qstate.Statevec.t list -> Linalg.Cmat.t
