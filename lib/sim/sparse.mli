(** Sparse statevector engine: sorted-coordinate (index, amplitude) runs
    with eager pruning of amplitudes whose squared magnitude is at most
    [1e-12]. Memory and time scale with the
    occupied support instead of [2^n], so low-occupancy programs
    (Bernstein-Vazirani, QRAM reads, lock circuits) simulate at 28+
    qubits where the dense engine cannot allocate; up to 62 qubits
    (indices are OCaml ints).

    One of the three cone backends of [Sim.Engine]: [`Auto] routing
    sends a circuit here only when [Analysis.Classify.support_bound]
    proves every tracepoint cone's support stays small. {!run} and
    {!equal} serve the automata-style equivalence baseline
    ([Baselines.Automa]). *)

type t

(** [basis n k] is the computational basis state [|k>] on [n] qubits
    (support 1). *)
val basis : int -> int -> t

(** Number of occupied (above-cutoff) basis states. *)
val support : t -> int

(** Largest {!support} reached since {!basis}, counting the state after
    every {!apply_gate}. *)
val peak_support : t -> int

(** Dense conversion (bounded by [Statevec]'s qubit cap). *)
val to_statevec : t -> Qstate.Statevec.t

(** [apply_gate g t] applies a gate in place: diagonal gates rotate
    phases without re-sorting, x/y/swap/general 1q gates pair occupied
    indices with their (possibly unoccupied) partners and re-sort. *)
val apply_gate : Circuit.Gate.t -> t -> unit

(** [run c ~input] pushes the basis state [|input>] through every gate
    of [c], skipping tracepoints and barriers; raises [Invalid_argument]
    on measurement, reset or feedback. *)
val run : Circuit.t -> input:int -> t

(** [equal ?eps a b] compares two states up to a global phase, entry by
    entry within [eps] (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

(** [reduced_density t keep] — the reduced density matrix on [keep]
    (bit [j] of the reduced index is [List.nth keep j], as in
    [Statevec.reduced_density]), via one outer product per contiguous
    environment group: [O(support^2)] worst case, independent of [n]. *)
val reduced_density : t -> int list -> Linalg.Cmat.t
