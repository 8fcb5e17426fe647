(** Stabilizer (CHP) simulation of Clifford circuits in the
    Aaronson-Gottesman tableau representation: O(n) per gate, O(n^2) per
    measurement, regardless of entanglement.

    The Clifford group underpins MorphQPV's input sampling (Section 5.1);
    this simulator prepares and manipulates those states at polynomial cost
    and provides an exact cross-check for the dense engines. *)

type t

(** [make n] is the stabilizer state [|0...0>]. *)
val make : int -> t

val num_qubits : t -> int
val copy : t -> t

(* In-place Clifford generators *)
val h : t -> int -> unit
val s : t -> int -> unit
val sdg : t -> int -> unit
val x : t -> int -> unit
val y : t -> int -> unit
val z : t -> int -> unit
val cx : t -> int -> int -> unit
val cz : t -> int -> int -> unit
val swap : t -> int -> int -> unit

(** [apply_gate g t] dispatches a circuit gate; raises [Invalid_argument] on
    non-Clifford gates (parameterized rotations etc.). *)
val apply_gate : Circuit.Gate.t -> t -> unit

(** [run c] executes a measurement-free Clifford circuit from [|0...0>]. *)
val run : Circuit.t -> t

(** [measure rng t q] measures qubit [q] in the Z basis, collapsing the
    tableau, and returns the outcome. *)
val measure : Stats.Rng.t -> t -> int -> int

(** [expectation_z t q] is [<Z_q>] without collapsing: +1, -1 or 0
    (0 when the outcome is random). *)
val expectation_z : t -> int -> int

(** [expectation_pauli t ~x ~z] is the expectation of the Hermitian Pauli
    whose letter on qubit [q] is X when bit [q] of [x] is set, Z when bit
    [q] of [z] is set, Y when both: +1, -1, or 0 (0 when M anticommutes
    with some stabilizer). Does not collapse the state. At most 62
    qubits (bitmask-bound). *)
val expectation_pauli : t -> x:int -> z:int -> int

(** [reduced_density t keep] is the exact reduced density matrix on
    [keep] (bit [j] of the result index is [List.nth keep j]):
    [2^-k sum_P <P> P] over the [4^k] Pauli strings on the kept qubits
    ({!Qstate.Pauli.density_of_expectations}), never the [2^n] density.
    Stabilizer reduced densities are dyadic rationals, so the result equals
    {!density} followed by a partial trace exactly. *)
val reduced_density : t -> int list -> Linalg.Cmat.t

(** [stabilizer_strings t] renders the [n] stabilizer generators as
    [(sign, pauli-string)] pairs, e.g. [("+", "XXX")] (for inspection and
    tests; highest qubit leftmost). *)
val stabilizer_strings : t -> (string * string) list

(** [density t] materializes the density matrix
    [prod_i (I + G_i) / 2^n] — exponential; intended for tests on few
    qubits. *)
val density : t -> Linalg.Cmat.t

(** [random rng n ~gates] applies a random [{H, S, CX}] word of the given
    length (default [2 n^2 + 12]) — an approximately uniform stabilizer
    state. *)
val random : ?gates:int -> Stats.Rng.t -> int -> t
