(** Sum-over-stabilizers (stabilizer-rank) engine for near-Clifford
    circuits: the state is a weighted sum of Pauli frames over one
    shared stabilizer tableau,
    [|psi> = sum_i c_i X^{x_i} Z^{z_i} |phi>].

    Clifford gates cost a tableau update plus a bitwise conjugation of
    every frame; each rank-decomposable non-Clifford gate
    ([Analysis.Classify.gate_rank_decomposable]) splits as
    [alpha I + beta Q] and at most doubles the frame list, so [k] such
    gates cost at most [2^k] frames. All expectations are exact — no
    sampling, no truncation beyond merging identical frames and
    pruning coefficients below [1e-12] in magnitude. At most 62 qubits
    (frames are int bitmasks). *)

type t

(** [make n input] is basis state [|input>] on [n] qubits (one frame). *)
val make : int -> int -> t

val num_qubits : t -> int

(** Current number of weighted Pauli frames. *)
val branch_count : t -> int

(** [apply_gate g t] applies a Clifford or rank-decomposable gate in
    place; raises [Invalid_argument] on any other gate or when the
    merged frame list exceeds 4096 frames (2^12 splits). *)
val apply_gate : Circuit.Gate.t -> t -> unit

(** [reduced_density t keep] — exact reduced density matrix on [keep]
    (bit [j] of the reduced index is [List.nth keep j]) via the Pauli
    expansion: [4^|keep|] stabilizer expectations, each a
    [branch_count^2] sum of memoized tableau lookups. *)
val reduced_density : t -> int list -> Linalg.Cmat.t
