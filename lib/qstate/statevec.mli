(** Mutable state vectors over [n] qubits with split real/imaginary storage.

    Gate applications mutate the vector in place (use {!copy} to snapshot).
    Qubit 0 is the least significant bit of a basis index. *)

type t = private { n : int; re : float array; im : float array }

(** [basis n k] is the computational basis state [|k>]. *)
val basis : int -> int -> t

(** [zero n] is [|0...0>]. *)
val zero : int -> t

(** [of_cvec n v] builds a state from a (normalized) amplitude vector of
    dimension [2^n]. *)
val of_cvec : int -> Linalg.Cvec.t -> t

val to_cvec : t -> Linalg.Cvec.t
val num_qubits : t -> int
val dim : t -> int
val copy : t -> t
val amplitude : t -> int -> Linalg.Cx.t
val set_amplitude : t -> int -> Linalg.Cx.t -> unit

(** [embed_index positions a] places bit [j] of the index [a] on qubit
    [positions.(j)]: the basis index, in a larger register, of input basis
    state [a]. *)
val embed_index : int array -> int -> int

(** [iter_env_bases n keep_mask f] calls [f base] for every [n]-qubit
    basis index [base] with no bit of [keep_mask] set, in ascending order:
    the environment bases of a reduction onto the [keep_mask] qubits. A
    full index is [base lor embed_index keep a] for kept sub-index [a]. *)
val iter_env_bases : int -> int -> (int -> unit) -> unit

(** [embed n positions input] lifts [input] into an [n]-qubit register,
    input qubit [j] on qubit [positions.(j)] ({!embed_index}), every other
    qubit [|0>]. *)
val embed : int -> int array -> t -> t

val norm : t -> float
val normalize : t -> unit

(** [inner a b] is the Hermitian inner product [<a|b>]. *)
val inner : t -> t -> Linalg.Cx.t

(** [fidelity_pure a b] is [|<a|b>|^2]. *)
val fidelity_pure : t -> t -> float

(** [kron a b] is the tensor product state; qubits of [b] occupy the low
    index bits. *)
val kron : t -> t -> t

(** Qubit count at and above which gate kernels ({!apply1},
    {!apply_controlled}, {!apply2}) fan their amplitude sweeps out over
    [Parallel.Pool.global ()]. Chunks write disjoint amplitude pairs and
    never reduce, so results are bit-identical for any domain count. Smaller
    states keep the synchronization-free sequential path. Exposed mainly so
    tests and benchmarks can force either path. *)
val parallel_threshold : int ref

(** [apply1 u q st] applies the 2 x 2 unitary [u] to qubit [q]. *)
val apply1 : Linalg.Cmat.t -> int -> t -> unit

(** [apply_controlled ~controls u q st] applies [u] to qubit [q] on the
    subspace where every control qubit is [|1>]. An empty control list is
    plain {!apply1}. *)
val apply_controlled : controls:int list -> Linalg.Cmat.t -> int -> t -> unit

(** [apply2 u q0 q1 st] applies a 4 x 4 unitary where [q0] is the least
    significant index bit of the pair. *)
val apply2 : Linalg.Cmat.t -> int -> int -> t -> unit

(** [prob1 st q] is the probability of reading 1 on qubit [q]. *)
val prob1 : t -> int -> float

(** [probs st] is the full measurement distribution over basis states. *)
val probs : t -> float array

(** [project st q outcome] collapses qubit [q] to [outcome] (renormalizing)
    and returns the probability of that branch. A zero-probability branch
    leaves the state unchanged and returns [0.]. *)
val project : t -> int -> int -> float

(** [measure rng st q] samples an outcome for qubit [q], collapses the state
    and returns the outcome. *)
val measure : Stats.Rng.t -> t -> int -> int

(** [sample rng st] draws one basis-state index from the Born distribution. *)
val sample : Stats.Rng.t -> t -> int

(** [counts ?pool rng st ~shots] samples [shots] indices and returns sorted
    [(index, count)] pairs. Draws are binary searches over the cumulative
    distribution — O(shots log d + d) total rather than O(shots d). With
    [?pool], shots are drawn in fixed-size blocks seeded by
    [Stats.Rng.split], so the result is independent of the pool's domain
    count (but differs from the sequential no-pool draw order). *)
val counts : ?pool:Parallel.Pool.t -> Stats.Rng.t -> t -> shots:int -> (int * int) list

(** [expectation_pauli p st] is [<st| P |st>]. *)
val expectation_pauli : Pauli.t -> t -> float

(** [reduced_density st keep] is the reduced density matrix over the [k]
    qubits in [keep] (bit [j] of the result index corresponds to
    [List.nth keep j]). The [2^k]-entry offset table of the kept qubits is
    built once; the [2^(n-k)] environment bases are then scanned in
    ascending order, each adding [psi_a conj(psi_b)] to every entry whose
    row amplitude [psi_a] is nonzero. Cost: at most [2^(n+k)] complex
    multiply-accumulates, each with one index or; nothing is allocated
    beyond the result and the table. *)
val reduced_density : t -> int list -> Linalg.Cmat.t

(** [density st] is the full density matrix [|st><st|]. *)
val density : t -> Linalg.Cmat.t

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
