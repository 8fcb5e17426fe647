(** Trajectory-based state-vector execution of circuits.

    One [run] is a single quantum trajectory: mid-circuit measurements are
    sampled and collapse the state, classically-controlled gates read the
    sampled bits, and (optional) depolarizing noise is injected as random
    Pauli errors. Tracepoints snapshot the reduced density matrix of their
    qubits as the trajectory passes. *)

type outcome = {
  state : Qstate.Statevec.t;  (** final state of the trajectory *)
  clbits : int array;  (** final classical register *)
  traces : (int * Linalg.Cmat.t) list;
      (** tracepoint id -> reduced density matrix, in program order *)
}

(** [step ~rng ~noise st clbits traces instr] executes one instruction of
    one trajectory on [st] — the single definition of the dense
    instruction semantics, which {!run} folds over a circuit and
    [Sim.Batch] runs its fences through. A gate is applied (counted in
    [gate_applied_total]) and, under a non-ideal [noise], followed by a
    sampled Pauli error per qubit; a measurement collapses [st], draws
    its readout flip and writes [clbits]; a reset measures and flips back
    to [|0>]; an [if] applies its gate when the read bits equal its value;
    a barrier does nothing. A tracepoint returns [traces] with its reduced
    density matrix consed on (newest first); every other instruction
    returns [traces] unchanged. *)
val step :
  rng:Stats.Rng.t ->
  noise:Noise.t ->
  Qstate.Statevec.t ->
  int array ->
  (int * Linalg.Cmat.t) list ->
  Circuit.Instr.t ->
  (int * Linalg.Cmat.t) list

(** [run ?rng ?noise ?initial c] executes one trajectory. [initial]
    defaults to [|0...0>]. *)
val run :
  ?rng:Stats.Rng.t ->
  ?noise:Noise.t ->
  ?initial:Qstate.Statevec.t ->
  Circuit.t ->
  outcome

(** [is_deterministic c] holds when the circuit has no measurement, reset or
    feedback, so a single ideal trajectory already yields exact tracepoint
    states. *)
val is_deterministic : Circuit.t -> bool

(** The three lightcone-restricted engines past the dense wall: the
    stabilizer tableau, the sparse coordinate engine ({!Sparse}) and the
    sum-over-stabilizers engine ({!Rank}). *)
type route = [ `Stabilizer | `Sparse | `Rank ]

(** [applicable route c] — every tracepoint state of [c] is computable on
    [route] from a computational-basis start: no measurement, reset or
    feedback, every gate admitted by the backend, and every tracepoint
    cone within its caps. [`Stabilizer]: Clifford gates
    ({!Analysis.Classify}), cones of at most 12 qubits. [`Sparse]:
    single-target gates and uncontrolled swaps, each cone's static
    [Analysis.Classify.support_bound] at most [2^16], tracepoints at most
    8 qubits. [`Rank]: rank-decomposable gates
    ({!Analysis.Classify.gate_rank_decomposable}), at most 8 non-Clifford
    gates and 62 qubits per cone, tracepoints at most 4 qubits. Purely
    static. *)
val applicable : route -> Circuit.t -> bool

(** [cone_traces ?prep route c] computes every tracepoint's reduced
    density matrix on [route], one lightcone-restricted run per
    tracepoint over only its cone qubits, so the cost is independent of
    the full register width. [prep] (default 0) prepares the
    computational-basis state with bit [q] of [prep] on qubit [q]. Runs
    under the span [engine.<route>_traces] and, with observability on,
    adds one [sim_engine_routed_total] and a per-cone work count
    ([stabilizer_routed_total], [sparse_amps_peak_total] or
    [rank_branches_total]). Precondition: {!applicable}. *)
val cone_traces :
  ?prep:int ->
  route ->
  Circuit.t ->
  (int * Linalg.Cmat.t) list

(** The dense-amplitude wall: [`Auto] considers the sparse and
    stabilizer-rank routes only when one dense pass would exceed this
    many amplitude updates ([2^22]). Callers that need another wall pass
    [?wall]. *)
val dense_amp_wall : float

(** [auto_route ?wall c] is the static routing decision for an ideal
    program started from [|0...0>]: [`Stabilizer] whenever applicable,
    and above [wall] (default {!dense_amp_wall}) [`Sparse] when its
    support-bound cost model beats dense by 4x, else [`Rank] when its
    frame-count cost model beats dense; [None] means the dense engines.
    The wall test runs before any sparse or rank analysis. *)
val auto_route : ?wall:float -> Circuit.t -> route option

(** [sim_class c] is the estimated simulation class for diagnostics (lint
    MQ018): the routing preference order, ignoring the dense wall and
    the cost models — ["stabilizer"], ["sparse"],
    ["stabilizer-rank 2^k"] with [k] the largest per-cone non-Clifford
    count, or ["dense"]. *)
val sim_class : Circuit.t -> string

(** [average_traces trajectories per_traj] averages per-trajectory
    tracepoint lists: ids in first-seen order, sums in trajectory order,
    one final [1/trajectories] rescale. *)
val average_traces :
  int -> (int * Linalg.Cmat.t) list array -> (int * Linalg.Cmat.t) list

(** [default_rng ()] is the generator every entry point here, and
    [Sim.Batch], starts from when the caller passes none: a fresh one
    per call from one fixed seed, never a shared mutable generator. *)
val default_rng : unit -> Stats.Rng.t

(** [split_children rng count] derives the [count] child generators of a
    trajectory fan-out from [rng], in index order — the one derivation
    every trajectory average uses, so the dense and batched paths draw
    identical streams. *)
val split_children : Stats.Rng.t -> int -> Stats.Rng.t array

(** Trajectories averaged for a stochastic program when the caller does
    not say: 64. *)
val default_trajectories : int

(** [tracepoint_states ?pool ?rng ?noise ?trajectories ?initial c]
    returns the expected reduced density matrix at every tracepoint.
    Ideal programs starting from [|0...0>] take {!auto_route}'s route
    through {!cone_traces}; other deterministic ideal circuits use one
    state-vector pass; everything else averages [trajectories] (default
    {!default_trajectories}) runs fanned out over [pool] (default
    [Parallel.Pool.global ()]) with the {!split_children} of [rng] and an
    in-order merge — results are bit-identical for any domain count
    under a fixed seed. *)
val tracepoint_states :
  ?pool:Parallel.Pool.t ->
  ?rng:Stats.Rng.t ->
  ?noise:Noise.t ->
  ?trajectories:int ->
  ?initial:Qstate.Statevec.t ->
  Circuit.t ->
  (int * Linalg.Cmat.t) list

(** [sample_counts ?pool ?rng ?noise ?initial ?meter ~shots c] samples the
    final computational-basis distribution. Measurement-free ideal circuits
    run once and draw shots from the cumulative distribution; otherwise each
    shot is a fresh trajectory run on the pool with its own split child
    generator (domain-count independent, like {!tracepoint_states}).
    [meter] accounts one execution of [shots] shots on the first path and
    one single-shot execution per shot on the second, each shot into a
    private meter merged in shot order. Returns sorted
    [(basis_index, count)] pairs over the full register. *)
val sample_counts :
  ?pool:Parallel.Pool.t ->
  ?rng:Stats.Rng.t ->
  ?noise:Noise.t ->
  ?initial:Qstate.Statevec.t ->
  ?meter:Cost.t ->
  shots:int ->
  Circuit.t ->
  (int * int) list

(** [unitary ?pool c] materializes the circuit unitary column by column
    (columns are fanned out over the pool for dimension >= 256; fails on
    non-unitary instructions). *)
val unitary : ?pool:Parallel.Pool.t -> Circuit.t -> Linalg.Cmat.t
