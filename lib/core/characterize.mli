(** Input sampling (Section 5.1): run the program under a set of sampled
    inputs and record the state at every tracepoint.

    Tracepoint states can be taken exactly from the simulator ([Exact]), or
    passed through simulated state tomography with finite shots
    ([Tomography]) as on real hardware, or reduced to the diagonal only
    ([Probs_only] — the paper's Strategy-prop). The cost meter accounts the
    quantum executions the chosen mode would need on a device. *)

type mode =
  | Exact
  | Tomography of { shots : int; project : bool }
  | Probs_only of { shots : int }

type sample = {
  input_state : Qstate.Statevec.t;
  input_dm : Linalg.Cmat.t;
  traces : (int * Linalg.Cmat.t) list;  (** includes the reserved input id 0 *)
}

type t = {
  program : Program.t;
  samples : sample array;
  mode : mode;
  cost : Sim.Cost.t;
}

(** Execution engine selection. [`Batched] compiles the program once into
    fused segment operators ([Transpile.Segments]) and runs all sampled
    inputs — and, for stochastic programs, all their trajectories — as
    columns of one packed [Sim.Batch] buffer; it requires ideal noise.
    [`Sequential] re-walks the circuit per sample with [Engine]. [`Auto]
    (the default) picks batched exactly when the noise model is ideal —
    except that [Basis]-kind sampling (no explicit [inputs]) of an ideal
    program asks {!Sim.Engine.auto_route}, and when it names a route,
    runs each sample through {!Sim.Engine.cone_traces} on that route: the
    stabilizer tableau, sparse coordinates or stabilizer rank, one
    lightcone-restricted run per tracepoint. The routing condition is
    purely static (program text only, never sampled values); programs
    outside it take exactly the pre-routing code path and generator
    streams. A pure batched run may combine its inputs from the basis
    states instead (see {b Linearity} under {!run}). *)
type engine = [ `Auto | `Batched | `Sequential ]

(** [run ?pool ?rng ?kind ?mode ?noise ?trajectories ?engine ?inputs program
    ~count] samples [count] inputs of the given [kind] (default
    [Clifford]); an explicit [inputs] list overrides kind/count (used by
    Strategy-adapt). Sampled inputs are characterized in parallel on [pool]
    (default [Parallel.Pool.global ()]), each with its own
    [Stats.Rng.split] child generator and private cost meter; meters are
    merged in sample order, so results and cost totals are identical for
    any domain count — under either engine, which also consume identical
    generator streams (the batched engine's traces agree with the
    sequential ones to ~1e-15, the reordering error of fused-segment
    arithmetic). [budget] selects the shot policy for the Tomography /
    Probs_only degradation modes (see {!Tomography.State_tomo.run}):
    absent or [`Fixed], behavior and generator streams are exactly the
    pre-budget ones; [`Sequential] stops each estimate early once it is
    variance-matched to the [max_shots] fixed equivalent, recording the
    saving in [verify_shots_saved_total].

    [cache] memoizes the characterization through {!Cache.memo}. Ideal,
    deterministic programs whose every cone unit is at most 22 qubits
    wide are characterized one backward cone at a time (this wins over
    [engine]): each tracepoint's unit (its cone plus the input qubits, in
    canonical qubit order — {!Cache.Canon.cone_unit}) is keyed by
    canonical bytes, input fingerprint, entry-generator fingerprint and
    mode, so a warm re-verification performs zero simulation and zero
    tomography shots, and an edited program re-characterizes only
    tracepoints whose cone hash changed. Every cached value is a pure
    function of its key — tomography degradation draws from a generator
    derived from (key, sample index), never the caller's stream — so hits
    are bit-indistinguishable from recomputation, across eviction and
    persistence reload. The caller's generator is consumed exactly as on
    the uncached path (sampled inputs + one split child per sample) even
    on full hits, so downstream draws are position-independent of cache
    state. Other programs run the uncached engine decision: routed runs
    stay unmemoized, batched and sequential ones are memoized whole,
    keyed by the exact circuit bytes. Without [cache] the behavior is
    byte-for-byte the pre-cache one.

    [wall] replaces {!Sim.Engine.dense_amp_wall} in this run's routing
    decision.

    {b Repeated inputs.} A run is {e pure} when the noise is ideal and
    {!Sim.Engine.is_deterministic} holds: a sample's exact traces are then
    a function of its input's bits alone. A pure run groups its inputs by
    exact bits (first-occurrence order) and simulates each distinct input
    once, on whichever engine was decided — one [Engine.run] per cone
    unit, one {!Sim.Engine.cone_traces} per routed preparation, one packed
    {!Sim.Batch} column, or one [Program.run_traces] — and every sample
    reads the traces of its input. Basis sampling repeats every [2^k]
    samples, so a count above [2^k] repeats inputs. Impure runs (noise,
    measurement, reset, feedback) simulate every sample on its own
    generator, as before. Per sample, whatever the run: its
    [Stats.Rng.split] child (derived in the same order), its
    [Tomography] / [Probs_only] degradation drawn from that child, and
    its private cost meter, merged in sample order — the meter models a
    device, which runs every sample. So every result, generator stream
    and cost total is bit-identical to simulating each sample alone;
    only counters of simulation work ([sim_engine_routed_total],
    [gate_applied_total], [batch_gemm_macs_total], ...) count distinct
    simulations. Samples with equal inputs share their exact trace
    matrices (and input density) physically: trace matrices are
    immutable, and nothing downstream writes into them.

    {b Linearity.} A pure program is linear in its input (Theorem 1), so
    at every tracepoint the embedded input [sum_a psi_a |a>] is in state
    [sum_a psi_a phi_a], [phi_a] being embedded basis state [a]'s state
    there. A batched run (either engine) takes the {e span} path when it
    is pure, has more distinct inputs [m] than the [2^k] basis states of
    its [k] input qubits, the [2^k x 2^n] basis states fit
    {!Sim.Batch.amplitude_budget}, and one column's block MACs
    ({!Sim.Batch.column_macs}) exceed the [T * 2^k] MACs per amplitude
    that combining costs at [T] tracepoints. It then simulates only the
    [2^k] basis states ({!Sim.Batch.iter_tracepoints}) and forms each
    distinct input's state as [sum_a psi_a phi_a] before the reduction
    [Engine.step] applies, one input per pool task, so results stay
    bit-identical for any domain count. Per sample, everything above
    stands; the traces agree with the direct batched path to ~1e-15,
    and [batch_gemm_macs_total] and [fused_block_applied_total] count
    [2^k] columns. No option selects it, and no other run takes it.

    With observability on, the [characterize.run] span's end event
    carries [path] ([units], [routed], [batched], [span] or
    [sequential]) and [columns], the states the run simulated ([2^k] on
    the span path, [0] on a full cache hit). *)
val run :
  ?pool:Parallel.Pool.t ->
  ?rng:Stats.Rng.t ->
  ?kind:Clifford.Sampling.kind ->
  ?mode:mode ->
  ?budget:Stats.Tests.budget ->
  ?noise:Sim.Noise.t ->
  ?trajectories:int ->
  ?engine:engine ->
  ?inputs:Qstate.Statevec.t list ->
  ?cache:Cache.t ->
  ?wall:float ->
  Program.t ->
  count:int ->
  t

(** [tracepoint_ids t] lists the recorded tracepoint ids (including 0). *)
val tracepoint_ids : t -> int list
