(** Batched execution of segment-compiled circuits.

    A {!plan} — normally produced by [Transpile.Segments.compile] — is a
    circuit whose purely-unitary segments have been fused into block
    operators, interleaved with the fences (tracepoints, measurements,
    resets, classical feedback) that delimited them. {!run} cuts N input
    state vectors into column tiles of [min 16 (ceil (N / domains))]
    columns. Each pool task owns one private tile — a row-major buffer
    (row [i] = amplitude [i] of the tile's columns, contiguous), a gather
    workspace and per-column scratch vectors, allocated once per task —
    and runs the whole plan over every tile it is given with
    allocation-free kernels: a gather kernel for k-qubit blocks that takes
    the offset table and the nonzero pattern of [u] once per run, and a
    row-sweeping kernel for single controlled gates. Fences run per column
    through [Engine.step], the gate-by-gate engine's own instruction
    semantics, with ideal noise and the column's generator. Tiles are
    private, so no two domains ever write into one buffer, and a narrow
    batch still uses every domain.

    The input columns are built inside the pool tasks, so [init] (of
    {!run_traces}) may run on worker domains and must be pure.

    {b Determinism.} Every kernel processes each column independently with
    a fixed k-ascending accumulation order that depends neither on the
    number of columns packed together nor on which pool worker handles the
    column, and stochastic fences draw only from that column's own
    generator. A packed {!run} is therefore bit-identical, per column, to
    running each column alone through {!run_seq} — for any batch size,
    tile width and domain count. The work counters
    ([fused_block_applied_total], [direct_gate_applied_total],
    [batch_gemm_macs_total]) are computed from the plan and the column
    count, so they do not depend on the tiling either. Agreement with the
    gate-by-gate [Engine.run] is exact in structure (clbits, trace ids) and
    ~1e-15 in amplitudes: fusing a segment into one operator reorders its
    floating-point arithmetic. A plan with no [Block] agrees with
    [Engine.run] exactly (under [=]).

    {b Memory.} All live tiles together hold at most ~2^21 amplitudes per
    component, whatever the sample count: wide registers get narrower
    tiles and then fewer tasks. *)

(** A fused segment operator: [u] is the [2^k x 2^k] unitary of the
    segment restricted to [qubits] (sorted ascending; local index bit [j]
    corresponds to global qubit [qubits.(j)]). *)
type block = { qubits : int array; u : Linalg.Cmat.t }

type item =
  | Block of block  (** apply a fused segment operator *)
  | Direct of Circuit.Gate.t
      (** apply one gate via the row-sweeping kernel (used when a gate's
          support is too wide to fuse profitably, e.g. a many-control
          Toffoli) *)
  | Fence of Circuit.Instr.t
      (** a non-unitary instruction, run per column through
          [Engine.step]; never [Instr.Gate] (rejected with
          [Invalid_argument]), and [Barrier] is a no-op *)

(** A compiled execution plan. [source_ops] records how many unitary gate
    applications the source circuit performed per run; compare with
    {!ops} for the fusion ratio. The representation is deliberately fully
    exposed so tests can build (deliberately broken) plans by hand. *)
type plan = {
  num_qubits : int;
  num_clbits : int;
  items : item list;
  source_ops : int;
}

(** [ops plan] is the number of operator applications ({!Block} plus
    {!Direct}) one column performs — the batched counterpart of the
    source circuit's gate count. *)
val ops : plan -> int

(** [is_deterministic plan] holds when the plan has no measurement, reset
    or feedback fence (mirrors [Engine.is_deterministic]). *)
val is_deterministic : plan -> bool

(** [column_macs plan] is the complex multiply-accumulates one column
    spends in the plan's fused blocks: per {!Block}, one per nonzero of
    [u] per group of [2^k] rows. A run of [count] columns adds
    [count * column_macs plan] to [batch_gemm_macs_total]. *)
val column_macs : plan -> int

(** [amplitude_budget] ([2^21]) bounds the amplitudes per component that
    a run's live tiles hold together. *)
val amplitude_budget : int

(** [run ?pool ?rngs plan states] executes the plan once per input state,
    all packed into one batch, and returns per-column outcomes in input
    order. [rngs], when given, must hold one generator per column (used
    for that column's measurements/resets); when absent each column gets a
    fresh default generator, like [Engine.run]. Column tiles are fanned
    out over [pool] (default [Parallel.Pool.global ()]); results are
    bit-identical for any domain count. *)
val run :
  ?pool:Parallel.Pool.t ->
  ?rngs:Stats.Rng.t array ->
  plan ->
  Qstate.Statevec.t array ->
  Engine.outcome array

(** [run_traces ?pool ?rngs plan ~count ~init] is {!run} with the input
    column [i] produced on demand by [init i] and only the tracepoint
    snapshots kept — final states are never materialized, so memory stays
    bounded for large [count]. [init] runs inside the pool tasks, possibly
    on worker domains, so it must be pure. *)
val run_traces :
  ?pool:Parallel.Pool.t ->
  ?rngs:Stats.Rng.t array ->
  plan ->
  count:int ->
  init:(int -> Qstate.Statevec.t) ->
  (int * Linalg.Cmat.t) list array

(** [run_seq ?rng plan st] executes one column alone — the reference
    "sequential path" that batched runs are tested bit-identical
    against. *)
val run_seq : ?rng:Stats.Rng.t -> plan -> Qstate.Statevec.t -> Engine.outcome

(** [iter_tracepoints ?pool plan ~count ~init f] runs the columns
    [init 0 .. init (count - 1)] through a deterministic plan one segment
    at a time: the items before each tracepoint run as one packed {!run}
    of every column, then [f id qubits states] sees every column's state
    at that tracepoint ([states.(i)] for column [i]), in plan order.
    [states] are fresh vectors the caller may keep; the next segment
    starts from them. Items after the last tracepoint are not run. Each
    column is bit-identical to {!run_seq} up to the tracepoint, for any
    domain count, and the work counters count [count] columns of every
    segment run. [init] must be pure, as for {!run_traces}. Raises
    [Invalid_argument] on a plan that measures, resets or feeds back. *)
val iter_tracepoints :
  ?pool:Parallel.Pool.t ->
  plan ->
  count:int ->
  init:(int -> Qstate.Statevec.t) ->
  (int -> int list -> Qstate.Statevec.t array -> unit) ->
  unit
