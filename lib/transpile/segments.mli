(** Segment compiler: split a circuit at its fences and fuse each
    purely-unitary segment into block operators for [Sim.Batch].

    Fences are the non-unitary instructions — tracepoints, measurements,
    resets and classical feedback — plus barriers: no fusion crosses them,
    so every snapshot and every classically-dependent branch sees exactly
    the state the gate-by-gate engine would produce. Barriers fence fusion
    but emit nothing into the plan.

    Fusion policy (the qubit-cutoff heuristic):
    - a segment whose whole support spans at most [cutoff] qubits is a
      candidate for a single [2^k x 2^k] block operator over that support
      (applying it costs one fused operator per run instead of one per
      gate);
    - a wider segment is greedily packed left to right: consecutive gates
      are merged while their running union support stays within
      [block_cutoff] qubits (at [block_cutoff = 1], each program-order run
      of 1q gates on one qubit; a gate on another qubit ends the run);
    - a single gate whose own support exceeds [block_cutoff] (e.g. a
      many-control Toffoli) stays a [Direct] item — a sparse row sweep
      beats materializing a huge, mostly-identity block;
    - every candidate block is kept only if its dense (zero-skipping)
      application — [nnz(u)/2^k] multiply-accumulates per amplitude — is
      at least as cheap as replaying its gates through the direct
      kernels ([2/2^controls] per amplitude each). Long narrow segments
      fuse (the characterization hot path); short dense ones (e.g. two
      random gates that barely share a support) stay [Direct].

    Block unitaries are built once per compile by running the segment's
    gates column by column ([Sim.Engine.unitary]), so a plan pays the
    circuit walk once and every subsequent batch column reuses it. *)

(** [compile ?cutoff ?block_cutoff c] compiles [c] into a
    batched execution plan. [plan.source_ops] records the circuit's own
    unitary gate count; [Sim.Batch.ops] on the result counts the fused
    operators actually applied per run. Raises [Invalid_argument] if a
    cutoff is [< 1].

    Segments whose direct replay cost is provably below any block's
    ([< 1.0] multiply-accumulates per amplitude, e.g. a lone CX) are
    emitted [Direct] without materializing the candidate block at all —
    same plan as before, cheaper compile. *)
val compile :
  ?cutoff:int ->
  ?block_cutoff:int ->
  Circuit.t ->
  Sim.Batch.plan

(** [compile_cert] is {!compile} — same plan bit-for-bit ([compile] is
    [fst] of it) — additionally returning the translation-validation
    {!Certify.step} relating the circuit to the plan: each [Block] is a
    [Local_equiv] group over the instructions it fused, [Direct] gates and
    [Fence] instructions are mapped untouched, and dropped barriers carry
    [Barrier_elim] obligations. [cache] memoizes the plan together with
    its certificate ([plan-cert-v1]), keyed by the exact circuit bytes
    (barriers fence fusion, so no canonicalization) and the cutoffs. *)
val compile_cert :
  ?cutoff:int ->
  ?block_cutoff:int ->
  ?cache:Cache.t ->
  Circuit.t ->
  Sim.Batch.plan * Certify.step
