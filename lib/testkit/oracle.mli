(** Differential oracles: run the same circuit through two independent
    implementations and demand agreement. Each oracle returns [true] on
    agreement so it can sit directly inside a QCheck property; on
    disagreement the QCheck shrinker (see {!Gen.shrink_circ}) minimizes the
    circuit before reporting.

    Oracle matrix (engine pair x circuit class):
    - {!statevec_vs_dm} — pure circuits: final state and tracepoint states.
    - {!statevec_vs_tableau} — Clifford circuits: full density matrix and
      per-qubit stabilizer [<Z>] expectations.
    - {!statevec_vs_sparse} — pure circuits from any basis input.
    - {!route_vs_statevec} — each lightcone-restricted cone backend
      against the dense engine, where the backend applies.
    - {!qasm_roundtrip} — any program: [parse (to_string c)] is [c].
    - {!transpile_preserves} — pure circuits: each peephole pass keeps the
      unitary (up to global phase). *)

val eps : float
(** Agreement threshold, [1e-9]. *)

(** [traces_match ?eps a b] — same tracepoint ids in the same order, with
    reduced density matrices within [eps] in Frobenius norm. *)
val traces_match :
  ?eps:float -> (int * Linalg.Cmat.t) list -> (int * Linalg.Cmat.t) list -> bool

(** [statevec_vs_dm c] — trajectory statevec vs exact density matrix on a
    measurement-free circuit: final-state fidelity [>= 1 - eps] and
    tracepoint agreement. *)
val statevec_vs_dm : Gen.circ -> bool

(** [statevec_vs_tableau c] — statevec vs CHP tableau on a Clifford
    circuit: exact density matrices within [eps] and [<Z_q>] agreement for
    every qubit. *)
val statevec_vs_tableau : Gen.circ -> bool

(** [statevec_vs_sparse ?input c] — dense vs sparse state vector from basis
    state [input] (default 0), compared up to global phase. *)
val statevec_vs_sparse : ?input:int -> Gen.circ -> bool

(** [qasm_roundtrip c] — [parse (to_string c)] reproduces the circuit
    structurally (gate names canonicalized, params within [eps] to absorb
    the printer's [%.12g]). *)
val qasm_roundtrip : Gen.circ -> bool

(** [transpile_preserves pass c] — the pass keeps the circuit unitary up to
    global phase ([Transpile.Equiv.unitaries_equal]). *)
val transpile_preserves : (Circuit.t -> Circuit.t) -> Gen.circ -> bool

(** All peephole passes by name — [transpile_preserves] is property-tested
    against each. *)
val all_passes : (string * (Circuit.t -> Circuit.t)) list

(** [certified_pass_sound c] — every certificate-emitting pass variant
    (the peephole passes, the optimize fixpoint, lightcone pruning,
    segment compilation with and without Clifford-direct routing, and the
    full [Morphcore.Verify.certify_transpile] pipeline) produces a
    certificate the independent checker accepts on the generated circuit.
    Runs on every circuit class, including near-Clifford and feedback
    programs. *)
val certified_pass_sound : Gen.circ -> bool

(** [certified_mutants_rejected c] — every applicable {!Mutate} mutant of
    the generated circuit is rejected by the checker. *)
val certified_mutants_rejected : Gen.circ -> bool

(** [batch_vs_engine c] — segment-compile the circuit and run it once
    through [Sim.Batch.run_seq] against [Sim.Engine.run] with identically
    seeded generators: classical bits must agree exactly, state and
    tracepoint snapshots within {!eps} (fused segments reorder the
    floating-point arithmetic by ~1e-15). *)
val batch_vs_engine : Gen.circ -> bool

(** [batch_vs_engine_packed c] — same oracle with [cutoff = 2] and
    [block_cutoff = 2], forcing the greedy-packing and [Direct]-gate
    compile paths that wide default cutoffs rarely exercise. *)
val batch_vs_engine_packed : Gen.circ -> bool

(** [batch_bit_identical ?pool c] — the batched path's determinism
    contract: packing 23 dense pseudorandom columns into one
    [Sim.Batch.run] is bit-for-bit identical, per column, to running each
    column alone through [Sim.Batch.run_seq] with the same per-column
    generator (classical bits, final amplitudes and trace matrices compared
    with [=], no tolerance). *)
val batch_bit_identical : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [batch_fences_exact c] — a hand-built plan that fuses nothing (every
    gate a [Direct] item, every other instruction a [Fence]) run through
    [Sim.Batch.run_seq] equals [Sim.Engine.run] under identically seeded
    generators: classical bits, tracepoint snapshots and the final state,
    compared with [=] (exact, but blind to the sign of a zero). *)
val batch_fences_exact : Circuit.t -> bool

(** [batch_fence_respected c] — {!batch_vs_engine} but with a
    deliberately broken segmentation that moves every tracepoint fence
    past the operator that follows it; holds only when the misplaced
    fences happen to be unobservable. The shrinker smoke test relies on
    it failing on any circuit whose traced state changes across that
    operator. *)
val batch_fence_respected : Gen.circ -> bool

(** [prune_preserves_traces c] — {!Transpile.Passes.prune_lightcone} keeps
    every tracepoint's reduced state within {!eps} on a pure circuit (the
    oracle is exact only there: pruned resets would shift the measurement
    generator stream of a single stochastic trajectory). *)
val prune_preserves_traces : Gen.circ -> bool

(** [prune_idempotent c] — pruning an already-pruned circuit removes
    nothing further. *)
val prune_idempotent : Gen.circ -> bool

(** [lightcone_restrict_matches c] — for every tracepoint of a pure
    circuit, simulating {!Analysis.Lightcone.restrict}'s cone subcircuit
    from [|0...0>] reproduces the tracepoint's reduced state within
    {!eps}. *)
val lightcone_restrict_matches : Gen.circ -> bool

(** [route_vs_statevec route c] — on circuits where
    [Sim.Engine.applicable route] holds, the lightcone-restricted
    {!Sim.Engine.cone_traces} on [route] agree with the state-vector
    engine within {!eps}; vacuously true otherwise. *)
val route_vs_statevec : Sim.Engine.route -> Gen.circ -> bool

(** [characterize_auto_unchanged ?pool ?kind c] — the pinned regression for
    stabilizer auto-routing: on any program where the routing does not fire
    (any [kind] other than [Basis], or a non-applicable circuit),
    [Characterize.run ~engine:`Auto] is bit-for-bit the [`Batched] path it
    was before the routing existed. *)
val characterize_auto_unchanged :
  ?pool:Parallel.Pool.t -> ?kind:Clifford.Sampling.kind -> Gen.circ -> bool

(** [characterize_stabilizer_route ?pool c] — on applicable circuits,
    [Basis]-kind characterization under [`Auto] (stabilizer-routed) matches
    [`Sequential]: identical cost meters, traces within {!eps}; vacuously
    true otherwise. *)
val characterize_stabilizer_route : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [characterize_scale_route ?pool c] — with the dense-amplitude wall
    forced to zero via [Characterize.run ~wall:0.] so the scalable routes
    fire on small circuits: whenever [auto_route ~wall:0.] picks
    [`Sparse] or [`Rank], [Basis]-kind characterization under [`Auto]
    matches [`Sequential] (identical cost meters, traces within {!eps});
    vacuously true otherwise. *)
val characterize_scale_route : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [cache_transparent ?pool ?dir c] — content-addressed caching is
    invisible: cold, warm and eviction-thrashed (512-byte budget) cached
    characterizations agree bit-for-bit, the cached path agrees with the
    uncached one within {!eps}, and — when [dir] names a cache
    directory — so does a persistence reload ([Cache.drop_memory], then
    re-read from disk). Every run leaves the caller's generator with the
    fingerprint the uncached run left it with. *)
val cache_transparent : ?pool:Parallel.Pool.t -> ?dir:string -> Gen.circ -> bool

(** [characterize_repeats_exact ?pool c] — a characterization whose
    inputs repeat simulates each distinct input once only where that is
    exact. Inputs: an explicit list with planted repeats (a copy with
    equal bits, and a conjugate with equal real parts but other bits) and
    [3 * 2^k + 1] basis inputs ([k] = the first [min 2 n] qubits). On the
    pure part of [c] (measurements, resets and feedback dropped), under
    [`Batched], [`Sequential], the cached per-cone units and — when
    [auto_route ~wall:0.] names one — the routed cone backend, sample
    [i]'s traces must equal in their Int64 bits a reference that shares
    nothing ({!Sim.Batch.run_seq} on the compiled plan,
    {!Morphcore.Program.run_traces}, {!Sim.Engine.run} on the unit,
    {!Sim.Engine.cone_traces} from the sample's basis index). On impure
    runs — the pure part under noise, and [c] itself when it measures,
    resets or feeds back — each sample must match the same references
    run on its own split generator. Every sample holds its own input,
    and the [Exact] and [Tomography] cost meters equal the sum of
    single-input runs' meters. *)
val characterize_repeats_exact : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [characterize_engines_agree ?pool c] — [Morphcore.Characterize.run]
    under [`Batched] vs [`Sequential] on the same seed: identical cost
    meters and input density matrices (bitwise), traces within {!eps}. *)
val characterize_engines_agree : ?pool:Parallel.Pool.t -> Gen.circ -> bool

(** [obs_transparent c] — the observability layer's zero-interference
    contract: every engine (gate-by-gate, tracepoint routing, segment
    batch, density matrix) produces bit-for-bit identical outputs with
    [Obs] disabled and enabled. Restores the caller's [Obs] setting. *)
val obs_transparent : Gen.circ -> bool

(** [server_obs_transparent c] — the observability contract extended
    through the daemon path: a full verify RPC driven through
    [Server.handle_line] (fresh state and cache each time) emits
    byte-identical protocol lines with [Obs] disabled and enabled, wall
    time ([seconds] fields) excepted. Restores the caller's [Obs]
    setting. *)
val server_obs_transparent : Gen.circ -> bool

(** [sequential_vs_fixed_verdict c] — [`Fixed] and [`Sequential] shot
    budgets of [Morphcore.Verify.check_counts] agree on both sides of an
    unambiguous dichotomy: the circuit's true output distribution (both
    hold) and a halved-probability corruption of it (both reject). The
    significance levels are 1e-6, so a statistical flake is a
    once-per-million-sweeps event. *)
val sequential_vs_fixed_verdict : Gen.circ -> bool

(** [pvalue_uniform_under_null c] — 80 Student-t p-values of N(0,1) data
    tested against their true mean are exact-KS-consistent with
    Uniform(0,1) at level 1e-4. The sketch only seeds the RNG stream. *)
val pvalue_uniform_under_null : Gen.circ -> bool

(** [objective_exact seed] — the validation objective's evaluator
    ({!Morphcore.Verify.evaluator}) against a frozen copy of the
    allocating full-space path it replaced (per-alpha environment, Jacobi
    PSD projection of the [2^n_in]-dimensional candidate, HS encoding,
    normal-equation least squares, coefficient combination), on a random
    approximation drawn from [seed]: [n_in] 1-3, sample counts below
    [2^n_in], below, at and above [4^n_in], every predicate kind
    ([Custom] and tracepoint 0 included) and alphas with exact zeros, a
    fully clipped spectrum and a trace within [1e-9] of 0. With at least
    [2^n_in] inputs, objective values, constraint values (or the
    exceptions raised) and environment matrices must agree in their
    Int64 bits. With fewer, the evaluator projects in the inputs' joint
    range, and the same values must agree within [1e-5] relative to
    [max 1 |reference|] (Frobenius norm for matrices; exceptions still
    equal). *)
val objective_exact : int -> bool

(** [eig_exact seed] — {!Linalg.Eig.hermitian}, [project_psd],
    [sqrtm_psd] and {!Linalg.Hsvec.encode} against the same frozen copy,
    bit for bit, on a random Hermitian matrix of dimension 2-16 (generic,
    with tied eigenvalues, with a clipped spectrum, or zero). *)
val eig_exact : int -> bool

(** [norm_bounds_sound c] — the bounds {!Morphcore.Verify.validate}
    decides norm guarantees by. Two tracepoints on the input qubits are
    appended to [c] (equal on every input; tomography reads them apart),
    and three assertions are checked: [Equals] of that pair, [Equals] of
    the input and the first of them under an [Is_pure 0] assumption, and,
    when [c] has two tracepoints of one width, [Distance_le] of them plus
    the planted [Equals] under a [Purity_ge] assumption. On [c]'s pure
    part, and on [c] itself when it measures, resets or feeds back, each
    characterized under [Exact] (Clifford and Haar inputs, and Haar
    inputs fewer than the input dimension, where the evaluator works in
    range coordinates) and [Tomography] (Clifford inputs):
    (a) [Verify.evaluator]'s objective never exceeds
        {!Morphcore.Verify.norm_bound} + 1e-9, at random alphas and at
        the end point of an [Optimize.Constrained.maximize] run (one
        round; the method turns over the assertions and modes);
    (b) on the pure part under [Exact] at the full sample count, no
        sample's guarantee value exceeds the bound + 1e-9;
    (c) on the pure part, a verdict decided by a sample
        ([verify_decided_total{by="sample"}] moved) is [Violated] with the
        sample's unit alpha and value, and
        {!Morphcore.Verify.check_on_program} refutes the assertion on the
        sample's input state. Restores the caller's [Obs] setting. *)
val norm_bounds_sound : Gen.circ -> bool
