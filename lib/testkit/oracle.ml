let eps = 1e-9

(* [<psi| rho |psi>] computed directly: no eigendecomposition, so
   accurate to ~1e-14, safe against [eps] *)
let fidelity_pure_dm psi rho =
  let v = Qstate.Statevec.to_cvec psi in
  let rv = Linalg.Cmat.apply (Qstate.Density.mat rho) v in
  Linalg.Cx.re (Linalg.Cvec.dot v rv)

let traces_match ?(eps = eps) a b =
  List.length a = List.length b
  && List.for_all2
       (fun (id_a, m_a) (id_b, m_b) ->
         id_a = id_b && Linalg.Cmat.frob_norm (Linalg.Cmat.sub m_a m_b) <= eps)
       a b

let statevec_vs_dm circ =
  let c = Gen.build circ in
  let sv = Sim.Engine.run c in
  let dm = Sim.Dm_engine.run c in
  fidelity_pure_dm sv.Sim.Engine.state (Sim.Dm_engine.final_density dm)
  >= 1.0 -. eps
  && traces_match sv.Sim.Engine.traces dm.Sim.Dm_engine.traces

let statevec_vs_tableau circ =
  let c = Gen.build circ in
  let tab = Stabilizer.Tableau.run c in
  let sv = (Sim.Engine.run c).Sim.Engine.state in
  let rho_tab = Stabilizer.Tableau.density tab in
  let rho_sv = Qstate.Statevec.density sv in
  Linalg.Cmat.frob_norm (Linalg.Cmat.sub rho_tab rho_sv) <= eps
  && List.for_all
       (fun q ->
         let ez_tab = float_of_int (Stabilizer.Tableau.expectation_z tab q) in
         let ez_sv = 1.0 -. (2.0 *. Qstate.Statevec.prob1 sv q) in
         Float.abs (ez_tab -. ez_sv) <= eps)
       (List.init (Circuit.num_qubits c) Fun.id)

let statevec_vs_sparse ?(input = 0) circ =
  let c = Gen.build circ in
  let input = input mod (1 lsl Circuit.num_qubits c) in
  let sparse = Sim.Sparse.run c ~input in
  let initial = Qstate.Statevec.basis (Circuit.num_qubits c) input in
  let dense = (Sim.Engine.run ~initial c).Sim.Engine.state in
  Qstate.Statevec.fidelity_pure (Sim.Sparse.to_statevec sparse) dense
  >= 1.0 -. eps

let gates_agree (a : Circuit.Gate.t) (b : Circuit.Gate.t) =
  a.Circuit.Gate.name = b.Circuit.Gate.name
  && a.Circuit.Gate.controls = b.Circuit.Gate.controls
  && a.Circuit.Gate.targets = b.Circuit.Gate.targets
  && List.length a.Circuit.Gate.params = List.length b.Circuit.Gate.params
  && List.for_all2
       (fun x y -> Float.abs (x -. y) <= eps)
       a.Circuit.Gate.params b.Circuit.Gate.params

let instrs_agree (a : Circuit.Instr.t) (b : Circuit.Instr.t) =
  match (a, b) with
  | Gate g, Gate g' -> gates_agree g g'
  | Tracepoint t, Tracepoint t' -> t.id = t'.id && t.qubits = t'.qubits
  | Measure m, Measure m' -> m.qubit = m'.qubit && m.clbit = m'.clbit
  | Reset q, Reset q' -> q = q'
  | If_gate i, If_gate i' ->
      i.clbits = i'.clbits && i.value = i'.value && gates_agree i.gate i'.gate
  | Barrier qs, Barrier qs' -> qs = qs'
  | _ -> false

let qasm_roundtrip circ =
  let c = Gen.build circ in
  let c' = Qasm.parse (Qasm.to_string c) in
  Circuit.num_qubits c = Circuit.num_qubits c'
  && Circuit.num_clbits c = Circuit.num_clbits c'
  &&
  let is_a = Circuit.instrs c and is_b = Circuit.instrs c' in
  List.length is_a = List.length is_b && List.for_all2 instrs_agree is_a is_b

let transpile_preserves pass circ =
  let c = Gen.build circ in
  Transpile.Equiv.unitaries_equal c (pass c)

let all_passes =
  [
    ("cancel_inverses", Transpile.Passes.cancel_inverses);
    ("merge_rotations", Transpile.Passes.merge_rotations);
    ("drop_identities", fun c -> Transpile.Passes.drop_identities c);
    ("optimize", fun c -> Transpile.Passes.optimize c);
  ]

(* ---- translation validation (Transpile.Certify) ---- *)

let cert_ok = function Ok _ -> true | Error _ -> false

let certified_pass_sound circ =
  let c = Gen.build circ in
  let single f =
    let c', st = f c in
    cert_ok (Transpile.Certify.check [ st ] c c')
  in
  single Transpile.Passes.cancel_inverses_cert
  && single Transpile.Passes.merge_rotations_cert
  && single (fun c -> Transpile.Passes.drop_identities_cert c)
  && single Transpile.Passes.prune_lightcone_cert
  && (let c', cert = Transpile.Passes.optimize_cert c in
      cert_ok (Transpile.Certify.check cert c c'))
  && (let plan, st = Transpile.Segments.compile_cert c in
      cert_ok (Transpile.Certify.check_plan [ st ] c plan))
  && (Morphcore.Verify.certify_transpile c).Morphcore.Verify.certified

let certified_mutants_rejected circ =
  List.for_all Mutate.rejected (Mutate.mutants (Gen.build circ))

(* ---- segment-compiled batch execution vs the gate-by-gate engine ---- *)

let outcomes_close (a : Sim.Engine.outcome) (b : Sim.Engine.outcome) =
  a.Sim.Engine.clbits = b.Sim.Engine.clbits
  && Qstate.Statevec.equal ~eps a.Sim.Engine.state b.Sim.Engine.state
  && traces_match a.Sim.Engine.traces b.Sim.Engine.traces

let cmat_bits a b =
  a.Linalg.Cmat.re = b.Linalg.Cmat.re && a.Linalg.Cmat.im = b.Linalg.Cmat.im

let outcomes_bit_identical (a : Sim.Engine.outcome) (b : Sim.Engine.outcome) =
  a.Sim.Engine.clbits = b.Sim.Engine.clbits
  && a.Sim.Engine.state.Qstate.Statevec.re = b.Sim.Engine.state.Qstate.Statevec.re
  && a.Sim.Engine.state.Qstate.Statevec.im = b.Sim.Engine.state.Qstate.Statevec.im
  && List.length a.Sim.Engine.traces = List.length b.Sim.Engine.traces
  && List.for_all2
       (fun (ia, ma) (ib, mb) -> ia = ib && cmat_bits ma mb)
       a.Sim.Engine.traces b.Sim.Engine.traces

let run_pair ?cutoff ?block_cutoff c =
  let plan = Transpile.Segments.compile ?cutoff ?block_cutoff c in
  let seed = 0x5EED in
  let eng = Sim.Engine.run ~rng:(Stats.Rng.make seed) c in
  let bat =
    Sim.Batch.run_seq ~rng:(Stats.Rng.make seed) plan
      (Qstate.Statevec.zero (Circuit.num_qubits c))
  in
  (eng, bat)

let batch_vs_engine circ =
  let eng, bat = run_pair (Gen.build circ) in
  outcomes_close eng bat

let batch_vs_engine_packed circ =
  (* tiny cutoffs force the greedy packing and Direct-gate compile paths *)
  let eng, bat = run_pair ~cutoff:2 ~block_cutoff:2 (Gen.build circ) in
  outcomes_close eng bat

(* pseudorandom (unnormalized-then-normalized) input column, so batched
   kernels see dense amplitudes rather than sparse basis states *)
let random_state rng n =
  let d = 1 lsl n in
  let re = Array.init d (fun _ -> Stats.Rng.float rng 2. -. 1.) in
  let im = Array.init d (fun _ -> Stats.Rng.float rng 2. -. 1.) in
  let st = Qstate.Statevec.of_cvec n (Linalg.Cvec.of_arrays re im) in
  Qstate.Statevec.normalize st;
  st

let batch_columns = 23

let batch_bit_identical ?pool circ =
  let c = Gen.build circ in
  let n = Circuit.num_qubits c in
  let plan = Transpile.Segments.compile c in
  let states =
    Array.init batch_columns (fun i -> random_state (Stats.Rng.make (77 + i)) n)
  in
  let rngs () =
    Array.init batch_columns (fun i -> Stats.Rng.make (1000 + i))
  in
  let packed = Sim.Batch.run ?pool ~rngs:(rngs ()) plan states in
  let ok = ref true in
  Array.iteri
    (fun i st ->
      let solo = Sim.Batch.run_seq ~rng:(Stats.Rng.make (1000 + i)) plan st in
      if not (outcomes_bit_identical packed.(i) solo) then ok := false)
    states;
  !ok

(* The plan that fuses nothing: every gate a [Direct] item, every other
   instruction a [Fence] run through [Engine.step]. Its direct kernels
   carry the state-vector kernels' update expressions and its fences the
   engine's own step, so it must agree with [Engine.run] exactly — [=],
   not bits: the swap kernel may flip the sign of a zero. *)
let batch_fences_exact c =
  let items =
    List.map
      (function
        | Circuit.Instr.Gate g -> Sim.Batch.Direct g
        | instr -> Sim.Batch.Fence instr)
      (Circuit.instrs c)
  in
  let plan =
    {
      Sim.Batch.num_qubits = Circuit.num_qubits c;
      num_clbits = Circuit.num_clbits c;
      items;
      source_ops =
        List.length
          (List.filter (function Sim.Batch.Direct _ -> true | _ -> false) items);
    }
  in
  let seed = 0x5EED in
  let eng = Sim.Engine.run ~rng:(Stats.Rng.make seed) c in
  let bat =
    Sim.Batch.run_seq ~rng:(Stats.Rng.make seed) plan
      (Qstate.Statevec.zero (Circuit.num_qubits c))
  in
  eng.Sim.Engine.clbits = bat.Sim.Engine.clbits
  && eng.Sim.Engine.traces = bat.Sim.Engine.traces
  && eng.Sim.Engine.state = bat.Sim.Engine.state

(* Deliberately broken segmentation: shift every tracepoint fence past the
   operator that follows it, so the snapshot observes a state one segment
   too late. Running this through [batch_vs_engine]-style comparison MUST
   fail on any circuit where a traced state changes across the next
   operator — the shrinker smoke test relies on it. *)
let delay_tracepoint_fences (plan : Sim.Batch.plan) =
  let rec go = function
    | Sim.Batch.Fence (Circuit.Instr.Tracepoint _ as tp)
      :: ((Sim.Batch.Block _ | Sim.Batch.Direct _) as op)
      :: rest ->
        op :: Sim.Batch.Fence tp :: go rest
    | item :: rest -> item :: go rest
    | [] -> []
  in
  { plan with Sim.Batch.items = go plan.items }

let batch_fence_respected circ =
  let c = Gen.build circ in
  let plan = delay_tracepoint_fences (Transpile.Segments.compile c) in
  let seed = 0x5EED in
  let eng = Sim.Engine.run ~rng:(Stats.Rng.make seed) c in
  let bat =
    Sim.Batch.run_seq ~rng:(Stats.Rng.make seed) plan
      (Qstate.Statevec.zero (Circuit.num_qubits c))
  in
  outcomes_close eng bat

(* ---- characterization: batched engine vs sequential engine ---- *)

let costs_equal (a : Sim.Cost.t) (b : Sim.Cost.t) =
  a.Sim.Cost.executions = b.Sim.Cost.executions
  && a.Sim.Cost.shots = b.Sim.Cost.shots
  && a.Sim.Cost.gate_ops = b.Sim.Cost.gate_ops
  && a.Sim.Cost.one_qubit_gates = b.Sim.Cost.one_qubit_gates
  && a.Sim.Cost.two_qubit_gates = b.Sim.Cost.two_qubit_gates
  && a.Sim.Cost.measurements = b.Sim.Cost.measurements

(* ---- static analysis: lightcone pruning & stabilizer routing ---- *)

(* [prune_preserves_traces] runs on *pure* sketches: pruning drops resets
   outside the cone, which would shift the measurement generator stream of
   a stochastic trajectory and make an exact single-run comparison
   meaningless (only the trajectory *average* is preserved there). *)
let prune_preserves_traces circ =
  let c = Gen.build circ in
  let full = (Sim.Engine.run c).Sim.Engine.traces in
  let pruned = (Sim.Engine.run (Transpile.Passes.prune_lightcone c)).Sim.Engine.traces in
  traces_match full pruned

let prune_idempotent circ =
  let c = Transpile.Passes.prune_lightcone (Gen.build circ) in
  List.length (Circuit.instrs (Transpile.Passes.prune_lightcone c))
  = List.length (Circuit.instrs c)

let lightcone_restrict_matches circ =
  let c = Gen.build circ in
  let full = (Sim.Engine.run c).Sim.Engine.traces in
  List.for_all
    (fun cone ->
      let sub, _ = Analysis.Lightcone.restrict c cone in
      let restricted = (Sim.Engine.run sub).Sim.Engine.traces in
      match
        ( List.assoc_opt cone.Analysis.Lightcone.id restricted,
          List.assoc_opt cone.Analysis.Lightcone.id full )
      with
      | Some a, Some b -> Linalg.Cmat.frob_norm (Linalg.Cmat.sub a b) <= eps
      | _ -> false)
    (Analysis.Lightcone.cones c)

let route_vs_statevec route circ =
  let c = Gen.build circ in
  (not (Sim.Engine.applicable route c))
  || traces_match
       (Sim.Engine.cone_traces route c)
       (Sim.Engine.run c).Sim.Engine.traces

let samples_agree ?(bitwise = false) (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  costs_equal a.Morphcore.Characterize.cost b.Morphcore.Characterize.cost
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         &&
         if bitwise then
           List.length sa.Morphcore.Characterize.traces
           = List.length sb.Morphcore.Characterize.traces
           && List.for_all2
                (fun (ia, ma) (ib, mb) -> ia = ib && cmat_bits ma mb)
                sa.Morphcore.Characterize.traces
                sb.Morphcore.Characterize.traces
         else
           traces_match sa.Morphcore.Characterize.traces
             sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

(* the pinned regression for the stabilizer auto-routing: on any program
   OUTSIDE the routing condition, [`Auto] must remain bit-for-bit the
   [`Batched] path it was before the routing existed *)
let characterize_auto_unchanged ?pool ?(kind = Clifford.Sampling.Clifford) circ =
  let c = Gen.build circ in
  (* the routing only ever fires for Basis-kind sampling; under any other
     kind `Auto must equal `Batched on every program *)
  (kind = Clifford.Sampling.Basis && Sim.Engine.auto_route c <> None)
  ||
  let run engine =
    Morphcore.Characterize.run ?pool ~rng:(Stats.Rng.make 99) ~kind
      ~trajectories:6 ~engine (Morphcore.Program.make c) ~count:4
  in
  samples_agree ~bitwise:true (run `Auto) (run `Batched)

(* stabilizer-routed characterization vs the sequential engine: same cost
   meter, traces within eps *)
let characterize_stabilizer_route ?pool circ =
  let c = Gen.build circ in
  (not (Sim.Engine.applicable `Stabilizer c))
  ||
  let run engine =
    Morphcore.Characterize.run ?pool ~rng:(Stats.Rng.make 99)
      ~kind:Clifford.Sampling.Basis ~engine (Morphcore.Program.make c)
      ~count:4
  in
  samples_agree (run `Auto) (run `Sequential)

(* scalable-route characterization (wall forced to zero so the sparse /
   rank engines fire on small circuits) vs the sequential engine: same
   cost meter, traces within eps. Vacuous when the router still declines
   (e.g. Clifford circuits go to the stabilizer route, covered above). *)
let characterize_scale_route ?pool circ =
  let c = Gen.build circ in
  match Sim.Engine.auto_route ~wall:0. c with
  | Some (`Sparse | `Rank) ->
      let run engine =
        Morphcore.Characterize.run ?pool ~wall:0. ~rng:(Stats.Rng.make 99)
          ~kind:Clifford.Sampling.Basis ~engine (Morphcore.Program.make c)
          ~count:4
      in
      samples_agree (run `Auto) (run `Sequential)
  | Some `Stabilizer | None -> true

let characterize_engines_agree ?pool circ =
  let program = Morphcore.Program.make (Gen.build circ) in
  let run engine =
    Morphcore.Characterize.run ?pool ~rng:(Stats.Rng.make 99) ~trajectories:6
      ~engine program ~count:4
  in
  let a = run `Batched and b = run `Sequential in
  costs_equal a.Morphcore.Characterize.cost b.Morphcore.Characterize.cost
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         && traces_match sa.Morphcore.Characterize.traces
              sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

(* ---- cache transparency ---- *)

let samples_traces_identical (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  Array.length a.Morphcore.Characterize.samples
  = Array.length b.Morphcore.Characterize.samples
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         && List.length sa.Morphcore.Characterize.traces
            = List.length sb.Morphcore.Characterize.traces
         && List.for_all2
              (fun (ia, ma) (ib, mb) -> ia = ib && cmat_bits ma mb)
              sa.Morphcore.Characterize.traces
              sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

let samples_traces_close (a : Morphcore.Characterize.t)
    (b : Morphcore.Characterize.t) =
  Array.length a.Morphcore.Characterize.samples
  = Array.length b.Morphcore.Characterize.samples
  && Array.for_all2
       (fun (sa : Morphcore.Characterize.sample)
            (sb : Morphcore.Characterize.sample) ->
         cmat_bits sa.Morphcore.Characterize.input_dm
           sb.Morphcore.Characterize.input_dm
         && traces_match sa.Morphcore.Characterize.traces
              sb.Morphcore.Characterize.traces)
       a.Morphcore.Characterize.samples b.Morphcore.Characterize.samples

(* Content-addressed caching must be invisible in the results. Four runs
   of the same characterization — uncached, cold cache, warm cache, and
   through a byte-starved cache whose entries keep getting evicted — and
   a persistence reload (resident tier dropped, entries re-read from
   disk) when [dir] is given: the cached runs must agree bit-for-bit
   with each other (every cached value is a pure function of its key;
   tomography degradation draws from key-derived generators), and with
   the uncached run within the engine tolerance (the incremental path
   simulates lightcone-restricted units, the same ~1e-15 reordering as
   batched-vs-sequential). Every run leaves the caller's generator where
   the uncached run left it, hits included. *)
let cache_transparent ?pool ?dir circ =
  let c = Gen.build circ in
  let program = Morphcore.Program.make c in
  (* the caller's generator after each run *)
  let rng_after = ref [] in
  let run ?cache () =
    let rng = Stats.Rng.make 2718 in
    let ch =
      Morphcore.Characterize.run ?pool ?cache ~rng ~trajectories:4 program
        ~count:3
    in
    rng_after := Stats.Rng.fingerprint rng :: !rng_after;
    ch
  in
  let uncached = run () in
  let cache = Cache.create ?dir () in
  let cold = run ~cache () in
  let warm = run ~cache () in
  samples_traces_identical cold warm
  && samples_traces_close uncached cold
  && (let tiny = Cache.create ~max_bytes:512 () in
      let tcold = run ~cache:tiny () in
      let twarm = run ~cache:tiny () in
      samples_traces_identical cold tcold
      && samples_traces_identical tcold twarm)
  && (match dir with
     | None -> true
     | Some _ ->
         Cache.drop_memory cache;
         samples_traces_identical cold (run ~cache ()))
  && List.length (List.sort_uniq compare !rng_after) = 1

(* ---- observability transparency ---- *)

(* Enabling [Obs] must not perturb any engine: instrumentation reads no
   generator, reorders no arithmetic, and branches on nothing but the
   enabled flag. Run every engine with the global switch off, then on
   (restoring the caller's setting either way), and compare the outputs
   with (=) — bit-identical, no tolerance. The density-matrix engine is
   skipped past 6 measurements, where its branch tree gets expensive. *)
let obs_transparent circ =
  let c = Gen.build circ in
  let measures =
    List.fold_left
      (fun acc i ->
        match i with Circuit.Instr.Measure _ -> acc + 1 | _ -> acc)
      0 (Circuit.instrs c)
  in
  let run_all () =
    let eng = Sim.Engine.run ~rng:(Stats.Rng.make 0x0B5) c in
    let tps =
      Sim.Engine.tracepoint_states ~rng:(Stats.Rng.make 0x0B5) ~trajectories:4
        c
    in
    let plan = Transpile.Segments.compile c in
    let bat =
      Sim.Batch.run_seq ~rng:(Stats.Rng.make 0x0B5) plan
        (Qstate.Statevec.zero (Circuit.num_qubits c))
    in
    let dm = if measures <= 6 then Some (Sim.Dm_engine.run c) else None in
    (eng, tps, bat, dm)
  in
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.configure ~enabled:was)
    (fun () ->
      Obs.configure ~enabled:false;
      let off = run_all () in
      Obs.configure ~enabled:true;
      let on = run_all () in
      off = on)

(* ---- server-path observability transparency ---- *)

(* wall time is the one legitimately nondeterministic field a request
   emits; everything else must be bit-identical *)
let rec strip_seconds = function
  | Server.Jsonx.Obj fields ->
      Server.Jsonx.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "seconds" then None else Some (k, strip_seconds v))
           fields)
  | Server.Jsonx.List l -> Server.Jsonx.List (List.map strip_seconds l)
  | v -> v

(* [obs_transparent] through the daemon path: one full verify RPC
   (parse, characterize, solve, verdict, cache deltas) driven through
   [Server.handle_line] against a fresh state + cache, with obs off and
   then on — every emitted protocol line except wall time must be
   byte-identical. This is the PR 5 contract extended to the service
   layer: request ids, spans, logs, RED metrics and the flight recorder
   may observe a request but never perturb it. *)
let server_obs_transparent circ =
  let c = Gen.build circ in
  let c =
    if Circuit.tracepoints c = [] then Circuit.tracepoint 1 [ 0 ] c else c
  in
  let tp = fst (List.hd (Circuit.tracepoints c)) in
  let req =
    Server.Jsonx.to_string
      (Server.Jsonx.Obj
         [
           ("id", Server.Jsonx.int 1);
           ("request_id", Server.Jsonx.Str "oracle");
           ("method", Server.Jsonx.Str "verify");
           ( "params",
             Server.Jsonx.Obj
               [
                 ("qasm", Server.Jsonx.Str (Qasm.to_string c));
                 ("count", Server.Jsonx.int 3);
                 ("seed", Server.Jsonx.int 7);
                 ( "guarantee",
                   Server.Jsonx.List
                     [
                       Server.Jsonx.Str (Printf.sprintf "purity-ge:%d,0.0" tp);
                     ] );
               ] );
         ])
  in
  let drive () =
    let state = Server.make_state ~cache:(Cache.create ()) () in
    let out = ref [] in
    ignore (Server.handle_line state ~emit:(fun v -> out := v :: !out) req);
    List.rev_map (fun v -> Server.Jsonx.to_string (strip_seconds v)) !out
  in
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.configure ~enabled:was)
    (fun () ->
      Obs.configure ~enabled:false;
      let off = drive () in
      Obs.configure ~enabled:true;
      let on = drive () in
      off = on)

(* ---- statistical verdicts ---- *)

(* Sequential and fixed shot budgets must agree on unambiguous
   distribution assertions. Both sides of the dichotomy are forced: the
   TRUE output distribution of the circuit (both budgets must hold —
   the significance levels are set to 1e-6, so a false reject is a
   once-per-million-sweeps event, not a flake), and a broken expectation
   with every probability halved (the missing half lands in the "other"
   bucket that observes nothing, a ~shots/2 chi-square: both budgets
   must reject). *)
let sequential_vs_fixed_verdict circ =
  let c = Gen.build circ in
  let program = Morphcore.Program.make c in
  let n = Circuit.num_qubits c in
  let input = Qstate.Statevec.basis n 0 in
  let probs = Qstate.Statevec.probs (Sim.Engine.run c).Sim.Engine.state in
  (* listed support: up to 8 heaviest outcomes above 1e-3 *)
  let listed =
    Array.to_list (Array.mapi (fun k p -> (k, p)) probs)
    |> List.filter (fun (_, p) -> p > 1e-3)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 8)
  in
  if listed = [] then true (* no category above threshold: vacuous *)
  else
  let check ~significance expected budget seed =
    let dist = Morphcore.Assertion.Dist.make ~significance expected in
    (Morphcore.Verify.check_counts ~budget ~rng:(Stats.Rng.make seed) program
       dist ~input)
      .Morphcore.Verify.counts_hold
  in
  let seq =
    `Sequential { Stats.Tests.alpha = 1e-6; beta = 1e-6; max_shots = 2048 }
  in
  let agree_true =
    check ~significance:1e-6 listed (`Fixed 2048) 3
    && check ~significance:1e-6 listed seq 3
  in
  let broken = List.map (fun (k, p) -> (k, p /. 2.)) listed in
  let agree_broken =
    (not (check ~significance:1e-6 broken (`Fixed 2048) 5))
    && not (check ~significance:1e-6 broken seq 5)
  in
  agree_true && agree_broken

(* Under a true null hypothesis, p-values must be Uniform(0,1) — the
   property every verdict in the stats layer leans on. Student-t
   p-values are continuous, so the exact one-sample KS test applies with
   no discreteness slack: draw 80 independent t-tests of N(0,1) data
   against mu = 0 and KS their p-values against the uniform CDF. The
   sketch only seeds the RNG stream, so the sweep exercises 100
   independent streams per run. *)
let pvalue_uniform_under_null circ =
  let rng = Stats.Rng.make (Hashtbl.hash circ land 0x3FFFFFFF) in
  let pvalues =
    Array.init 80 (fun _ ->
        let xs = Array.init 12 (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
        (Stats.Tests.t_one_sample ~mu:0. xs).Stats.Tests.pvalue)
  in
  let cdf x = Float.min 1. (Float.max 0. x) in
  (Stats.Tests.ks_one_sample ~cdf pvalues).Stats.Tests.pvalue > 1e-4

(* ------------ the validation objective, bit for bit ------------------ *)

(* A frozen copy of the allocating full-space arithmetic the validation
   objective ran before [Morphcore.Verify.evaluator] existed: the
   per-alpha environment, the Jacobi eigensolve and PSD projection of the
   2^n_in x 2^n_in candidate, the HS encoding, the normal-equation least
   squares and the coefficient combination, with every sum in its
   original order. It calls none of the library
   functions that now wrap the in-place kernels (the hermitization, the
   adjoint and the matrix-vector product are copied too), so the oracles
   below compare two independent copies of the arithmetic. *)
module Reference = struct
  open Linalg

  let adjoint a =
    let r, c = Cmat.dims a in
    Cmat.init c r (fun i j -> Cx.conj (Cmat.get a j i))

  let hermitize a = Cmat.rscale 0.5 (Cmat.add a (adjoint a))

  let off_diagonal_norm2 re im n =
    let s = ref 0. in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let k = (i * n) + j in
          s := !s +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
        end
      done
    done;
    !s

  let scale_col re im n q pr pi =
    for k = 0 to n - 1 do
      let idx = (k * n) + q in
      let r = re.(idx) and i = im.(idx) in
      re.(idx) <- (r *. pr) -. (i *. pi);
      im.(idx) <- (r *. pi) +. (i *. pr)
    done

  let scale_row re im n q pr pi =
    let base = q * n in
    for k = 0 to n - 1 do
      let idx = base + k in
      let r = re.(idx) and i = im.(idx) in
      re.(idx) <- (r *. pr) -. (i *. pi);
      im.(idx) <- (r *. pi) +. (i *. pr)
    done

  let rotate_cols re im n p q c s =
    for k = 0 to n - 1 do
      let ip = (k * n) + p and iq = (k * n) + q in
      let pr = re.(ip) and pi = im.(ip) in
      let qr = re.(iq) and qi = im.(iq) in
      re.(ip) <- (c *. pr) -. (s *. qr);
      im.(ip) <- (c *. pi) -. (s *. qi);
      re.(iq) <- (s *. pr) +. (c *. qr);
      im.(iq) <- (s *. pi) +. (c *. qi)
    done

  let rotate_rows re im n p q c s =
    let bp = p * n and bq = q * n in
    for k = 0 to n - 1 do
      let ip = bp + k and iq = bq + k in
      let pr = re.(ip) and pi = im.(ip) in
      let qr = re.(iq) and qi = im.(iq) in
      re.(ip) <- (c *. pr) -. (s *. qr);
      im.(ip) <- (c *. pi) -. (s *. qi);
      re.(iq) <- (s *. pr) +. (c *. qr);
      im.(iq) <- (s *. pi) +. (c *. qi)
    done

  let hermitian a0 =
    let n, nc = Cmat.dims a0 in
    if n <> nc then invalid_arg "Eig.hermitian: non-square";
    let h = hermitize a0 in
    let are = Array.copy h.Cmat.re and aim = Array.copy h.Cmat.im in
    let vre = Array.make (n * n) 0. and vim = Array.make (n * n) 0. in
    for i = 0 to n - 1 do
      vre.((i * n) + i) <- 1.
    done;
    let scale = Cmat.frob_norm h +. 1e-300 in
    let tol2 = 1e-13 *. scale *. (1e-13 *. scale) in
    let max_sweeps = 100 in
    let sweep = ref 0 in
    while off_diagonal_norm2 are aim n > tol2 && !sweep < max_sweeps do
      incr sweep;
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          let idx_pq = (p * n) + q in
          let rr = are.(idx_pq) and ri = aim.(idx_pq) in
          let r = sqrt ((rr *. rr) +. (ri *. ri)) in
          if r > 1e-300 then begin
            let pr = rr /. r and pi = ri /. r in
            scale_col are aim n q pr (-.pi);
            scale_row are aim n q pr pi;
            scale_col vre vim n q pr (-.pi);
            let app = are.((p * n) + p) and aqq = are.((q * n) + q) in
            let tau = (aqq -. app) /. (2. *. r) in
            let t =
              if tau >= 0. then 1. /. (tau +. sqrt ((tau *. tau) +. 1.))
              else -1. /. (-.tau +. sqrt ((tau *. tau) +. 1.))
            in
            let c = 1. /. sqrt ((t *. t) +. 1.) in
            let s = t *. c in
            rotate_cols are aim n p q c s;
            rotate_rows are aim n p q c s;
            rotate_cols vre vim n p q c s
          end
        done
      done
    done;
    let w = Array.init n (fun i -> are.((i * n) + i)) in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun i j -> compare w.(i) w.(j)) order;
    let w_sorted = Array.map (fun i -> w.(i)) order in
    let v_sorted =
      Cmat.init n n (fun i j ->
          let src = (i * n) + order.(j) in
          Cx.make vre.(src) vim.(src))
    in
    (w_sorted, v_sorted)

  let funm f a =
    let w, v = hermitian a in
    let n = Array.length w in
    let d =
      Cmat.init n n (fun i j ->
          if i = j then Cx.of_float (f w.(i)) else Cx.zero)
    in
    Cmat.mul3 v d (adjoint v)

  let project_psd a =
    let clipped = funm (fun x -> Float.max x 0.) (hermitize a) in
    let t = Cx.re (Cmat.trace clipped) in
    if t <= 1e-14 then
      Cmat.rscale
        (1. /. float_of_int (fst (Cmat.dims a)))
        (Cmat.identity (fst (Cmat.dims a)))
    else Cmat.rscale (1. /. t) clipped

  let sqrt2 = sqrt 2.

  let encode a =
    let n, nc = Cmat.dims a in
    if n <> nc then invalid_arg "Hsvec.encode: non-square";
    let h = hermitize a in
    let v = Array.make (n * n) 0. in
    let k = ref 0 in
    for i = 0 to n - 1 do
      v.(!k) <- Cx.re (Cmat.get h i i);
      incr k
    done;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let z = Cmat.get h i j in
        v.(!k) <- sqrt2 *. Cx.re z;
        v.(!k + 1) <- sqrt2 *. Cx.im z;
        k := !k + 2
      done
    done;
    v

  let apply m x =
    let rows, cols = Rmat.dims m in
    Array.init rows (fun i ->
        let s = ref 0. in
        for j = 0 to cols - 1 do
          s := !s +. (Rmat.get m i j *. x.(j))
        done;
        !s)

  let lstsq_solver ?(ridge = 1e-10) m =
    let at = Rmat.transpose m in
    let ata = Rmat.mul at m in
    let n = fst (Rmat.dims ata) in
    for i = 0 to n - 1 do
      Rmat.set ata i i (Rmat.get ata i i +. ridge)
    done;
    match Rmat.cholesky ata with
    | l ->
        fun b ->
          let atb = apply at b in
          let y = Array.make n 0. in
          for i = 0 to n - 1 do
            let s = ref atb.(i) in
            for k = 0 to i - 1 do
              s := !s -. (Rmat.get l i k *. y.(k))
            done;
            y.(i) <- !s /. Rmat.get l i i
          done;
          let x = Array.make n 0. in
          for i = n - 1 downto 0 do
            let s = ref y.(i) in
            for k = i + 1 to n - 1 do
              s := !s -. (Rmat.get l k i *. x.(k))
            done;
            x.(i) <- !s /. Rmat.get l i i
          done;
          x
    | exception Failure _ -> fun b -> Rmat.solve ata (apply at b)

  let decomposer (approx : Morphcore.Approx.t) =
    let inputs = approx.Morphcore.Approx.inputs in
    let d = 1 lsl approx.Morphcore.Approx.n_in in
    let b = Rmat.create (d * d) (Array.length inputs) in
    Array.iteri
      (fun j input ->
        let v = encode input in
        Array.iteri (fun i x -> Rmat.set b i j x) v)
      inputs;
    let solver = lstsq_solver ~ridge:1e-9 b in
    fun rho -> solver (encode rho)

  let combine states alpha =
    if Array.length states <> Array.length alpha then
      invalid_arg "Approx: coefficient count mismatch";
    let d, _ = Cmat.dims states.(0) in
    let acc = ref (Cmat.create d d) in
    Array.iteri
      (fun i a ->
        if a <> 0. then acc := Cmat.add !acc (Cmat.rscale a states.(i)))
      alpha;
    !acc

  let env_of_alpha ~decompose (approx : Morphcore.Approx.t) alpha
      : Morphcore.Predicate.env =
    let inputs = approx.Morphcore.Approx.inputs in
    let cache = Hashtbl.create 4 in
    let phys_alpha =
      lazy (decompose (project_psd (combine inputs alpha)))
    in
    fun tp ->
      match Hashtbl.find_opt cache tp with
      | Some m -> m
      | None ->
          let a = Lazy.force phys_alpha in
          let m =
            if tp = 0 then combine inputs a
            else
              match List.assoc_opt tp approx.Morphcore.Approx.outputs with
              | Some states -> combine states a
              | None -> raise Not_found
          in
          Hashtbl.replace cache tp m;
          m

  let guarantee_objective assertion env =
    List.fold_left
      (fun acc p -> Float.max acc (Morphcore.Predicate.eval p env))
      neg_infinity assertion.Morphcore.Assertion.guarantees
end

let float_exact a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let floats_exact a b =
  Array.length a = Array.length b && Array.for_all2 float_exact a b

let cmat_exact a b =
  Linalg.Cmat.dims a = Linalg.Cmat.dims b
  && floats_exact a.Linalg.Cmat.re b.Linalg.Cmat.re
  && floats_exact a.Linalg.Cmat.im b.Linalg.Cmat.im

(* an outcome that can be compared after the fact: a value or the
   exception it raised *)
let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let same_outcome eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error e, Error f -> e = f
  | _ -> false

(* a density matrix of dimension [d]: a basis state (exact zeros), a
   random pure state, or a mixture of two *)
let random_density rs d =
  let pure () =
    let re = Array.init d (fun _ -> Random.State.float rs 2. -. 1.)
    and im = Array.init d (fun _ -> Random.State.float rs 2. -. 1.) in
    let norm =
      sqrt
        (Array.fold_left ( +. ) 0.
           (Array.init d (fun i -> (re.(i) *. re.(i)) +. (im.(i) *. im.(i)))))
    in
    Linalg.Cmat.init d d (fun i j ->
        Linalg.Cx.mul
          (Linalg.Cx.make (re.(i) /. norm) (im.(i) /. norm))
          (Linalg.Cx.make (re.(j) /. norm) (-.im.(j) /. norm)))
  in
  match Random.State.int rs 3 with
  | 0 ->
      let k = Random.State.int rs d in
      Linalg.Cmat.init d d (fun i j ->
          if i = k && j = k then Linalg.Cx.one else Linalg.Cx.zero)
  | 1 -> pure ()
  | _ ->
      let p = Random.State.float rs 1. in
      Linalg.Cmat.add (Linalg.Cmat.rscale p (pure ()))
        (Linalg.Cmat.rscale (1. -. p) (pure ()))

let random_pauli rs k =
  Qstate.Pauli.of_string
    (String.init k (fun _ -> "IXYZ".[Random.State.int rs 4]))

(* a random approximation: [n_in] 1-3, sample counts below [2^n_in]
   (inputs that may leave part of the input space unreached), below, at
   and above [4^n_in], tracepoints of 1-3 qubits (tracepoint 1 as wide as
   the input), and an output recorded under id 0 that the environment
   must ignore in favour of the inputs *)
let random_approx rs =
  let n_in = 1 + Random.State.int rs 3 in
  let d = 1 lsl n_in in
  let full = d * d in
  let count =
    match Random.State.int rs 4 with
    | 0 -> 1 + Random.State.int rs (full - 1)
    | 1 -> full
    | 2 -> full + 1 + Random.State.int rs 4
    | _ -> 1 + Random.State.int rs (d - 1)
  in
  let states dim = Array.init count (fun _ -> random_density rs dim) in
  let widths =
    n_in :: List.init (Random.State.int rs 3) (fun _ -> 1 + Random.State.int rs 3)
  in
  let outputs =
    (0, states d) :: List.mapi (fun i w -> (i + 1, states (1 lsl w))) widths
  in
  ( Morphcore.Approx.make ~n_in ~inputs:(states d) ~outputs,
    (0, n_in) :: List.mapi (fun i w -> (i + 1, w)) widths )

(* every predicate kind over tracepoints [tps] (id, qubits), tracepoint 0
   included, plus a [Custom] one that reads ids no predicate lists (and,
   sometimes, one the approximation lacks) *)
let random_predicate rs tps =
  let module P = Morphcore.Predicate in
  let pick () = List.nth tps (Random.State.int rs (List.length tps)) in
  let pair () =
    let a, w = pick () in
    let same = List.filter (fun (_, w') -> w' = w) tps in
    (a, fst (List.nth same (Random.State.int rs (List.length same))))
  in
  let f () = Random.State.float rs 1. in
  let tp, w = pick () in
  let dim = 1 lsl w in
  match Random.State.int rs 11 with
  | 0 -> P.Is_pure tp
  | 1 -> P.Purity_ge (tp, f ())
  | 2 -> let a, b = pair () in P.Equals (a, b)
  | 3 -> P.Equals_const (tp, random_density rs dim)
  | 4 -> P.Not_equals_const (tp, random_density rs dim, f ())
  | 5 -> let a, b = pair () in P.Distance_le (a, b, f ())
  | 6 -> P.Expect_ge (tp, random_pauli rs w, f () -. 0.5)
  | 7 -> P.Expect_le (tp, random_pauli rs w, f () -. 0.5)
  | 8 -> P.Diag_in_range (tp, Random.State.int rs dim, f () *. 0.3, 0.3 +. f ())
  | 9 -> let a, b = pair () in P.Phase_diff (a, b, f () *. Float.pi)
  | _ ->
      let last = fst (List.nth tps (List.length tps - 1)) in
      let stray = if Random.State.int rs 8 = 0 then [ 99 ] else [] in
      P.Custom
        ( "custom",
          fun env ->
            List.fold_left
              (fun acc id ->
                acc +. Linalg.Cx.re (Linalg.Cmat.trace (env id))
                +. Linalg.Cmat.frob_norm (env id))
              0.
              ((last :: 0 :: stray) @ [ last ]) )

(* alphas that reach every branch: generic, with exact (and negative)
   zeros, all zero, a negative combination whose spectrum clips entirely,
   and two whose trace cancels to within 1e-9 (to rounding, and to about
   5e-10, between the thresholds a slip of scale would confuse) *)
let random_alphas rs n =
  let generic () = Array.init n (fun _ -> Random.State.float rs 2. -. 1.) in
  let zeros () =
    Array.map
      (fun a ->
        match Random.State.int rs 3 with 0 -> 0. | 1 -> -0. | _ -> a)
      (generic ())
  in
  let clipped () = Array.init n (fun _ -> -.Random.State.float rs 1.) in
  let traceless offset =
    let a = generic () in
    let s = ref 0. in
    for i = 0 to n - 2 do
      s := !s +. a.(i)
    done;
    a.(n - 1) <- offset -. !s;
    a
  in
  let first = generic () in
  [
    first;
    zeros ();
    Array.make n 0.;
    clipped ();
    traceless 0.;
    traceless 5e-10;
    generic ();
    first;
  ]

(* Fewer inputs than the input space's dimension are projected in their
   joint range, a different order of operations: values there agree
   with the full-space reference within this tolerance, relative to
   [max 1 |reference|] (Frobenius norm for matrices) *)
let range_tol = 1e-5

let float_close a b =
  float_exact a b || Float.abs (a -. b) <= range_tol *. Float.max 1. (Float.abs b)

let cmat_close a b =
  Linalg.Cmat.dims a = Linalg.Cmat.dims b
  && Linalg.Cmat.frob_norm (Linalg.Cmat.sub a b)
     <= range_tol *. Float.max 1. (Linalg.Cmat.frob_norm b)

let objective_exact seed =
  let rs = Random.State.make [| seed |] in
  let approx, tps = random_approx rs in
  let n = Morphcore.Approx.n_sample approx in
  let preds k = List.init k (fun _ -> random_predicate rs tps) in
  let assertion =
    Morphcore.Assertion.make
      ~assumes:(preds (Random.State.int rs 4))
      ~guarantees:(preds (1 + Random.State.int rs 3))
      ()
  in
  let alphas = random_alphas rs n in
  let decompose = Reference.decomposer approx in
  let ids = 0 :: List.map fst approx.Morphcore.Approx.outputs in
  let float_eq, cmat_eq =
    if n >= 1 lsl approx.Morphcore.Approx.n_in then (float_exact, cmat_exact)
    else (float_close, cmat_close)
  in
  let ev = Morphcore.Verify.evaluator approx assertion in
  (* one array rewritten in place, as the solvers' numeric gradients do,
     so a stale environment would show *)
  let x = Array.make n 0. in
  List.for_all
    (fun alpha ->
      Array.blit alpha 0 x 0 n;
      let ref_env () = Reference.env_of_alpha ~decompose approx alpha in
      (* constraints first, then the objective, as the penalty solver
         reads them *)
      List.for_all2
        (fun g p ->
          same_outcome float_eq
            (attempt (fun () -> g x))
            (attempt (fun () -> Morphcore.Predicate.eval p (ref_env ()))))
        ev.Morphcore.Verify.constraints assertion.Morphcore.Assertion.assumes
      && same_outcome float_eq
           (attempt (fun () -> ev.Morphcore.Verify.objective x))
           (attempt (fun () ->
                Reference.guarantee_objective assertion (ref_env ())))
      &&
      let env = ev.Morphcore.Verify.env x and r = ref_env () in
      List.for_all
        (fun id ->
          same_outcome cmat_eq (attempt (fun () -> env id)) (attempt (fun () -> r id)))
        (99 :: ids))
    alphas

(* a Hermitian matrix of dimension [n]: generic, diagonal with repeated
   values (eigenvalue ties), rank one minus a multiple of the identity
   (clipped spectrum), or zero *)
let random_hermitian rs n =
  let c () = Linalg.Cx.make (Random.State.float rs 2. -. 1.) (Random.State.float rs 2. -. 1.) in
  match Random.State.int rs 4 with
  | 0 -> Linalg.Cmat.hermitize (Linalg.Cmat.init n n (fun _ _ -> c ()))
  | 1 ->
      let v = Array.init n (fun _ -> float_of_int (Random.State.int rs 3) /. 2.) in
      Linalg.Cmat.init n n (fun i j -> if i = j then Linalg.Cx.of_float v.(i) else Linalg.Cx.zero)
  | 2 ->
      Linalg.Cmat.sub (random_density rs n)
        (Linalg.Cmat.rscale (Random.State.float rs 1.) (Linalg.Cmat.identity n))
  | _ -> Linalg.Cmat.create n n

let eig_exact seed =
  let rs = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rs 15 in
  let a = random_hermitian rs n in
  let w, v = Linalg.Eig.hermitian a and w', v' = Reference.hermitian a in
  floats_exact w w' && cmat_exact v v'
  && cmat_exact (Linalg.Eig.project_psd a) (Reference.project_psd a)
  && cmat_exact (Linalg.Eig.sqrtm_psd a)
       (Reference.funm (fun x -> sqrt (Float.max x 0.)) a)
  && floats_exact (Linalg.Hsvec.encode a) (Reference.encode a)

(* ---- repeated inputs: one exact simulation per distinct input ---- *)

let traces_exact a b =
  List.length a = List.length b
  && List.for_all2 (fun (ia, ma) (ib, mb) -> ia = ib && cmat_exact ma mb) a b

let input_density st =
  let v = Qstate.Statevec.to_cvec st in
  Linalg.Cmat.outer v v

(* the same real parts, the imaginary parts negated: another state
   whenever [st] has a complex amplitude *)
let conjugate st =
  Qstate.Statevec.of_cvec
    (Qstate.Statevec.num_qubits st)
    (Linalg.Cvec.of_arrays st.Qstate.Statevec.re
       (Array.map Float.neg st.Qstate.Statevec.im))

let basis_of st =
  let rec go k =
    if Qstate.Statevec.amplitude st k = Linalg.Cx.one then k else go (k + 1)
  in
  go 0

(* the circuit with its measurements, resets and feedback dropped *)
let pure_part circ =
  Gen.build
    {
      circ with
      Gen.specs =
        List.filter
          (function Gen.Meas _ | Gen.Reset _ | Gen.Feedback _ -> false | _ -> true)
          circ.Gen.specs;
    }

(* The linearity rule, stated on its own: a pure batched run with more
   distinct inputs than the [2^k] basis states, whose basis states fit
   the batch's amplitude budget and whose plan spends more block MACs per
   column than the combination's [T 2^k] per amplitude, simulates the
   basis states instead of its inputs. *)
let spans_basis program ~distinct =
  let c = program.Morphcore.Program.circuit in
  let n = Circuit.num_qubits c
  and k = Morphcore.Program.num_input_qubits program in
  distinct > 1 lsl k
  && 1 lsl (k + n) <= Sim.Batch.amplitude_budget
  && Sim.Batch.column_macs (Transpile.Segments.compile c)
     > List.length (Circuit.tracepoints c) * (1 lsl (k + n))

(* the plan up to its last tracepoint: what a basis run simulates *)
let traced_prefix (plan : Sim.Batch.plan) =
  let rec from_last = function
    | Sim.Batch.Fence (Circuit.Instr.Tracepoint _) :: _ as l -> l
    | _ :: rest -> from_last rest
    | [] -> []
  in
  let items = List.rev (from_last (List.rev plan.Sim.Batch.items)) in
  { plan with Sim.Batch.items }

let count_distinct states =
  let rec go acc = function
    | [] -> List.length acc
    | st :: rest ->
        let same a =
          floats_exact a.Qstate.Statevec.re st.Qstate.Statevec.re
          && floats_exact a.Qstate.Statevec.im st.Qstate.Statevec.im
        in
        go (if List.exists same acc then acc else st :: acc) rest
  in
  go [] states

let traces_within tol a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ia, (ma : Linalg.Cmat.t)) (ib, (mb : Linalg.Cmat.t)) ->
         ia = ib
         && Linalg.Cmat.dims ma = Linalg.Cmat.dims mb
         && Array.for_all2
              (fun x y -> Float.abs (x -. y) <= tol)
              (Array.append ma.Linalg.Cmat.re ma.Linalg.Cmat.im)
              (Array.append mb.Linalg.Cmat.re mb.Linalg.Cmat.im))
       a b

(* [c] with a dense mixing layer over every qubit ([ry], [rz], a CX
   chain, [ry], [rz]) before each tracepoint and at the end: every block
   spans the register, so the linearity rule's cost condition holds *)
let with_mixing c =
  let n = Circuit.num_qubits c in
  let rs = Random.State.make [| 0x5EED |] in
  let qs = List.init n Fun.id in
  let angle () = Random.State.float rs 3. in
  let rot c =
    List.fold_left
      (fun c q -> Circuit.(c |> ry (angle ()) q |> rz (angle ()) q))
      c qs
  in
  let mix c =
    rot
      (List.fold_left (fun c q -> Circuit.cx (q - 1) q c) (rot c) (List.tl qs))
  in
  mix
    (List.fold_left
       (fun acc instr ->
         match instr with
         | Circuit.Instr.Tracepoint _ -> Circuit.add instr (mix acc)
         | _ -> Circuit.add instr acc)
       (Circuit.empty ~clbits:(Circuit.num_clbits c) n)
       (Circuit.instrs c))

let characterize_repeats_exact ?pool circ =
  let full = Gen.build circ in
  let pure = pure_part circ in
  let n = Circuit.num_qubits full in
  let k = min 2 n in
  let trajectories = 3 in
  (* planted repeats: a copy (equal bits, another value) and a conjugate
     (equal real parts, other bits) *)
  let explicit =
    let draw seed =
      Clifford.Sampling.state (Stats.Rng.make seed) Clifford.Sampling.Clifford
        k ~index:0
    in
    let a = draw 17 and b = draw 18 in
    [ a; b; Qstate.Statevec.copy a; conjugate a; a; b ]
  in
  (* random states, one more distinct than the 2^k basis states, and a
     planted copy *)
  let random =
    let rng = Stats.Rng.make 23 in
    let draws =
      List.init ((1 lsl k) + 1) (fun index ->
          Clifford.Sampling.state rng Clifford.Sampling.Haar k ~index)
    in
    draws @ [ Qstate.Statevec.copy (List.hd draws) ]
  in
  (* One characterization of [c] over [inputs] (explicit, or else
     3*2^k+1 basis inputs): sample [i] must hold its input, and its exact
     traces must match [reference program rngs.(i) input], a run that
     shares nothing ([rngs] being the per-sample generators the run
     derives: inputs drawn first, then one split child per sample); under
     [Exact] and [Tomography] the meter must equal the sum of single-input
     runs' meters. Traces match in their bits, except on a run the
     linearity rule takes: there each is within 1e-12 of its reference,
     samples with equal inputs hold bit-identical traces, and the run
     spends the MACs of exactly 2^k basis columns. *)
  let check ?noise ?cache ?wall ?(input_qubits = List.init k Fun.id) ~engine
      ~reference c inputs =
    let program = Morphcore.Program.make ~input_qubits c in
    let count = (3 lsl k) + 1 in
    let run ?inputs mode =
      Morphcore.Characterize.run ?pool ~rng:(Stats.Rng.make 99)
        ~kind:Clifford.Sampling.Basis ~mode ?noise ~trajectories ~engine
        ?inputs ?cache:(Option.map (fun make -> make ()) cache) ?wall program
        ~count
    in
    let rng = Stats.Rng.make 99 in
    let states =
      match inputs with
      | Some l -> Array.of_list l
      | None ->
          Array.init count (fun index ->
              Clifford.Sampling.state rng Clifford.Sampling.Basis k ~index)
    in
    let rngs = Array.init (Array.length states) (Stats.Rng.split rng) in
    let linear =
      engine <> `Sequential && cache = None && noise = None
      && Sim.Engine.is_deterministic c
      && spans_basis program ~distinct:(count_distinct (Array.to_list states))
    in
    let meter_matches (ch : Morphcore.Characterize.t) mode =
      let sum = Sim.Cost.create () in
      Array.iter
        (fun st ->
          Sim.Cost.add sum (run ~inputs:[ st ] mode).Morphcore.Characterize.cost)
        states;
      costs_equal ch.Morphcore.Characterize.cost sum
    in
    let was = Obs.enabled () in
    let exact, macs =
      Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
      Obs.configure ~enabled:true;
      let macs () =
        Option.value ~default:0
          (Obs.Metrics.counter_value "batch_gemm_macs_total")
      in
      let m0 = macs () in
      let exact = run ?inputs Morphcore.Characterize.Exact in
      (exact, macs () - m0)
    in
    let samples = exact.Morphcore.Characterize.samples in
    let tomography =
      Morphcore.Characterize.Tomography { shots = 16; project = false }
    in
    let same_input i j =
      floats_exact states.(i).Qstate.Statevec.re states.(j).Qstate.Statevec.re
      && floats_exact states.(i).Qstate.Statevec.im
           states.(j).Qstate.Statevec.im
    in
    let indices = Array.init (Array.length states) Fun.id in
    Array.length samples = Array.length states
    && Array.for_all
         (fun i ->
           let s = samples.(i) and st = states.(i) in
           let got = s.Morphcore.Characterize.input_state in
           let traces = s.Morphcore.Characterize.traces in
           let reference = reference program rngs.(i) st in
           floats_exact got.Qstate.Statevec.re st.Qstate.Statevec.re
           && floats_exact got.Qstate.Statevec.im st.Qstate.Statevec.im
           && cmat_exact s.Morphcore.Characterize.input_dm (input_density st)
           &&
           if linear then
             traces_within 1e-12 traces reference
             && Array.for_all
                  (fun j ->
                    (not (same_input i j))
                    || traces_exact traces
                         samples.(j).Morphcore.Characterize.traces)
                  indices
           else traces_exact traces reference)
         indices
    && ((not linear)
       || macs
          = (1 lsl k)
            * Sim.Batch.column_macs
                (traced_prefix (Transpile.Segments.compile c)))
    && meter_matches exact Morphcore.Characterize.Exact
    && meter_matches (run ?inputs tomography) tomography
  in
  let with_input st traces = (0, input_density st) :: traces in
  let sequential ?noise program rng st =
    Morphcore.Program.run_traces ?noise ~trajectories ~rng program ~input:st
  in
  let batched plan program rng st =
    let embedded = Morphcore.Program.embed program st in
    with_input st
      (if Sim.Batch.is_deterministic plan then
         (Sim.Batch.run_seq plan embedded).Sim.Engine.traces
       else
         Array.init trajectories (fun j ->
             (Sim.Batch.run_seq ~rng:(Stats.Rng.split rng j) plan embedded)
               .Sim.Engine.traces)
         |> Sim.Engine.average_traces trajectories)
  in
  let units c program _ st =
    with_input st
      (List.map
         (fun (cone : Analysis.Lightcone.cone) ->
           let u =
             Cache.Canon.cone_unit c
               ~input_qubits:program.Morphcore.Program.input_qubits cone
           in
           let id = cone.Analysis.Lightcone.id in
           let out =
             Sim.Engine.run
               ~initial:
                 (Qstate.Statevec.embed u.Cache.Canon.width u.Cache.Canon.embed st)
               u.Cache.Canon.circuit
           in
           (id, List.assoc id out.Sim.Engine.traces))
         (Analysis.Lightcone.cones c))
  in
  let routed route c program _ st =
    let prep =
      Qstate.Statevec.embed_index
        (Array.of_list program.Morphcore.Program.input_qubits)
        (basis_of st)
    in
    with_input st (Sim.Engine.cone_traces ~prep route c)
  in
  let both f = f (Some explicit) && f None in
  let plan c = batched (Transpile.Segments.compile c) in
  (* random states on the top qubits, highest first, so a basis state's
     embedding is not its index: on the pure part as it is, and with
     mixing layers the linearity rule takes *)
  let linear c =
    let input_qubits = List.init k (fun j -> n - 1 - j) in
    List.for_all
      (fun engine ->
        check ~input_qubits ~engine ~reference:(plan c) c (Some random))
      [ `Batched; `Auto ]
  in
  (* pure: every decision shares *)
  both (check ~engine:`Batched ~reference:(plan pure) pure)
  && both (check ~engine:`Sequential ~reference:(sequential ?noise:None) pure)
  && both
       (check ~cache:Cache.create ~engine:`Auto ~reference:(units pure) pure)
  && (match Sim.Engine.auto_route ~wall:0. pure with
     | Some route ->
         check ~wall:0. ~engine:`Auto ~reference:(routed route pure) pure None
     | None -> true)
  && linear pure
  && linear (with_mixing pure)
  (* impure — noise, or a measurement, reset or feedback: nothing shares *)
  && both
       (check ~noise:Sim.Noise.ibm_cairo ~engine:`Sequential
          ~reference:(sequential ~noise:Sim.Noise.ibm_cairo)
          pure)
  && (Sim.Engine.is_deterministic full
     || both (check ~engine:`Sequential ~reference:(sequential ?noise:None) full)
        && both (check ~engine:`Batched ~reference:(plan full) full))

(* ------------- norm guarantees: the bounds validation decides by ------------- *)

let norm_bounds_sound circ =
  let module V = Morphcore.Verify in
  let module P = Morphcore.Predicate in
  let full = Gen.build circ in
  let k = min 2 (Circuit.num_qubits full) in
  let full_count = 2 lsl k in
  let input_qubits = List.init k Fun.id in
  let tps = Circuit.tracepoints full in
  (* two trailing tracepoints on the input qubits: equal on every input,
     but read apart by tomography *)
  let p1 = 1 + List.fold_left (fun m (id, _) -> max m id) 0 tps in
  let p2 = p1 + 1 in
  let plant c =
    Circuit.(c |> tracepoint p1 input_qubits |> tracepoint p2 input_qubits)
  in
  let pair =
    List.find_map
      (fun (a, qa) ->
        List.find_map
          (fun (b, qb) ->
            if a < b && List.length qa = List.length qb then Some (a, b)
            else None)
          tps)
      tps
  in
  let assertions =
    [
      Morphcore.Assertion.make ~assumes:[] ~guarantees:[ P.Equals (p1, p2) ] ();
      Morphcore.Assertion.make ~assumes:[ P.Is_pure 0 ]
        ~guarantees:[ P.Equals (0, p1) ] ();
    ]
    @
    match pair with
    | Some (a, b) ->
        [
          Morphcore.Assertion.make
            ~assumes:[ P.Purity_ge (p1, 0.9) ]
            ~guarantees:[ P.Distance_le (a, b, 0.3); P.Equals (p1, p2) ]
            ();
        ]
    | None -> []
  in
  let slack = 1e-9 in
  let methods = [| `Qp; `Adam; `Anneal; `Genetic |] in
  let sound ~pure c (m, kind, mode, count) =
    let program = Morphcore.Program.make ~input_qubits (plant c) in
    let ch =
      Morphcore.Characterize.run ~rng:(Stats.Rng.make 31) ~kind ~mode program
        ~count
    in
    let approx = Morphcore.Approx.of_characterization ch in
    let n = Morphcore.Approx.n_sample approx in
    let samples = ch.Morphcore.Characterize.samples in
    let sample_value assertion (s : Morphcore.Characterize.sample) =
      Reference.guarantee_objective assertion (fun tp ->
          List.assoc tp s.Morphcore.Characterize.traces)
    in
    List.for_all
      (fun (j, assertion) ->
        match V.norm_bound approx assertion with
        | None -> false
        | Some bound ->
            let ev = V.evaluator approx assertion in
            let below x = ev.V.objective x <= bound +. slack in
            (* (a) random alphas and a solver's end point, the method
               turning over the assertions and modes *)
            let rs = Stats.Rng.make 7 in
            let problem =
              {
                Optimize.Constrained.objective =
                  Optimize.Objective.make ~dim:n ev.V.objective;
                constraints = ev.V.constraints;
              }
            in
            List.for_all below
              (List.init 8 (fun _ ->
                   Array.init n (fun _ -> Stats.Rng.uniform rs (-1.) 1.)))
            && below
                 (Optimize.Constrained.maximize ~budget:100 ~rounds:1
                    ~method_:methods.((j + m) mod Array.length methods)
                    rs problem)
                   .Optimize.Constrained.x
            (* (b) exact samples of the pure part are inputs the bound
               covers. With fewer samples than the input dimension the
               bound can be tight, and the ridge's 1e-9 relative
               shrinkage of a sample's own coefficients then exceeds the
               slack, so (b) reads the full count only. *)
            && ((not
                   (pure && mode = Morphcore.Characterize.Exact
                  && count = full_count))
               || Array.for_all
                    (fun s -> sample_value assertion s <= bound +. slack)
                    samples)
            (* (c) a sample verdict is a real violation of the program *)
            && ((not pure)
               ||
               let by_sample () =
                 Option.value ~default:0
                   (Obs.Metrics.counter_value ~labels:[ ("by", "sample") ]
                      "verify_decided_total")
               in
               let before = by_sample () in
               let options =
                 { V.default_options with budget = 300; restarts = 1 }
               in
               match
                 V.validate ~options ~rng:(Stats.Rng.make 3) ~confirm:program
                   approx assertion
               with
               | _ when by_sample () = before -> true
               | V.Verified _ -> false
               | V.Violated { alpha; objective; _ } -> (
                   match
                     List.filter (fun i -> alpha.(i) <> 0.) (List.init n Fun.id)
                   with
                   | [ i ] ->
                       let s = samples.(i) in
                       alpha.(i) = 1.
                       && objective > V.epsilon_obj
                       && float_exact objective (sample_value assertion s)
                       && not
                            (V.check_on_program ~rng:(Stats.Rng.make 5)
                               ~tol:0.02 program assertion
                               ~input:s.Morphcore.Characterize.input_state)
                   | _ -> false)))
      (List.mapi (fun j a -> (j, a)) assertions)
  in
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  (* Haar inputs can be nearly dependent, where the least-squares map
     amplifies: a bound that leaves it out fails there. Fewer samples
     than the input dimension put the evaluator in range coordinates. *)
  let modes =
    [
      (0, Clifford.Sampling.Clifford, Morphcore.Characterize.Exact, full_count);
      ( 1,
        Clifford.Sampling.Clifford,
        Morphcore.Characterize.Tomography { shots = 64; project = true },
        full_count );
      (2, Clifford.Sampling.Haar, Morphcore.Characterize.Exact, full_count);
      (3, Clifford.Sampling.Haar, Morphcore.Characterize.Exact, (1 lsl k) - 1);
    ]
  in
  List.for_all (sound ~pure:true (pure_part circ)) modes
  && (Sim.Engine.is_deterministic full
     || List.for_all (sound ~pure:false full) modes)
