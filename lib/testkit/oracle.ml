let eps = 1e-9

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
