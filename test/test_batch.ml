(* Segment compiler + batched execution engine (DESIGN.md §9).

   Property layer: the compiled/batched path against the gate-by-gate
   engine (1e-9, clbits exact), the batch determinism contract (packed run
   bit-identical to per-column runs), and Characterize's engines against
   each other. Unit layer: fusion counts on the fig5 teleport workload,
   cutoff edge cases, domain-count invariance, and the broken-fence
   shrinker smoke check. *)

open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

(* ---------------- properties ---------------- *)

let prop_batch_vs_engine_pure =
  QCheck.Test.make ~name:"batch ~ engine (pure)" ~count (Gen.pure ())
    Oracle.batch_vs_engine

let prop_batch_vs_engine_clifford =
  QCheck.Test.make ~name:"batch ~ engine (clifford)" ~count (Gen.clifford ())
    Oracle.batch_vs_engine

let prop_batch_vs_engine_program =
  QCheck.Test.make ~name:"batch ~ engine (programs)" ~count (Gen.program ())
    Oracle.batch_vs_engine

let prop_batch_vs_engine_packed =
  QCheck.Test.make ~name:"batch ~ engine (tiny cutoffs force packing)" ~count
    (Gen.program ())
    Oracle.batch_vs_engine_packed

let prop_batch_bit_identical =
  QCheck.Test.make ~name:"packed batch bit-identical to per-column runs"
    ~count (Gen.program ())
    Oracle.batch_bit_identical

let prop_batch_fences_exact =
  QCheck.Test.make ~name:"unfused batch plan = engine (programs)" ~count
    (Gen.program ())
    (fun circ -> Oracle.batch_fences_exact (Gen.build circ))

let prop_characterize_engines =
  (* each case runs two full characterizations with trajectories: keep the
     circuits small and the case count moderate *)
  QCheck.Test.make ~name:"characterize batched ~ sequential"
    ~count:(max 10 (count / 5))
    (Gen.program ~max_qubits:3 ())
    Oracle.characterize_engines_agree

(* ---------------- shrinker smoke check ----------------

   Delay every tracepoint fence past the following operator — a broken
   segmentation — and demand the QCheck shrinker walks the failure down to
   the minimal counterexample: a tracepoint followed by one state-changing
   gate on a single qubit. *)

let test_broken_fence_shrinks () =
  let cell =
    QCheck.Test.make_cell ~name:"deliberately broken segment fence" ~count:500
      (Gen.pure ())
      Oracle.batch_fence_respected
  in
  let result = QCheck.Test.check_cell ~rand:(Config.rand ()) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = { instance; shrink_steps; _ } :: _ }
    ->
      let c = Gen.build instance in
      if shrink_steps = 0 then
        Alcotest.fail "counterexample was reported without any shrinking";
      Alcotest.(check int) "shrunk to one qubit" 1 (Circuit.num_qubits c);
      Alcotest.(check int) "shrunk to a single gate" 1 (Circuit.gate_count c);
      (match Circuit.instrs c with
      | [ Circuit.Instr.Tracepoint _; Circuit.Instr.Gate _ ] -> ()
      | _ ->
          Alcotest.failf "expected [tracepoint; gate], got:\n%s"
            (Gen.print_circ instance))
  | _ -> Alcotest.fail "broken segment fence was not caught at all"

(* ---------------- unit tests ---------------- *)

let check_float ~eps msg a b =
  if Float.abs (a -. b) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* fig5 workload: 3-qubit payload teleportation = 12 unitary gates between
   feedback fences, fused into 3 per-hop blocks — a 4x reduction in
   operator applications per sample *)
let test_teleport_fusion_counts () =
  let c = Benchmarks.Teleport.multi 3 in
  let plan = Transpile.Segments.compile c in
  Alcotest.(check int) "source gate applications" 12
    plan.Sim.Batch.source_ops;
  Alcotest.(check int) "fused operator applications" 3 (Sim.Batch.ops plan);
  if plan.Sim.Batch.source_ops < 2 * Sim.Batch.ops plan then
    Alcotest.fail "fig5 fusion ratio below 2x"

let ghz n =
  List.fold_left
    (fun c q -> Circuit.cx q (q + 1) c)
    (Circuit.(empty n |> h 0))
    (List.init (n - 1) (fun q -> q))

let test_cutoff_extremes () =
  let c = Circuit.tracepoint 1 [ 0; 1; 2 ] (ghz 3) in
  List.iter
    (fun (cutoff, block_cutoff) ->
      let plan = Transpile.Segments.compile ~cutoff ~block_cutoff c in
      let eng = Sim.Engine.run c in
      let bat = Sim.Batch.run_seq plan (Qstate.Statevec.zero 3) in
      if not (Qstate.Statevec.equal ~eps:1e-12 eng.Sim.Engine.state bat.Sim.Engine.state)
      then Alcotest.failf "cutoff %d/%d: final state mismatch" cutoff block_cutoff;
      if not (Oracle.traces_match eng.Sim.Engine.traces bat.Sim.Engine.traces)
      then Alcotest.failf "cutoff %d/%d: trace mismatch" cutoff block_cutoff)
    [ (1, 1); (2, 2); (6, 3); (26, 26) ];
  (* cutoff 1 + block_cutoff 1 cannot fuse across the cx gates: the h
     becomes a 1q block and each cx a Direct item *)
  let plan = Transpile.Segments.compile ~cutoff:1 ~block_cutoff:1 c in
  Alcotest.(check int) "no fusion at cutoff 1" 3 (Sim.Batch.ops plan)

let test_direct_wide_gate () =
  (* a 4-control Toffoli exceeds block_cutoff: compiled as a Direct item,
     and still agrees with the engine *)
  let c =
    Circuit.(
      empty 5 |> h 0 |> h 1 |> h 2 |> h 3 |> mcx [ 0; 1; 2; 3 ] 4
      |> tracepoint 1 [ 4 ])
  in
  let plan = Transpile.Segments.compile ~cutoff:3 ~block_cutoff:3 c in
  let has_direct =
    List.exists
      (function Sim.Batch.Direct _ -> true | _ -> false)
      plan.Sim.Batch.items
  in
  Alcotest.(check bool) "wide gate stays direct" true has_direct;
  let eng = Sim.Engine.run c in
  let bat = Sim.Batch.run_seq plan (Qstate.Statevec.zero 5) in
  Alcotest.(check bool) "traces agree" true
    (Oracle.traces_match eng.Sim.Engine.traces bat.Sim.Engine.traces)

let test_domain_count_invariance () =
  (* the stochastic teleport workload, batch-executed under 1, 2 and 4
     domains at column counts below, at and past one 16-column tile, so
     that every pool runs the batch on all its domains: outcomes must be
     bit-identical, and so must the work counters of a 16-column batch *)
  let plan = Transpile.Segments.compile (Benchmarks.Teleport.multi 2) in
  let state i =
    let rng = Stats.Rng.make (300 + i) in
    let d = 1 lsl 6 in
    let re = Array.init d (fun _ -> Stats.Rng.float rng 2. -. 1.) in
    let im = Array.init d (fun _ -> Stats.Rng.float rng 2. -. 1.) in
    let st = Qstate.Statevec.of_cvec 6 (Linalg.Cvec.of_arrays re im) in
    Qstate.Statevec.normalize st;
    st
  in
  let run ~cols domains =
    let states = Array.init cols state in
    let pool = Parallel.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        let rngs = Array.init cols (fun i -> Stats.Rng.make (900 + i)) in
        Sim.Batch.run ~pool ~rngs plan states)
  in
  let bits a = Array.map Int64.bits_of_float a in
  let same_cmat a b =
    bits a.Linalg.Cmat.re = bits b.Linalg.Cmat.re
    && bits a.Linalg.Cmat.im = bits b.Linalg.Cmat.im
  in
  List.iter
    (fun cols ->
      let reference = run ~cols 1 in
      List.iter
        (fun domains ->
          let out = run ~cols domains in
          Array.iteri
            (fun i (o : Sim.Engine.outcome) ->
              let r = reference.(i) in
              if
                o.Sim.Engine.clbits <> r.Sim.Engine.clbits
                || bits o.Sim.Engine.state.Qstate.Statevec.re
                   <> bits r.Sim.Engine.state.Qstate.Statevec.re
                || bits o.Sim.Engine.state.Qstate.Statevec.im
                   <> bits r.Sim.Engine.state.Qstate.Statevec.im
                || List.map fst o.Sim.Engine.traces
                   <> List.map fst r.Sim.Engine.traces
                || not
                     (List.for_all2
                        (fun (_, a) (_, b) -> same_cmat a b)
                        o.Sim.Engine.traces r.Sim.Engine.traces)
              then
                Alcotest.failf "cols=%d domains=%d: column %d diverged" cols
                  domains i)
            out)
        [ 2; 4 ])
    [ 1; 9; 16; 17; 33 ];
  let counters domains =
    Obs.configure ~enabled:true;
    Obs.Metrics.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.reset ();
        Obs.configure ~enabled:false)
      (fun () ->
        ignore (run ~cols:16 domains);
        Obs.Metrics.snapshot ())
  in
  let base = counters 1 in
  Alcotest.(check bool) "batch work counted" true (base <> []);
  List.iter
    (fun domains ->
      if counters domains <> base then
        Alcotest.failf "16-column counters differ between 1 and %d domains"
          domains)
    [ 2; 4 ]

(* segment by segment: each column's state at each tracepoint reduces
   bit for bit to the trace its own [run_seq] records, in plan order,
   under one and two domains; a plan that measures is refused *)
let test_iter_tracepoints () =
  let c =
    Circuit.(
      empty 4 |> h 0 |> t_gate 0 |> cx 0 1 |> ry 0.3 2 |> tracepoint 1 [ 1; 2 ]
      |> cp 0.7 1 3 |> rx 0.2 3 |> tracepoint 2 [ 3 ] |> tracepoint 3 [ 0; 3 ]
      |> h 2)
  in
  let plan = Transpile.Segments.compile c in
  let column i =
    Clifford.Sampling.state (Stats.Rng.make 8) Clifford.Sampling.Haar 4 ~index:i
  in
  let bits (m : Linalg.Cmat.t) =
    Array.map Int64.bits_of_float
      (Array.append m.Linalg.Cmat.re m.Linalg.Cmat.im)
  in
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      let seen = ref [] in
      Sim.Batch.iter_tracepoints ~pool plan ~count:5 ~init:column
        (fun id qubits states ->
          let rhos =
            Array.map
              (fun st -> Qstate.Statevec.reduced_density st qubits)
              states
          in
          seen := (id, rhos) :: !seen);
      let seen = List.rev !seen in
      Alcotest.(check (list int)) "tracepoints in plan order" [ 1; 2; 3 ]
        (List.map fst seen);
      for i = 0 to 4 do
        let reference = (Sim.Batch.run_seq plan (column i)).Sim.Engine.traces in
        List.iter
          (fun (id, rhos) ->
            if bits rhos.(i) <> bits (List.assoc id reference) then
              Alcotest.failf "domains=%d column %d tracepoint %d diverged"
                domains i id)
          seen
      done)
    [ 1; 2 ];
  let measured =
    Transpile.Segments.compile
      Circuit.(empty ~clbits:1 1 |> h 0 |> measure 0 0 |> tracepoint 1 [ 0 ])
  in
  Alcotest.check_raises "stochastic plan"
    (Invalid_argument
       "Batch.iter_tracepoints: plan measures, resets or feeds back")
    (fun () ->
      Sim.Batch.iter_tracepoints measured ~count:1
        ~init:(fun _ -> Qstate.Statevec.zero 1)
        (fun _ _ _ -> ()))

let test_trace_only_circuit () =
  let c = Circuit.(empty 2 |> tracepoint 1 [ 0; 1 ]) in
  let plan = Transpile.Segments.compile c in
  Alcotest.(check int) "no operators" 0 (Sim.Batch.ops plan);
  let traces =
    Sim.Batch.run_traces plan ~count:3 ~init:(fun i ->
        Qstate.Statevec.basis 2 i)
  in
  Array.iteri
    (fun i trace ->
      match trace with
      | [ (1, rho) ] ->
          check_float ~eps:1e-12 "basis diagonal" 1.
            (Linalg.Cx.re (Linalg.Cmat.get rho i i))
      | _ -> Alcotest.fail "expected exactly tracepoint 1")
    traces

(* a swap under feedback, which the generator never emits (the measured
   bit is always 1, so the swap runs): the fence runs the engine's swap,
   so the unfused plan still equals the engine *)
let test_feedback_swap_exact () =
  let c =
    Circuit.(
      empty ~clbits:1 3 |> x 0 |> h 1 |> t_gate 1 |> measure 0 0
      |> if_gate [ 0 ] 1 (Gate.make "swap" [ 1; 2 ])
      |> tracepoint 1 [ 1; 2 ])
  in
  Alcotest.(check bool) "unfused plan = engine" true
    (Oracle.batch_fences_exact c)

let test_raw_gate_fence_rejected () =
  let plan =
    {
      Sim.Batch.num_qubits = 1;
      num_clbits = 0;
      items = [ Sim.Batch.Fence (Circuit.Instr.Gate (Circuit.Gate.make "h" [ 0 ])) ];
      source_ops = 0;
    }
  in
  Alcotest.check_raises "raw gate fence"
    (Invalid_argument "Batch: raw gate used as a fence") (fun () ->
      ignore (Sim.Batch.run_seq plan (Qstate.Statevec.zero 1)))

let test_batched_rejects_noise () =
  let program = Morphcore.Program.make (ghz 2) in
  Alcotest.check_raises "batched engine requires ideal noise"
    (Invalid_argument "Characterize.run: batched engine requires ideal noise")
    (fun () ->
      ignore
        (Morphcore.Characterize.run ~engine:`Batched
           ~noise:(Sim.Noise.make ~p1:0.01 ()) program ~count:2))

let test_probe_accuracies_batched () =
  (* deterministic program: probe_accuracies takes the segment-compiled
     batch path; it must reproduce the interleaved sequential computation
     (same generator stream, truths within fusion rounding) *)
  let c = Circuit.tracepoint 1 [ 0; 1; 2 ] (ghz 3) in
  let program = Morphcore.Program.make c in
  let ch =
    Morphcore.Characterize.run ~rng:(Stats.Rng.make 5) ~kind:Haar program
      ~count:12
  in
  let approx = Morphcore.Approx.of_characterization ch in
  let accs =
    Morphcore.Verify.probe_accuracies ~rng:(Stats.Rng.make 6) ~count:5 approx
      program ~tracepoint:1
  in
  Alcotest.(check int) "probe count" 5 (Array.length accs);
  let rng = Stats.Rng.make 6 in
  let expected =
    Array.init 5 (fun _ ->
        let input = Clifford.Sampling.haar_state rng 3 in
        let truth =
          List.assoc 1 (Morphcore.Program.run_traces ~rng program ~input)
        in
        let v = Qstate.Statevec.to_cvec input in
        Morphcore.Approx.accuracy
          (Morphcore.Approx.state_at approx ~tracepoint:1
             (Linalg.Cmat.outer v v))
          truth)
  in
  Array.iteri
    (fun i a -> check_float ~eps:1e-9 "probe accuracy" expected.(i) a)
    accs

let () =
  Config.announce ();
  Alcotest.run "batch"
    [
      ( "properties",
        List.map qtest
          [
            prop_batch_vs_engine_pure;
            prop_batch_vs_engine_clifford;
            prop_batch_vs_engine_program;
            prop_batch_vs_engine_packed;
            prop_batch_bit_identical;
            prop_batch_fences_exact;
            prop_characterize_engines;
          ] );
      ( "shrinking",
        [
          ( "broken segment fence shrinks to minimal circuit",
            `Quick,
            test_broken_fence_shrinks );
        ] );
      ( "units",
        [
          ("fig5 teleport fusion counts", `Quick, test_teleport_fusion_counts);
          ("cutoff extremes match engine", `Quick, test_cutoff_extremes);
          ("wide gate compiled as direct", `Quick, test_direct_wide_gate);
          ("domain-count invariance", `Quick, test_domain_count_invariance);
          ("trace-only circuit", `Quick, test_trace_only_circuit);
          ( "tracepoint states segment by segment",
            `Quick,
            test_iter_tracepoints );
          ("feedback swap: unfused plan = engine", `Quick, test_feedback_swap_exact);
          ("raw gate fence rejected", `Quick, test_raw_gate_fence_rejected);
          ("batched engine rejects noise", `Quick, test_batched_rejects_noise);
          ("probe_accuracies batched path", `Quick, test_probe_accuracies_batched);
        ] );
    ]
