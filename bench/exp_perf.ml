(* perf: multicore scaling of the execution substrate (not a paper figure).

   Workload 1 — the fig14-style kernel at scale: a 10-qubit noisy random
   circuit whose tracepoint states are averaged over independent
   trajectories. This is the embarrassingly-parallel hot path of
   characterization; it is run with 1, 2 and 4 domains, checked for
   bit-identical outputs (the deterministic-parallelism contract), and the
   speedup vs the sequential baseline is recorded in BENCH_results.json.

   Workload 2 — small-n regression guard: the 3-qubit quantum-lock
   characterization, timed with 1 and 4 domains; small workloads must not
   slow down when a pool is available.

   Workload 3 — segment compilation + batched characterization on the fig5
   workload (3-payload teleportation, 256 samples): the segment compiler's
   fused operator count vs the source gate count, and [Characterize.run]
   under [`Batched] vs [`Sequential], checked for trace agreement and
   recorded with the per-sample operator-application reduction.

   Workload 4 — a sequential distribution verdict: an 8-qubit GHZ
   assertion under an SPRT shot budget against its fixed-budget run. *)

open Morphcore

let frob_diff a b = Linalg.Cmat.frob_norm (Linalg.Cmat.sub a b)

let traces_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ia, ma) (ib, mb) -> ia = ib && frob_diff ma mb = 0.)
       a b

let run () =
  Util.header "perf: multicore scaling of the trajectory engine";
  let cores = Domain.recommended_domain_count () in
  Util.row "host parallelism: %d recommended domain(s)%s" cores
    (if cores < 4 then "  [speedups are bounded by the host core count]"
     else "");

  (* ---- workload 1: noisy trajectory fan-out, 10 qubits ---- *)
  let n = 10 in
  let circuit =
    (* Xeb.make puts tracepoints on the full register; re-point them at a
       4-qubit slice so the per-trajectory density matrices stay small and
       the workload is dominated by gate application, not state readout *)
    let base = Benchmarks.Xeb.make (Stats.Rng.make 4242) ~n ~depth:8 in
    List.fold_left
      (fun c i ->
        match i with
        | Circuit.Instr.Tracepoint { id; _ } ->
            Circuit.tracepoint id [ 0; 1; 2; 3 ] c
        | i -> Circuit.add i c)
      (Circuit.empty n) (Circuit.instrs base)
  in
  let noise = Sim.Noise.ibm_cairo in
  let trajectories = 32 in
  let run_with pool =
    Sim.Engine.tracepoint_states ~pool ~rng:(Stats.Rng.make 7) ~noise
      ~trajectories circuit
  in
  let time_domains d =
    let pool = Parallel.Pool.create ~domains:d () in
    let r =
      Util.timed_samples
        ~name:(Printf.sprintf "perf.noisy-traj.domains=%d" d)
        (fun () -> run_with pool)
    in
    Parallel.Pool.shutdown pool;
    r
  in
  let base_traces, t1, reps1 = time_domains 1 in
  Util.row "noisy-traj 10q x%d   domains=1   %7.3fs   (sequential baseline)"
    trajectories t1;
  Util.record "perf/noisy-traj-10q/domains=1" ~seconds:t1 ~samples:reps1
    ~speedup:1.0 ~domains:1 ();
  List.iter
    (fun d ->
      let traces, td, repsd = time_domains d in
      if not (traces_equal base_traces traces) then
        failwith "perf: parallel trajectories diverged from sequential run";
      let speedup = t1 /. td in
      Util.row
        "noisy-traj 10q x%d   domains=%d   %7.3fs   speedup %.2fx   bit-identical: yes"
        trajectories d td speedup;
      Util.record
        (Printf.sprintf "perf/noisy-traj-10q/domains=%d" d)
        ~seconds:td ~samples:repsd ~speedup ~domains:d ())
    [ 2; 4 ];

  (* ---- workload 2: small-n characterization must not regress ---- *)
  let lock = Benchmarks.Quantum_lock.make ~key:1 3 in
  let program =
    Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
      lock.Benchmarks.Quantum_lock.circuit
  in
  let characterize d =
    let pool = Parallel.Pool.create ~domains:d () in
    let r =
      Util.timed_samples
        ~name:(Printf.sprintf "perf.characterize-lock.domains=%d" d)
        (fun () ->
          Characterize.run ~pool ~rng:(Stats.Rng.make 11) ~noise
            ~trajectories:16 program ~count:16)
    in
    Parallel.Pool.shutdown pool;
    r
  in
  let _, s1, reps_s1 = characterize 1 in
  let _, s4, reps_s4 = characterize 4 in
  Util.row "characterize 3q lock   domains=1 %.3fs   domains=4 %.3fs" s1 s4;
  Util.record "perf/characterize-lock-3q/domains=1" ~seconds:s1
    ~samples:reps_s1 ~speedup:1.0 ~domains:1 ();
  Util.record "perf/characterize-lock-3q/domains=4" ~seconds:s4
    ~samples:reps_s4 ~speedup:(s1 /. s4) ~domains:4 ();

  (* ---- workload 3: batched vs sequential characterization (fig5) ---- *)
  let hops = 3 in
  let teleport = Benchmarks.Teleport.multi hops in
  let plan = Transpile.Segments.compile teleport in
  let ops_before = plan.Sim.Batch.source_ops in
  let ops_after = Sim.Batch.ops plan in
  Util.row "segments: teleport x%d   %d gates -> %d fused operators (%.1fx)"
    hops ops_before ops_after
    (float_of_int ops_before /. float_of_int (max 1 ops_after));
  let program =
    Program.make
      ~input_qubits:(Benchmarks.Teleport.input_qubits hops)
      teleport
  in
  let samples = 256 in
  let characterize_engine name engine =
    let pool = Parallel.Pool.create ~domains:1 () in
    let r =
      Util.timed_samples ~name (fun () ->
          Characterize.run ~pool ~rng:(Stats.Rng.make 21) ~trajectories:8
            ~engine program ~count:samples)
    in
    Parallel.Pool.shutdown pool;
    r
  in
  let seq, t_seq, reps_seq =
    characterize_engine "perf.characterize.sequential" `Sequential
  in
  let bat, t_bat, reps_bat =
    characterize_engine "perf.characterize.batched" `Batched
  in
  Array.iter2
    (fun (a : Characterize.sample) (b : Characterize.sample) ->
      let ta = a.Characterize.traces and tb = b.Characterize.traces in
      if
        not
          (List.length ta = List.length tb
          && List.for_all2
               (fun (ia, ma) (ib, mb) -> ia = ib && frob_diff ma mb <= 1e-9)
               ta tb)
      then failwith "perf: batched characterization diverged from sequential")
    seq.Characterize.samples bat.Characterize.samples;
  Util.row
    "characterize teleport x%d n=%d   sequential %7.3fs   batched %7.3fs (%.2fx)   traces agree: yes"
    hops samples t_seq t_bat (t_seq /. t_bat);
  Util.record "perf/characterize-teleport-fig5/sequential" ~seconds:t_seq
    ~samples:reps_seq ~speedup:1.0 ~ops:(ops_before, ops_before) ~domains:1 ();
  Util.record "perf/characterize-teleport-fig5/batched" ~seconds:t_bat
    ~samples:reps_bat ~speedup:(t_seq /. t_bat)
    ~ops:(ops_before, ops_after)
    ~domains:1 ();

  (* ---- workload 4: sequential distribution verdict (SPRT early stop) ----
     An 8-qubit GHZ distribution assertion under a sequential shot budget:
     the SPRT must accept well before the 4096-shot cap, so this row's
     counter deltas prove [verify_shots_saved_total > 0] on a bench
     workload — the regression gate then pins the saving exactly. The
     fixed-budget run of the same assertion is timed as the baseline. *)
  let n5 = 8 in
  let ghz =
    let c = ref Circuit.(empty n5 |> h 0) in
    for q = 0 to n5 - 2 do
      c := Circuit.cx q (q + 1) !c
    done;
    !c
  in
  let ghz_prog = Program.make ghz in
  let dist = Assertion.Dist.make [ (0, 0.5); ((1 lsl n5) - 1, 0.5) ] in
  let input = Qstate.Statevec.basis n5 0 in
  let cap = 4096 in
  let check budget seed =
    Verify.check_counts ~budget ~rng:(Stats.Rng.make seed) ghz_prog dist ~input
  in
  let _, t_fixed, _ =
    Util.timed_samples ~name:"perf.seq-verify.fixed" (fun () ->
        check (`Fixed cap) 51)
  in
  let r5, t_seq5, reps_seq5 =
    Util.timed_samples ~name:"perf.seq-verify.sequential" (fun () ->
        check
          (`Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = cap })
          51)
  in
  if not (r5.Verify.counts_hold && r5.Verify.early_stop) then
    failwith "perf: sequential verify did not stop early on the GHZ assertion";
  Util.row
    "seq-verify ghz-%dq   fixed %d shots %7.3fs   sequential %d shots %7.3fs (%.1fx fewer shots)"
    n5 cap t_fixed r5.Verify.shots_used t_seq5
    (float_of_int cap /. float_of_int (max 1 r5.Verify.shots_used));
  Util.record "perf/seq-verify-ghz8" ~seconds:t_seq5 ~samples:reps_seq5
    ~speedup:(t_fixed /. t_seq5) ~domains:1 ()

(* ----------------- scale: characterization past the dense wall --------------

   The `scale` experiment (also run by `make bench-smoke`) characterizes
   register widths the dense engine cannot even allocate (2^24..2^32
   amplitudes): Bernstein-Vazirani rides the lightcone-restricted
   stabilizer route, the quantum lock and the cell-list QRAM ride the
   sparse coordinate engine, and a 24-qubit GHZ+6T workload rides the
   stabilizer-rank engine (2^6 tableau frames). Each row asserts the
   expected route, that the dense engine was never invoked
   (sim_engine_routed_total{engine=statevec} must not move), and an exact
   trace value — so the printed output is byte-identical across domain
   counts and the smoke diff covers it. Wall seconds land only in
   BENCH_results.json, which also carries the counter deltas
   (sparse_amps_peak_total, rank_branches_total, ...). *)

let routed engine =
  Option.value ~default:0
    (Obs.Metrics.counter_value ~labels:[ ("engine", engine) ]
       "sim_engine_routed_total")

let engine_name = function
  | `Stabilizer -> "stabilizer"
  | `Sparse -> "sparse"
  | `Rank -> "rank"

(* characterize [count] basis inputs over [input_qubits] through [`Auto],
   assert the static route, that dense never ran and that the route ran
   exactly once per distinct input (basis inputs repeat every 2^k
   samples, and a pure run simulates each distinct input once), and time
   it *)
let scale_case ~name ~route ~input_qubits ~check c =
  let count = 3 in
  if Sim.Engine.auto_route c <> Some route then
    failwith (Printf.sprintf "scale: %s did not route to %s" name
                (engine_name route));
  let program = Program.make ~input_qubits c in
  let characterize () =
    Characterize.run
      ~rng:(Stats.Rng.make 31)
      ~kind:Clifford.Sampling.Basis ~engine:`Auto program ~count
  in
  let distinct = min count (1 lsl List.length input_qubits) in
  let dense_before = routed "statevec" in
  let routed_before = routed (engine_name route) in
  let ch = characterize () in
  if routed (engine_name route) - routed_before <> distinct then
    failwith (Printf.sprintf "scale: %s not routed once per distinct input on %s"
                (engine_name route) name);
  let _, dt, reps =
    Util.timed_samples ~name:("perf.scale." ^ name) characterize
  in
  if routed "statevec" <> dense_before then
    failwith (Printf.sprintf "scale: dense engine invoked on %s" name);
  Array.iter (fun (s : Characterize.sample) -> check s) ch.Characterize.samples;
  Util.row "scale %-14s %2dq   route=%-10s samples=%d   traces exact: yes" name
    (Circuit.num_qubits c) (engine_name route) count;
  Util.record ("perf/scale-" ^ name) ~seconds:dt ~samples:reps ~domains:1 ()

(* largest diagonal index of a (near-)basis density matrix *)
let dm_argmax m =
  let d = fst (Linalg.Cmat.dims m) in
  let best = ref 0 in
  for k = 1 to d - 1 do
    if Linalg.Cx.re (Linalg.Cmat.get m k k) > Linalg.Cx.re (Linalg.Cmat.get m !best !best)
    then best := k
  done;
  !best

let check_diag_one ~tracepoint ~expected (s : Characterize.sample) =
  let m = List.assoc tracepoint s.Characterize.traces in
  let k = expected (dm_argmax (Util.dm_of_state s.Characterize.input_state)) in
  if Float.abs (Linalg.Cx.re (Linalg.Cmat.get m k k) -. 1.) > 1e-9 then
    failwith "scale: routed trace disagrees with the specification"

let run_scale () =
  Util.header "scale: auto-routed characterization past the dense wall";
  let secret = 0b1 lor (0b1011 lsl 10) in
  let key = 0b10 in
  let cells = [ (1, 0.3); (5, 1.1) ] in
  List.iter
    (fun n ->
      (* all-Clifford BV, tracepoint narrowed to the two low qubits *)
      scale_case
        ~name:(Printf.sprintf "bv-%dq" n)
        ~route:`Stabilizer ~input_qubits:[ 0; 1 ]
        ~check:
          (check_diag_one ~tracepoint:1 ~expected:(fun b -> b lxor (secret land 3)))
        (Benchmarks.Bv.circuit ~trace_qubits:[ 0; 1 ] ~secret n);
      (* the lock's mcz is non-Clifford but diagonal: support bound 2 *)
      let lock = Benchmarks.Quantum_lock.make ~key_tracepoint:false ~key (n - 1) in
      scale_case
        ~name:(Printf.sprintf "lock-%dq" n)
        ~route:`Sparse ~input_qubits:[ 1; 2 ]
        ~check:
          (check_diag_one ~tracepoint:2 ~expected:(fun b ->
               if b = key then 1 else 0))
        lock.Benchmarks.Quantum_lock.circuit;
      (* cell-list QRAM: two listed cells, the rest of the 2^(n-1)-entry
         address space implicitly holds angle 0 *)
      let qram = Benchmarks.Qram.make_cells ~addr_tracepoint:false ~cells (n - 1) in
      scale_case
        ~name:(Printf.sprintf "qram-%dq" n)
        ~route:`Sparse ~input_qubits:[ 0; 1 ]
        ~check:(fun s ->
          let b = dm_argmax (Util.dm_of_state s.Characterize.input_state) in
          let m = List.assoc 2 s.Characterize.traces in
          let p1 = Linalg.Cx.re (Linalg.Cmat.get m 1 1) in
          if Float.abs (p1 -. Benchmarks.Qram.expected_p1_cells qram b) > 1e-9
          then failwith "scale: QRAM read disagrees with the cell table")
        qram.Benchmarks.Qram.s_circuit)
    [ 24; 28; 32 ];
  (* near-Clifford: GHZ-24 with six T gates -> 2^6 stabilizer frames *)
  let ghz_t =
    let c = ref Circuit.(empty 24 |> h 0) in
    for q = 0 to 22 do
      c := Circuit.cx q (q + 1) !c
    done;
    List.iter (fun q -> c := Circuit.t_gate q !c) [ 3; 7; 11; 15; 19; 23 ];
    Circuit.tracepoint 1 [ 22; 23 ] !c
  in
  scale_case ~name:"ghz-t6-24q" ~route:`Rank ~input_qubits:[ 0 ]
    ~check:(fun s ->
      (* traced pair of a phased GHZ state: exact half-half mixture *)
      let m = List.assoc 1 s.Characterize.traces in
      let ok =
        Float.abs (Linalg.Cx.re (Linalg.Cmat.get m 0 0) -. 0.5) <= 1e-9
        && Float.abs (Linalg.Cx.re (Linalg.Cmat.get m 3 3) -. 0.5) <= 1e-9
      in
      if not ok then failwith "scale: GHZ mixture trace disagrees")
    ghz_t
