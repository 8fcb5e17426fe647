(* The deterministic-parallelism contract: under a fixed seed, every parallel
   fan-out (trajectories, sample counts, characterization, state-vector
   kernels) must produce results BIT-IDENTICAL to the sequential path for any
   domain count. Plus pool mechanics and the gate-fusion property. *)

open Linalg

let with_pool d f =
  let pool = Parallel.Pool.create ~domains:d () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let frob_diff a b = Cmat.frob_norm (Cmat.sub a b)

let check_traces_identical msg a b =
  Alcotest.(check int) (msg ^ ": trace count") (List.length a) (List.length b);
  List.iter2
    (fun (ia, ma) (ib, mb) ->
      Alcotest.(check int) (msg ^ ": trace id") ia ib;
      if frob_diff ma mb <> 0. then
        Alcotest.failf "%s: tracepoint %d differs (frob %.3g)" msg ia
          (frob_diff ma mb))
    a b

(* ---------------- Pool mechanics ---------------- *)

let test_pool_map_init () =
  with_pool 4 (fun pool ->
      let out = Parallel.Pool.map_init pool 1000 (fun i -> i * i) in
      Alcotest.(check int) "length" 1000 (Array.length out);
      Array.iteri
        (fun i v -> if v <> i * i then Alcotest.failf "slot %d wrong" i)
        out)

let test_pool_parallel_for_covers () =
  with_pool 4 (fun pool ->
      let hits = Array.make 257 0 in
      (* 257 is deliberately not a multiple of any chunk size *)
      Parallel.Pool.parallel_for ~chunk:16 pool ~n:257 (fun i ->
          hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h ->
          if h <> 1 then Alcotest.failf "index %d ran %d times" i h)
        hits)

let test_pool_chunks_partition () =
  with_pool 3 (fun pool ->
      let seen = Array.make 1000 0 in
      Parallel.Pool.parallel_for_chunks ~chunk:64 pool ~n:1000 (fun lo hi ->
          if lo < 0 || hi > 1000 || lo >= hi then
            Alcotest.failf "bad range %d..%d" lo hi;
          for i = lo to hi - 1 do
            seen.(i) <- seen.(i) + 1
          done);
      Array.iteri
        (fun i h ->
          if h <> 1 then Alcotest.failf "index %d covered %d times" i h)
        seen)

let test_pool_exception_propagates () =
  with_pool 4 (fun pool ->
      match
        Parallel.Pool.parallel_for pool ~n:100 (fun i ->
            if i = 37 then failwith "boom")
      with
      | () -> Alcotest.fail "exception was swallowed"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m)

let test_pool_nested_is_safe () =
  (* a parallel_for from inside a worker of the same pool must inline *)
  with_pool 4 (fun pool ->
      let total = Atomic.make 0 in
      Parallel.Pool.parallel_for pool ~n:8 (fun _ ->
          Parallel.Pool.parallel_for pool ~n:8 (fun _ ->
              Atomic.incr total));
      Alcotest.(check int) "all nested ran" 64 (Atomic.get total))

let test_pool_sequential_pool () =
  with_pool 1 (fun pool ->
      let out = Parallel.Pool.map_init pool 10 (fun i -> i + 1) in
      Alcotest.(check int) "last" 10 out.(9))

(* ---------------- Rng.split ---------------- *)

let test_split_reproducible () =
  let stream r = Array.init 8 (fun _ -> Stats.Rng.float r 1.) in
  let children seed =
    let r = Stats.Rng.make seed in
    Array.init 4 (Stats.Rng.split r) |> Array.map stream
  in
  let a = children 42 and b = children 42 in
  if a <> b then Alcotest.fail "same seed must give identical children";
  (* distinct indices give distinct streams *)
  let r = Stats.Rng.make 42 in
  let cs = Array.init 4 (Stats.Rng.split r) |> Array.map stream in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      if cs.(i) = cs.(j) then Alcotest.failf "children %d and %d collide" i j
    done
  done

(* ---------------- Engine determinism across domain counts ------------- *)

let nondet_circuit () =
  Circuit.(
    empty ~clbits:1 3 |> h 0 |> cx 0 1 |> ry 0.7 2
    |> tracepoint 1 [ 0; 2 ]
    |> measure 0 0 |> cx 1 2
    |> tracepoint 2 [ 1; 2 ])

let noise () = Sim.Noise.make ~p1:0.02 ~p2:0.05 ~readout:0.01 ()

let test_tracepoints_domain_independent () =
  let run d =
    with_pool d (fun pool ->
        Sim.Engine.tracepoint_states ~pool ~rng:(Stats.Rng.make 99)
          ~noise:(noise ()) ~trajectories:24 (nondet_circuit ()))
  in
  let t1 = run 1 in
  check_traces_identical "1 vs 2 domains" t1 (run 2);
  check_traces_identical "1 vs 4 domains" t1 (run 4)

let test_sample_counts_domain_independent_noisy () =
  let run d =
    with_pool d (fun pool ->
        Sim.Engine.sample_counts ~pool ~rng:(Stats.Rng.make 5)
          ~noise:(noise ()) ~shots:300 (nondet_circuit ()))
  in
  let c1 = run 1 in
  Alcotest.(check (list (pair int int))) "1 vs 2 domains" c1 (run 2);
  Alcotest.(check (list (pair int int))) "1 vs 4 domains" c1 (run 4)

let test_sample_counts_domain_independent_det () =
  (* deterministic circuit: the CDF block-sampling path *)
  let c = Benchmarks.Ghz.circuit 4 in
  let run d =
    with_pool d (fun pool ->
        Sim.Engine.sample_counts ~pool ~rng:(Stats.Rng.make 5) ~shots:9000 c)
  in
  let c1 = run 1 in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 c1 in
  Alcotest.(check int) "total shots" 9000 total;
  Alcotest.(check (list (pair int int))) "1 vs 2 domains" c1 (run 2);
  Alcotest.(check (list (pair int int))) "1 vs 4 domains" c1 (run 4)

let test_trajectory_meter_merged () =
  (* per-shot meters must merge to the sequential totals *)
  let totals d =
    with_pool d (fun pool ->
        let m = Sim.Cost.create () in
        ignore
          (Sim.Engine.sample_counts ~pool ~rng:(Stats.Rng.make 3)
             ~noise:(noise ()) ~shots:10 ~meter:m (nondet_circuit ()));
        (m.Sim.Cost.executions, m.Sim.Cost.shots, m.Sim.Cost.gate_ops))
  in
  let t1 = totals 1 in
  Alcotest.(check (triple int int int)) "1 vs 4 domains" t1 (totals 4)

(* ---------------- Characterize determinism ---------------- *)

let lock_program () =
  let lock = Benchmarks.Quantum_lock.make ~key:1 3 in
  Morphcore.Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
    lock.Benchmarks.Quantum_lock.circuit

let test_characterize_domain_independent () =
  let open Morphcore in
  let run d =
    with_pool d (fun pool ->
        Characterize.run ~pool ~rng:(Stats.Rng.make 17)
          ~mode:(Characterize.Tomography { shots = 64; project = false })
          ~noise:(noise ()) ~trajectories:8 (lock_program ()) ~count:6)
  in
  let a = run 1 and b = run 2 and c = run 4 in
  List.iter
    (fun other ->
      Alcotest.(check int) "sample count"
        (Array.length a.Characterize.samples)
        (Array.length other.Characterize.samples);
      Array.iteri
        (fun i sa ->
          let sb = other.Characterize.samples.(i) in
          check_traces_identical
            (Printf.sprintf "sample %d" i)
            sa.Characterize.traces sb.Characterize.traces;
          if frob_diff sa.Characterize.input_dm sb.Characterize.input_dm <> 0.
          then Alcotest.failf "sample %d input differs" i)
        a.Characterize.samples;
      Alcotest.(check int) "cost executions"
        a.Characterize.cost.Sim.Cost.executions
        other.Characterize.cost.Sim.Cost.executions;
      Alcotest.(check int) "cost shots" a.Characterize.cost.Sim.Cost.shots
        other.Characterize.cost.Sim.Cost.shots;
      Alcotest.(check int) "cost gate ops"
        a.Characterize.cost.Sim.Cost.gate_ops
        other.Characterize.cost.Sim.Cost.gate_ops)
    [ b; c ]

(* ---------------- State-vector kernels ---------------- *)

let random_gates rng n count =
  List.init count (fun _ ->
      match Stats.Rng.int rng 5 with
      | 0 -> `One (Qstate.Gates.h, Stats.Rng.int rng n)
      | 1 -> `One (Qstate.Gates.rx (Stats.Rng.uniform rng (-3.) 3.), Stats.Rng.int rng n)
      | 2 -> `One (Qstate.Gates.t, Stats.Rng.int rng n)
      | 3 ->
          let a = Stats.Rng.int rng n in
          `Ctl (Qstate.Gates.x, a, (a + 1) mod n)
      | _ ->
          let a = Stats.Rng.int rng n in
          `Two (a, (a + 1) mod n))

let swap_matrix =
  Cmat.init 4 4 (fun i j ->
      let swapped = ((j land 1) lsl 1) lor ((j lsr 1) land 1) in
      if i = swapped then Cx.one else Cx.zero)

let apply_all gates st =
  List.iter
    (fun g ->
      match g with
      | `One (u, q) -> Qstate.Statevec.apply1 u q st
      | `Ctl (u, c, t) -> if c <> t then Qstate.Statevec.apply_controlled ~controls:[ c ] u t st
      | `Two (a, b) -> if a <> b then Qstate.Statevec.apply2 swap_matrix a b st)
    gates

let test_kernels_parallel_bit_identical () =
  (* force the chunked parallel path by dropping the threshold to 0 and
     giving the global pool 4 domains; compare against the sequential path *)
  let n = 7 in
  let gates = random_gates (Stats.Rng.make 31337) n 60 in
  let input =
    let st = Qstate.Statevec.zero n in
    Qstate.Statevec.apply1 Qstate.Gates.h 3 st;
    Qstate.Statevec.apply1 (Qstate.Gates.ry 0.4) 5 st;
    st
  in
  let saved = !Qstate.Statevec.parallel_threshold in
  Fun.protect
    ~finally:(fun () ->
      Qstate.Statevec.parallel_threshold := saved;
      Parallel.Pool.set_global_domains 1)
    (fun () ->
      Qstate.Statevec.parallel_threshold := max_int;
      let seq = Qstate.Statevec.copy input in
      apply_all gates seq;
      Parallel.Pool.set_global_domains 4;
      Qstate.Statevec.parallel_threshold := 0;
      let par = Qstate.Statevec.copy input in
      apply_all gates par;
      if not (Qstate.Statevec.equal ~eps:0. seq par) then
        Alcotest.fail "parallel kernels diverged from sequential")

let test_unitary_pool_independent () =
  let c = Benchmarks.Qft.circuit 8 in
  let u1 = with_pool 1 (fun pool -> Sim.Engine.unitary ~pool c) in
  let u4 = with_pool 4 (fun pool -> Sim.Engine.unitary ~pool c) in
  if frob_diff u1 u4 <> 0. then Alcotest.fail "unitary differs across pools"

(* ---------------- counts: CDF sampling ---------------- *)

let test_counts_peaked () =
  let st = Qstate.Statevec.basis 5 13 in
  let counts = Qstate.Statevec.counts (Stats.Rng.make 1) st ~shots:500 in
  Alcotest.(check (list (pair int int))) "all mass on 13" [ (13, 500) ] counts

let test_counts_balanced () =
  let st = Qstate.Statevec.zero 1 in
  Qstate.Statevec.apply1 Qstate.Gates.h 0 st;
  let counts = Qstate.Statevec.counts (Stats.Rng.make 2) st ~shots:10000 in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  Alcotest.(check int) "total" 10000 total;
  List.iter
    (fun (_, n) ->
      if abs (n - 5000) > 300 then Alcotest.failf "unbalanced: %d" n)
    counts

(* ---------------- gate fusion ----------------

   Segment compilation is the one fusion mechanism: at block_cutoff 1 a
   program-order run of single-qubit gates on one qubit becomes one
   1-qubit block. *)

let plan_unitary (plan : Sim.Batch.plan) =
  let n = plan.Sim.Batch.num_qubits in
  let d = 1 lsl n in
  let u = Linalg.Cmat.create d d in
  Array.iteri
    (fun k (o : Sim.Engine.outcome) ->
      Linalg.Cmat.set_col u k (Qstate.Statevec.to_cvec o.Sim.Engine.state))
    (Sim.Batch.run plan (Array.init d (Qstate.Statevec.basis n)));
  u

let test_fusion_collapses_run () =
  let c = Circuit.(empty 2 |> h 0 |> t_gate 0 |> s 0 |> x 1 |> cx 0 1) in
  let plan = Transpile.Segments.compile ~cutoff:1 ~block_cutoff:1 c in
  (* h,t,s on wire 0 fuse into one block; x on wire 1 and the cx remain *)
  Alcotest.(check int) "operator count" 3 (Sim.Batch.ops plan);
  if frob_diff (Sim.Engine.unitary c) (plan_unitary plan) > 1e-12 then
    Alcotest.fail "fusion changed the unitary"

let test_fusion_fenced_by_tracepoint () =
  let c = Circuit.(empty 1 |> h 0 |> tracepoint 1 [ 0 ] |> h 0) in
  Alcotest.(check int) "kept" 2
    (Sim.Batch.ops (Transpile.Segments.compile ~cutoff:1 ~block_cutoff:1 c))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_init" `Quick test_pool_map_init;
          Alcotest.test_case "parallel_for covers" `Quick test_pool_parallel_for_covers;
          Alcotest.test_case "chunks partition" `Quick test_pool_chunks_partition;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested is safe" `Quick test_pool_nested_is_safe;
          Alcotest.test_case "single-domain pool" `Quick test_pool_sequential_pool;
        ] );
      ( "rng",
        [ Alcotest.test_case "split reproducible" `Quick test_split_reproducible ] );
      ( "determinism",
        [
          Alcotest.test_case "tracepoints 1/2/4 domains" `Quick
            test_tracepoints_domain_independent;
          Alcotest.test_case "sample_counts noisy 1/2/4" `Quick
            test_sample_counts_domain_independent_noisy;
          Alcotest.test_case "sample_counts det 1/2/4" `Quick
            test_sample_counts_domain_independent_det;
          Alcotest.test_case "meter merge" `Quick test_trajectory_meter_merged;
          Alcotest.test_case "characterize 1/2/4" `Quick
            test_characterize_domain_independent;
          Alcotest.test_case "statevec kernels" `Quick
            test_kernels_parallel_bit_identical;
          Alcotest.test_case "unitary" `Quick test_unitary_pool_independent;
        ] );
      ( "counts",
        [
          Alcotest.test_case "peaked" `Quick test_counts_peaked;
          Alcotest.test_case "balanced" `Quick test_counts_balanced;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "collapses run" `Quick test_fusion_collapses_run;
          Alcotest.test_case "fenced by tracepoint" `Quick
            test_fusion_fenced_by_tracepoint;
        ] );
    ]
