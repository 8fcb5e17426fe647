open Morphcore

let rng () = Stats.Rng.make 606

let ghz_program () = Program.make (Benchmarks.Ghz.circuit 3)

let mutated_ghz_bitflip () =
  (* insert an X mid-circuit: probability-visible *)
  let c = Circuit.(empty 3 |> h 0 |> x 1 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 1; 2 ]) in
  Program.make c

let mutated_ghz_phase () =
  (* phase error at the end: invisible in probabilities *)
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2 |> z 2 |> tracepoint 1 [ 0; 1; 2 ]) in
  Program.make c

(* ---------------- Verifier helpers ---------------- *)

let test_basis_inputs_distinct () =
  let inputs = Baselines.Verifier.basis_inputs (rng ()) ~k:3 ~count:8 in
  Alcotest.(check int) "all of them" 8 (List.length (List.sort_uniq compare inputs))

let test_basis_inputs_capped () =
  let inputs = Baselines.Verifier.basis_inputs (rng ()) ~k:2 ~count:100 in
  Alcotest.(check int) "capped at 4" 4 (List.length inputs)

(* ---------------- Quito ---------------- *)

let test_quito_finds_bitflip () =
  let r = Baselines.Quito.check ~rng:(rng ()) ~tests:4 ~reference:(ghz_program ())
      ~candidate:(mutated_ghz_bitflip ()) ()
  in
  assert r.Baselines.Verifier.bug_found

let test_quito_misses_phase () =
  let r = Baselines.Quito.check ~rng:(rng ()) ~tests:8 ~reference:(ghz_program ())
      ~candidate:(mutated_ghz_phase ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_quito_clean_program () =
  let r = Baselines.Quito.check ~rng:(rng ()) ~tests:4 ~reference:(ghz_program ())
      ~candidate:(ghz_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found);
  Alcotest.(check int) "used all tests" 4 r.Baselines.Verifier.tests_used

let test_quito_executions_to_find_lock () =
  (* grid search must scan until it stumbles on the unexpected key *)
  let lock = Benchmarks.Quantum_lock.make ~key:1 ~unexpected_key:6 3 in
  let clean = Benchmarks.Quantum_lock.make ~key:1 3 in
  let to_prog l =
    Program.make ~input_qubits:l.Benchmarks.Quantum_lock.key_qubits
      l.Benchmarks.Quantum_lock.circuit
  in
  match
    Baselines.Quito.executions_to_find ~rng:(rng ()) ~reference:(to_prog clean)
      ~candidate:(to_prog lock) ()
  with
  | Some n -> assert (n >= 1 && n <= 8)
  | None -> Alcotest.fail "quito should eventually hit the bad key"

(* ---------------- NDD ---------------- *)

let test_ndd_finds_phase () =
  let r = Baselines.Ndd.check ~rng:(rng ()) ~tests:4 ~kind:Baselines.Ndd.General ~tracepoint:1
      ~reference:(ghz_program ()) ~candidate:(mutated_ghz_phase ()) ()
  in
  assert r.Baselines.Verifier.bug_found

let test_ndd_clean () =
  let r = Baselines.Ndd.check ~rng:(rng ()) ~tests:4 ~kind:Baselines.Ndd.General ~tracepoint:1
      ~reference:(ghz_program ()) ~candidate:(ghz_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_ndd_cost_model () =
  Alcotest.(check int) "classical cheap" 2
    (Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.Classical ~n_t:5);
  Alcotest.(check int) "general 2q" (18 * 16)
    (Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.General ~n_t:2);
  (* exponential growth *)
  assert (
    Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.General ~n_t:9
    > 100 * Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.General ~n_t:5)

let test_ndd_overhead_recorded () =
  let r = Baselines.Ndd.check ~rng:(rng ()) ~shots:10 ~tests:2 ~kind:Baselines.Ndd.General
      ~tracepoint:1 ~reference:(ghz_program ()) ~candidate:(ghz_program ()) ()
  in
  assert (r.Baselines.Verifier.cost.Sim.Cost.gate_ops > 2 * 10 * 3)

(* ---------------- Stat ---------------- *)

let test_stat_chi_square_detects_shift () =
  let expected = [| 0.5; 0.5 |] in
  let ok = Baselines.Stat_assert.chi_square ~expected ~counts:[ (0, 510); (1, 490) ] ~shots:1000 in
  let bad = Baselines.Stat_assert.chi_square ~expected ~counts:[ (0, 900); (1, 100) ] ~shots:1000 in
  assert (ok < 3.84);
  assert (bad > 100.)

let test_stat_check_holds () =
  let prog = Program.make Circuit.(empty 1 |> h 0) in
  let holds, _ =
    Baselines.Stat_assert.check ~rng:(rng ()) ~expected:[| 0.5; 0.5 |] prog ~input:0 ()
  in
  assert holds

let test_stat_check_fails () =
  let prog = Program.make Circuit.(empty 1 |> x 0) in
  let holds, result =
    Baselines.Stat_assert.check ~rng:(rng ()) ~expected:[| 1.; 0. |] prog ~input:0 ()
  in
  (* program flips the qubit; expectation says it should stay 0 *)
  assert (not holds);
  assert result.Baselines.Verifier.bug_found

(* ---------------- Sparse sim ---------------- *)

let test_sparse_matches_dense () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> t_gate 1 |> cx 1 2 |> s 2) in
  let sparse = Sim.Sparse.run c ~input:0 in
  let dense = (Sim.Engine.run c).Sim.Engine.state in
  let densified = Sim.Sparse.to_statevec sparse in
  if Qstate.Statevec.fidelity_pure densified dense < 1. -. 1e-9 then
    Alcotest.fail "sparse disagrees with dense"

let test_sparse_support_growth () =
  let c = Circuit.(empty 4 |> h 0 |> h 1 |> h 2 |> h 3) in
  let s = Sim.Sparse.run c ~input:0 in
  Alcotest.(check int) "full support" 16 (Sim.Sparse.support s);
  let c2 = Circuit.(empty 4 |> x 0 |> cx 0 1) in
  Alcotest.(check int) "basis stays sparse" 1 (Sim.Sparse.support (Sim.Sparse.run c2 ~input:0))

let test_sparse_equal_global_phase () =
  let a = Sim.Sparse.run Circuit.(empty 1 |> x 0 |> z 0) ~input:0 in
  let b = Sim.Sparse.run Circuit.(empty 1 |> x 0) ~input:0 in
  (* differ only by global phase -1 *)
  assert (Sim.Sparse.equal a b)

let test_sparse_detects_relative_phase () =
  let a = Sim.Sparse.run Circuit.(empty 1 |> h 0 |> z 0) ~input:0 in
  let b = Sim.Sparse.run Circuit.(empty 1 |> h 0) ~input:0 in
  assert (not (Sim.Sparse.equal a b))

(* ---------------- Automa ---------------- *)

let test_automa_finds_phase () =
  let r = Baselines.Automa.check ~rng:(rng ()) ~tests:2 ~reference:(ghz_program ())
      ~candidate:(mutated_ghz_phase ()) ()
  in
  assert r.Baselines.Verifier.bug_found

let test_automa_clean () =
  let r = Baselines.Automa.check ~rng:(rng ()) ~tests:2 ~reference:(ghz_program ())
      ~candidate:(ghz_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_automa_supports () =
  assert (Baselines.Automa.supports (ghz_program ()));
  let qnn = Benchmarks.Qnn.init (rng ()) ~num_qubits:3 ~layers:1 in
  let qnn_prog = Program.make (Benchmarks.Qnn.body qnn) in
  assert (not (Baselines.Automa.supports qnn_prog));
  assert (not (Baselines.Automa.supports (Program.make (Benchmarks.Teleport.single ()))))

(* ---------------- edge cases: degenerate sizes and budgets ----------- *)

let empty_program () = Program.make (Circuit.empty 2)

let test_stat_zero_shots_holds () =
  (* 0 shots = no evidence: the chi-square statistic degenerates to 0, so
     the assertion must HOLD rather than crash or spuriously fail *)
  let prog = Program.make Circuit.(empty 1 |> h 0) in
  let holds, result =
    Baselines.Stat_assert.check ~rng:(rng ()) ~shots:0
      ~expected:[| 0.5; 0.5 |] prog ~input:0 ()
  in
  assert holds;
  assert (not result.Baselines.Verifier.bug_found);
  Alcotest.(check int) "no shots spent" 0
    result.Baselines.Verifier.cost.Sim.Cost.shots

let test_stat_zero_shots_chi_square () =
  Alcotest.(check (float 0.)) "zero statistic" 0.
    (Baselines.Stat_assert.chi_square ~expected:[| 0.5; 0.5 |] ~counts:[]
       ~shots:0)

let test_quito_empty_circuits () =
  (* both programs are gateless identities over 2 qubits: no bug, and the
     full test budget is consumed without early exit *)
  let r =
    Baselines.Quito.check ~rng:(rng ()) ~tests:4 ~reference:(empty_program ())
      ~candidate:(empty_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found);
  Alcotest.(check int) "used all tests" 4 r.Baselines.Verifier.tests_used

let test_quito_empty_never_detects () =
  match
    Baselines.Quito.executions_to_find ~rng:(rng ())
      ~reference:(empty_program ()) ~candidate:(empty_program ()) ()
  with
  | None -> ()
  | Some n -> Alcotest.failf "no bug exists, yet found after %d executions" n

let test_automa_empty_circuits () =
  assert (Baselines.Automa.supports (empty_program ()));
  let r =
    Baselines.Automa.check ~rng:(rng ()) ~tests:4
      ~reference:(empty_program ()) ~candidate:(empty_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_automa_empty_vs_x () =
  (* an empty reference against a bit flip: exact sparse comparison must
     still detect on the very first basis input *)
  let flip = Program.make Circuit.(empty 2 |> x 0 |> x 1) in
  let r =
    Baselines.Automa.check ~rng:(rng ()) ~tests:1
      ~reference:(empty_program ()) ~candidate:flip ()
  in
  assert r.Baselines.Verifier.bug_found

let one_qubit_program () =
  Program.make Circuit.(empty 1 |> h 0 |> tracepoint 1 [ 0 ])

let test_ndd_one_qubit_clean () =
  let r =
    Baselines.Ndd.check ~rng:(rng ()) ~tests:2 ~kind:Baselines.Ndd.General
      ~tracepoint:1 ~reference:(one_qubit_program ())
      ~candidate:(one_qubit_program ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_ndd_one_qubit_detects () =
  (* phase flip after the Hadamard is state-visible at the tracepoint *)
  let broken = Program.make Circuit.(empty 1 |> h 0 |> z 0 |> tracepoint 1 [ 0 ]) in
  let r =
    Baselines.Ndd.check ~rng:(rng ()) ~tests:2 ~kind:Baselines.Ndd.General
      ~tracepoint:1 ~reference:(one_qubit_program ()) ~candidate:broken ()
  in
  assert r.Baselines.Verifier.bug_found;
  match
    Baselines.Ndd.executions_to_find ~rng:(rng ()) ~tracepoint:1
      ~reference:(one_qubit_program ()) ~candidate:broken ()
  with
  | Some n -> assert (n >= 1 && n <= 2)
  | None -> Alcotest.fail "1-qubit phase flip should be detectable"

let test_ndd_one_qubit_cost () =
  (* the 4^n overhead model at its smallest size *)
  Alcotest.(check int) "general 1q" 72
    (Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.General ~n_t:1);
  Alcotest.(check int) "classical 1q" 2
    (Baselines.Ndd.discrimination_gates ~kind:Baselines.Ndd.Classical ~n_t:1)

(* ---------------- Twist ---------------- *)

let test_twist_purity_vector () =
  let v = Baselines.Twist.purity_vector (ghz_program ()) ~input:0 in
  (* GHZ: each qubit maximally mixed (purity 1/2), global pure *)
  Alcotest.(check int) "length" 4 (Array.length v);
  for q = 0 to 2 do
    if Float.abs (v.(q) -. 0.5) > 1e-9 then Alcotest.fail "GHZ qubit purity"
  done

let test_twist_detects_entanglement_change () =
  (* dropping a CX changes single-qubit purities *)
  let broken = Program.make Circuit.(empty 3 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0; 1; 2 ]) in
  let r = Baselines.Twist.check ~rng:(rng ()) ~tests:2 ~reference:(ghz_program ()) ~candidate:broken () in
  assert r.Baselines.Verifier.bug_found

let test_twist_misses_pure_phase () =
  (* terminal phase gate leaves every purity unchanged *)
  let r = Baselines.Twist.check ~rng:(rng ()) ~tests:4 ~reference:(ghz_program ())
      ~candidate:(mutated_ghz_phase ()) ()
  in
  assert (not r.Baselines.Verifier.bug_found)

let test_twist_supports () =
  assert (Baselines.Twist.supports (ghz_program ()));
  let qnn = Benchmarks.Qnn.init (rng ()) ~num_qubits:3 ~layers:1 in
  assert (not (Baselines.Twist.supports (Program.make (Benchmarks.Qnn.body qnn))))

let () =
  Alcotest.run "baselines"
    [
      ( "verifier",
        [
          Alcotest.test_case "distinct inputs" `Quick test_basis_inputs_distinct;
          Alcotest.test_case "capped inputs" `Quick test_basis_inputs_capped;
        ] );
      ( "quito",
        [
          Alcotest.test_case "finds bitflip" `Quick test_quito_finds_bitflip;
          Alcotest.test_case "misses phase" `Quick test_quito_misses_phase;
          Alcotest.test_case "clean program" `Quick test_quito_clean_program;
          Alcotest.test_case "lock grid search" `Quick test_quito_executions_to_find_lock;
        ] );
      ( "ndd",
        [
          Alcotest.test_case "finds phase" `Quick test_ndd_finds_phase;
          Alcotest.test_case "clean" `Quick test_ndd_clean;
          Alcotest.test_case "cost model" `Quick test_ndd_cost_model;
          Alcotest.test_case "overhead recorded" `Quick test_ndd_overhead_recorded;
        ] );
      ( "stat",
        [
          Alcotest.test_case "chi square" `Quick test_stat_chi_square_detects_shift;
          Alcotest.test_case "holds" `Quick test_stat_check_holds;
          Alcotest.test_case "fails" `Quick test_stat_check_fails;
        ] );
      ( "sparse-sim",
        [
          Alcotest.test_case "matches dense" `Quick test_sparse_matches_dense;
          Alcotest.test_case "support growth" `Quick test_sparse_support_growth;
          Alcotest.test_case "global phase" `Quick test_sparse_equal_global_phase;
          Alcotest.test_case "relative phase" `Quick test_sparse_detects_relative_phase;
        ] );
      ( "automa",
        [
          Alcotest.test_case "finds phase" `Quick test_automa_finds_phase;
          Alcotest.test_case "clean" `Quick test_automa_clean;
          Alcotest.test_case "supports" `Quick test_automa_supports;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "stat 0 shots holds" `Quick test_stat_zero_shots_holds;
          Alcotest.test_case "stat 0 shots chi-square" `Quick test_stat_zero_shots_chi_square;
          Alcotest.test_case "quito empty circuits" `Quick test_quito_empty_circuits;
          Alcotest.test_case "quito empty never detects" `Quick test_quito_empty_never_detects;
          Alcotest.test_case "automa empty circuits" `Quick test_automa_empty_circuits;
          Alcotest.test_case "automa empty vs x" `Quick test_automa_empty_vs_x;
          Alcotest.test_case "ndd 1-qubit clean" `Quick test_ndd_one_qubit_clean;
          Alcotest.test_case "ndd 1-qubit detects" `Quick test_ndd_one_qubit_detects;
          Alcotest.test_case "ndd 1-qubit cost" `Quick test_ndd_one_qubit_cost;
        ] );
      ( "twist",
        [
          Alcotest.test_case "purity vector" `Quick test_twist_purity_vector;
          Alcotest.test_case "detects entanglement change" `Quick test_twist_detects_entanglement_change;
          Alcotest.test_case "misses pure phase" `Quick test_twist_misses_pure_phase;
          Alcotest.test_case "supports" `Quick test_twist_supports;
        ] );
    ]
