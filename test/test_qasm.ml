let parse_ok src = Qasm.parse src

let test_parse_paper_lock () =
  (* the listing from Section 7.1 of the paper *)
  let src =
    {|
qreg q[5];
T 1 q[2,3,4]; // add tracepoint T1 on qubits 2,3,4
h q[1];
x q[2,3,4];
mcz q[1,2,3],q[4];
x q[2,3,4];
h q[1];
T 2 q[1]; // add tracepoint T2 on qubit 1
|}
  in
  let c = parse_ok src in
  Alcotest.(check int) "qubits" 5 (Circuit.num_qubits c);
  (* h + 3x + mcz + 3x + h = 9 gates *)
  Alcotest.(check int) "gates" 9 (Circuit.gate_count c);
  Alcotest.(check (list (pair int (list int))))
    "tracepoints"
    [ (1, [ 2; 3; 4 ]); (2, [ 1 ]) ]
    (Circuit.tracepoints c)

let test_parse_ghz () =
  let src = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nT 1 q[0,1,2];\n" in
  let c = parse_ok src in
  let st = (Sim.Engine.run c).Sim.Engine.state in
  let expected = Benchmarks.Ghz.state 3 in
  if Qstate.Statevec.fidelity_pure st expected < 1. -. 1e-9 then
    Alcotest.fail "GHZ state mismatch"

let test_parse_params () =
  let c = parse_ok "qreg q[1];\nrz(pi/2) q[0];\nu3(0.1, -0.2, pi) q[0];\np(2*pi - 1.5) q[0];\n" in
  Alcotest.(check int) "gates" 3 (Circuit.gate_count c)

let test_parse_measure_feedback () =
  let src =
    "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif (c[0]==1) x q[1];\n"
  in
  let c = parse_ok src in
  Alcotest.(check int) "clbits" 2 (Circuit.num_clbits c);
  (* q1 must equal the measured bit *)
  let rng = Stats.Rng.make 3 in
  for _ = 1 to 20 do
    let o = Sim.Engine.run ~rng c in
    let p1 = Qstate.Statevec.prob1 o.Sim.Engine.state 1 in
    Alcotest.(check int)
      "feedback applied" o.Sim.Engine.clbits.(0)
      (int_of_float (Float.round p1))
  done

let test_parse_whole_register_condition () =
  let src = "qreg q[1];\ncreg c[2];\nmeasure q[0] -> c[0];\nif (c==0) x q[0];\n" in
  let c = parse_ok src in
  (* |0> measured 0, then flipped to |1> *)
  let o = Sim.Engine.run c in
  Alcotest.(check int) "flipped" 1
    (int_of_float (Float.round (Qstate.Statevec.prob1 o.Sim.Engine.state 0)))

let test_parse_reset_barrier () =
  let c = parse_ok "qreg q[2];\nx q[0];\nbarrier q[0,1];\nreset q[0];\n" in
  let o = Sim.Engine.run c in
  Alcotest.(check int) "reset to zero" 0
    (int_of_float (Float.round (Qstate.Statevec.prob1 o.Sim.Engine.state 0)))

let test_parse_errors () =
  let expect_fail src =
    match Qasm.parse src with
    | exception Qasm.Parse_error _ -> ()
    | exception Circuit.Error { loc = Some _; _ } ->
        (* semantic validation errors carry a source location *)
        ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_fail "h q[0];";
  (* no qreg *)
  expect_fail "qreg q[2]; h q[9];";
  (* out of range (raised as located Circuit.Error, code MQ001) *)
  expect_fail "qreg q[2]; banana q[0];";
  expect_fail "qreg q[2]; h q[0]"
(* missing semicolon *)

let test_parse_error_columns () =
  (match Qasm.parse "qreg q[2];\nh q[0]; =\n" with
  | exception Qasm.Parse_error { line; column; token; _ } ->
      Alcotest.(check int) "line" 2 line;
      Alcotest.(check int) "column" 9 column;
      Alcotest.(check string) "token" "=" token
  | _ -> Alcotest.fail "expected parse error");
  (* a program that ends mid-statement is located just after its last
     token, whatever that token's width *)
  List.iter
    (fun (src, at) ->
      match Qasm.parse src with
      | exception Qasm.Parse_error { line; column; message; _ } ->
          Alcotest.(check (pair int int)) src at (line, column);
          Alcotest.(check string) "message" "unexpected end of input" message
      | _ -> Alcotest.fail "expected parse error")
    [
      ("OPENQASM 2.0;\nqreg q[2];\nh q[0]", (3, 7));
      ("qreg q[2];\ncreg c[1];\nmeasure q[0] ->", (3, 16));
      ("qreg q[2];\nrz(0.125", (2, 9));
      ("include \"qelib1.inc\"", (1, 21));
    ];
  match Qasm.parse "qreg q[2];\n  h q[5];\n" with
  | exception Circuit.Error { code; loc; _ } ->
      Alcotest.(check string) "code" "MQ001" code;
      Alcotest.(check (option (pair int int))) "loc" (Some (2, 3)) loc
  | _ -> Alcotest.fail "expected range error"

let test_parse_with_locs () =
  let c, locs =
    Qasm.parse_with_locs "qreg q[2];\ncreg c[1];\nh q[0,1];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
  in
  Alcotest.(check int) "instrs" (List.length (Circuit.instrs c)) (Array.length locs);
  (* h broadcast over two indices: both gates share the statement's loc *)
  Alcotest.(check (array (pair int int)))
    "locs"
    [| (3, 1); (3, 1); (4, 1); (5, 1) |]
    locs

let test_roundtrip_benchmarks () =
  List.iter
    (fun c ->
      let printed = Qasm.to_string c in
      let reparsed = Qasm.parse printed in
      Alcotest.(check int)
        "gate count survives" (Circuit.gate_count c)
        (Circuit.gate_count reparsed);
      (* semantics survive for unitary circuits *)
      if Sim.Engine.is_deterministic c then begin
        let u1 = Sim.Engine.unitary c and u2 = Sim.Engine.unitary reparsed in
        if not (Linalg.Cmat.equal ~eps:1e-9 u1 u2) then
          Alcotest.fail "unitary changed by roundtrip"
      end)
    [
      Benchmarks.Ghz.circuit 3;
      (Benchmarks.Quantum_lock.make ~key:2 3).Benchmarks.Quantum_lock.circuit;
      Benchmarks.Qft.circuit 3;
      Benchmarks.Shor_period.for_order ~counting:3 ~a:2 ~n_mod:5;
    ]

let test_roundtrip_teleport () =
  (* feedback + measurement survive the roundtrip *)
  let c = Benchmarks.Teleport.single () in
  let reparsed = Qasm.parse (Qasm.to_string c) in
  Alcotest.(check int) "clbits" (Circuit.num_clbits c) (Circuit.num_clbits reparsed);
  let rng = Stats.Rng.make 9 in
  (* teleport |1>: output qubit must read 1 *)
  let initial = Qstate.Statevec.basis 3 1 in
  for _ = 1 to 10 do
    let o = Sim.Engine.run ~rng ~initial reparsed in
    Alcotest.(check int) "teleported" 1
      (int_of_float (Float.round (Qstate.Statevec.prob1 o.Sim.Engine.state 2)))
  done

(* ---------------- user gate definitions ---------------- *)

let test_gate_definition_bell () =
  let src =
    {|
qreg q[2];
gate bell a, b { h a; cx a, b; }
bell q[0], q[1];
|}
  in
  let c = parse_ok src in
  Alcotest.(check int) "expanded gates" 2 (Circuit.gate_count c);
  let st = (Sim.Engine.run c).Sim.Engine.state in
  let expect = Circuit.(empty 2 |> h 0 |> cx 0 1) in
  let st2 = (Sim.Engine.run expect).Sim.Engine.state in
  if Qstate.Statevec.fidelity_pure st st2 < 1. -. 1e-12 then
    Alcotest.fail "bell definition wrong"

let test_gate_definition_parameterized () =
  let src =
    {|
qreg q[1];
gate tilt(theta) a { ry(theta/2) a; rz(theta*2) a; }
tilt(0.8) q[0];
|}
  in
  let c = parse_ok src in
  let expect = Circuit.(empty 1 |> ry 0.4 0 |> rz 1.6 0) in
  let u1 = Sim.Engine.unitary c and u2 = Sim.Engine.unitary expect in
  if not (Linalg.Cmat.equal ~eps:1e-12 u1 u2) then
    Alcotest.fail "parameterized definition wrong"

let test_gate_definition_nested () =
  let src =
    {|
qreg q[3];
gate bell a, b { h a; cx a, b; }
gate chain a, b, c { bell a, b; cx b, c; }
chain q[0], q[1], q[2];
|}
  in
  let c = parse_ok src in
  Alcotest.(check int) "nested expansion" 3 (Circuit.gate_count c);
  let st = (Sim.Engine.run c).Sim.Engine.state in
  let ghz = Benchmarks.Ghz.state 3 in
  if Qstate.Statevec.fidelity_pure st ghz < 1. -. 1e-12 then
    Alcotest.fail "nested definition wrong"

let test_gate_definition_errors () =
  let expect_fail src =
    match Qasm.parse src with
    | exception Qasm.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  (* wrong arity *)
  expect_fail "qreg q[2]; gate g a, b { cx a, b; } g q[0];";
  (* wrong parameter count *)
  expect_fail "qreg q[1]; gate g(t) a { rz(t) a; } g q[0];";
  (* redefinition *)
  expect_fail "qreg q[1]; gate g a { x a; } gate g a { z a; } g q[0];";
  (* unknown qubit argument inside the body *)
  expect_fail "qreg q[1]; gate g a { x b; } g q[0];"

let test_parse_error_line_numbers () =
  (* unknown gate: now a located Circuit.Error (MQ015) from Gate.make *)
  (match Qasm.parse "qreg q[1];\nh q[0];\nbanana q[0];\n" with
  | exception Circuit.Error { code; loc = Some (line, _); _ } ->
      Alcotest.(check string) "code" "MQ015" code;
      Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "expected parse error");
  (* syntax errors still raise Parse_error with the right line *)
  match Qasm.parse "qreg q[1];\nh q[0];\nh q[0] oops;\n" with
  | exception Qasm.Parse_error { line; _ } ->
      Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "expected parse error"

let prop_roundtrip_random_circuits =
  QCheck.Test.make ~name:"print/parse roundtrip preserves unitaries" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = Stats.Rng.make seed in
      let n = 1 + Stats.Rng.int r 3 in
      let c = ref (Circuit.empty n) in
      for _ = 1 to 12 do
        match Stats.Rng.int r 7 with
        | 0 -> c := Circuit.h (Stats.Rng.int r n) !c
        | 1 -> c := Circuit.t_gate (Stats.Rng.int r n) !c
        | 2 -> c := Circuit.rz (Stats.Rng.uniform r (-3.) 3.) (Stats.Rng.int r n) !c
        | 3 -> c := Circuit.u3 (Stats.Rng.uniform r 0. 3.) (Stats.Rng.uniform r 0. 3.) (Stats.Rng.uniform r 0. 3.) (Stats.Rng.int r n) !c
        | 4 -> c := Circuit.sdg (Stats.Rng.int r n) !c
        | 5 ->
            if n >= 2 then begin
              let a = Stats.Rng.int r n in
              c := Circuit.cp (Stats.Rng.uniform r 0. 3.) a ((a + 1) mod n) !c
            end
        | _ ->
            if n >= 2 then begin
              let a = Stats.Rng.int r n in
              c := Circuit.cx a ((a + 1) mod n) !c
            end
      done;
      let reparsed = Qasm.parse (Qasm.to_string !c) in
      Linalg.Cmat.equal ~eps:1e-9 (Sim.Engine.unitary !c) (Sim.Engine.unitary reparsed))

let () =
  Alcotest.run "qasm"
    [
      ( "parse",
        [
          Alcotest.test_case "paper lock listing" `Quick test_parse_paper_lock;
          Alcotest.test_case "ghz semantics" `Quick test_parse_ghz;
          Alcotest.test_case "parameter expressions" `Quick test_parse_params;
          Alcotest.test_case "measure + feedback" `Quick test_parse_measure_feedback;
          Alcotest.test_case "whole-register condition" `Quick test_parse_whole_register_condition;
          Alcotest.test_case "reset + barrier" `Quick test_parse_reset_barrier;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_parse_error_line_numbers;
          Alcotest.test_case "error columns" `Quick test_parse_error_columns;
          Alcotest.test_case "instruction locs" `Quick test_parse_with_locs;
          Alcotest.test_case "gate definition" `Quick test_gate_definition_bell;
          Alcotest.test_case "parameterized definition" `Quick test_gate_definition_parameterized;
          Alcotest.test_case "nested definition" `Quick test_gate_definition_nested;
          Alcotest.test_case "definition errors" `Quick test_gate_definition_errors;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "benchmarks" `Quick test_roundtrip_benchmarks;
          Alcotest.test_case "teleport" `Quick test_roundtrip_teleport;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random_circuits ] );
    ]
