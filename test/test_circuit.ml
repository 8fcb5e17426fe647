let ghz3 () = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2)

let test_builder_counts () =
  let c = ghz3 () in
  Alcotest.(check int) "gate count" 3 (Circuit.gate_count c);
  Alcotest.(check int) "two qubit" 2 (Circuit.two_qubit_count c);
  Alcotest.(check int) "depth" 3 (Circuit.depth c);
  Alcotest.(check int) "qubits" 3 (Circuit.num_qubits c)

let test_tracepoints () =
  let c =
    Circuit.(empty 2 |> tracepoint 1 [ 0; 1 ] |> h 0 |> tracepoint 2 [ 1 ])
  in
  Alcotest.(check (list (pair int (list int))))
    "tracepoints"
    [ (1, [ 0; 1 ]); (2, [ 1 ]) ]
    (Circuit.tracepoints c)

let test_measurement_before () =
  let c =
    Circuit.(
      empty ~clbits:1 2 |> tracepoint 1 [ 0 ] |> measure 0 0 |> tracepoint 2 [ 1 ])
  in
  assert (not (Circuit.has_measurement_before c ~tracepoint_id:1));
  assert (Circuit.has_measurement_before c ~tracepoint_id:2)

let expect_error name code f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Circuit.Error %s" name code
  | exception Circuit.Error e ->
      Alcotest.(check string) (name ^ " code") code e.Circuit.code;
      if String.length e.Circuit.message = 0 then
        Alcotest.failf "%s: empty message" name

let test_validation_errors () =
  let c = Circuit.empty 2 in
  expect_error "qubit range" "MQ001" (fun () -> ignore (Circuit.h 5 c));
  expect_error "clbit range" "MQ002" (fun () ->
      ignore (Circuit.measure 0 0 c));
  expect_error "duplicate qubit" "MQ003" (fun () ->
      ignore (Circuit.cx 1 1 c));
  expect_error "register mismatch" "MQ013" (fun () ->
      ignore (Circuit.append c (Circuit.empty 3)));
  expect_error "unknown gate" "MQ015" (fun () ->
      ignore (Circuit.gate "frobnicate" [ 0 ] c));
  expect_error "empty register" "MQ016" (fun () -> ignore (Circuit.empty 0))

(* a tracepoint that names a qubit twice would record a matrix that is
   not a density of the register *)
let test_tracepoint_duplicate_qubit () =
  let c = Circuit.(empty 2 |> h 0) in
  expect_error "repeated tracepoint qubit" "MQ003" (fun () ->
      ignore (Circuit.tracepoint 1 [ 0; 0 ] c));
  expect_error "repeated among distinct" "MQ003" (fun () ->
      ignore (Circuit.tracepoint 1 [ 1; 0; 1 ] c));
  Alcotest.(check (list (pair int (list int))))
    "distinct qubits accepted"
    [ (1, [ 1; 0 ]) ]
    (Circuit.tracepoints (Circuit.tracepoint 1 [ 1; 0 ] c))

let test_append () =
  let a = Circuit.(empty 2 |> h 0) in
  let b = Circuit.(empty 2 |> cx 0 1) in
  let c = Circuit.append a b in
  Alcotest.(check int) "combined" 2 (Circuit.gate_count c)

let test_adjoint_inverts () =
  let c =
    Circuit.(
      empty 2 |> h 0 |> t_gate 1 |> s 0 |> rx 0.37 1 |> cx 0 1 |> u3 0.2 1.0 0.5 0
      |> p 0.9 1)
  in
  let full = Circuit.append c (Circuit.adjoint c) in
  let u = Sim.Engine.unitary full in
  if not (Linalg.Cmat.equal ~eps:1e-9 u (Linalg.Cmat.identity 4)) then
    Alcotest.fail "adjoint did not invert circuit"

let test_adjoint_rejects_measure () =
  let c = Circuit.(empty ~clbits:1 1 |> measure 0 0) in
  expect_error "non-unitary" "MQ014" (fun () -> ignore (Circuit.adjoint c))

let test_map_gates_prune () =
  let c = Circuit.(empty 2 |> rx 0.001 0 |> ry 1.0 1 |> cx 0 1) in
  let pruned =
    Circuit.map_gates
      (fun g ->
        match g.Circuit.Gate.params with
        | [ a ] when Float.abs a < 0.01 -> None
        | _ -> Some g)
      c
  in
  Alcotest.(check int) "pruned" 2 (Circuit.gate_count pruned)

let test_gate_inverse () =
  List.iter
    (fun (name, params) ->
      let g = Circuit.Gate.make ~params name [ 0 ] in
      let gi = Circuit.Gate.inverse g in
      let c = Circuit.(empty 1 |> add (Circuit.Instr.Gate g) |> add (Circuit.Instr.Gate gi)) in
      let u = Sim.Engine.unitary c in
      if not (Linalg.Cmat.equal ~eps:1e-10 u (Linalg.Cmat.identity 2)) then
        Alcotest.failf "inverse wrong for %s" name)
    [
      ("h", []); ("x", []); ("s", []); ("t", []); ("sdg", []); ("tdg", []);
      ("sx", []); ("sy", []);
      ("rx", [ 0.3 ]); ("ry", [ -0.8 ]); ("rz", [ 2.5 ]); ("p", [ 1.1 ]);
      ("u3", [ 0.3; 0.9; -0.2 ]);
      ("u2x2", [ 0.6; 0.0; 0.0; 0.8; 0.0; 0.8; 0.6; 0.0 ]);
    ]

let test_controlled_sx_inverse () =
  (* Regression (found by the differential harness): sx^dagger used to be
     implemented as rx(-pi/2), off by a global phase — harmless alone but a
     relative phase once controlled, so csx; inverse(csx) was not the
     identity. *)
  let g = Circuit.Gate.make ~controls:[ 1 ] "sx" [ 0 ] in
  let c =
    Circuit.(
      empty 2
      |> add (Circuit.Instr.Gate g)
      |> add (Circuit.Instr.Gate (Circuit.Gate.inverse g)))
  in
  let u = Sim.Engine.unitary c in
  if not (Linalg.Cmat.equal ~eps:1e-10 u (Linalg.Cmat.identity 4)) then
    Alcotest.fail "controlled-sx inverse is not exact"

let test_gate_remap () =
  let g = Circuit.Gate.make ~controls:[ 0 ] "x" [ 1 ] in
  let g' = Circuit.Gate.remap (fun q -> q + 2) g in
  Alcotest.(check (list int)) "remapped" [ 2; 3 ] (Circuit.Gate.qubits g')

let test_mcz_symmetry () =
  (* mcz is symmetric in its qubits: both orderings give the same unitary *)
  let c1 = Circuit.(empty 3 |> mcz [ 0; 1; 2 ]) in
  let c2 = Circuit.(empty 3 |> mcz [ 2; 1; 0 ]) in
  let u1 = Sim.Engine.unitary c1 and u2 = Sim.Engine.unitary c2 in
  if not (Linalg.Cmat.equal ~eps:1e-12 u1 u2) then Alcotest.fail "mcz not symmetric"

let test_depth_parallel_gates () =
  let c = Circuit.(empty 4 |> h 0 |> h 1 |> h 2 |> h 3 |> cx 0 1 |> cx 2 3) in
  Alcotest.(check int) "parallel depth" 2 (Circuit.depth c)

let () =
  Alcotest.run "circuit"
    [
      ( "builder",
        [
          Alcotest.test_case "counts" `Quick test_builder_counts;
          Alcotest.test_case "tracepoints" `Quick test_tracepoints;
          Alcotest.test_case "measurement before" `Quick test_measurement_before;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "tracepoint duplicate qubit" `Quick
            test_tracepoint_duplicate_qubit;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "depth parallel" `Quick test_depth_parallel_gates;
        ] );
      ( "transform",
        [
          Alcotest.test_case "adjoint inverts" `Quick test_adjoint_inverts;
          Alcotest.test_case "adjoint rejects measure" `Quick test_adjoint_rejects_measure;
          Alcotest.test_case "map_gates prune" `Quick test_map_gates_prune;
          Alcotest.test_case "gate inverse" `Quick test_gate_inverse;
          Alcotest.test_case "controlled sx inverse" `Quick
            test_controlled_sx_inverse;
          Alcotest.test_case "gate remap" `Quick test_gate_remap;
          Alcotest.test_case "mcz symmetry" `Quick test_mcz_symmetry;
        ] );
    ]
