(* Static-analysis subsystem tests (DESIGN.md §10): golden lint
   diagnostics with file:line positions, lightcone/classify/dataflow unit
   tests, and QCheck soundness properties for analysis-driven pruning and
   stabilizer routing. *)

open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

(* ----------------------- golden lint diagnostics ---------------------- *)

let codes ds = List.map (fun d -> d.Analysis.Lint.code) ds

let has_code code ds = List.mem code (codes ds)

let find_code name code ds =
  match List.find_opt (fun d -> d.Analysis.Lint.code = code) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "%s: expected %s among [%s]" name code
        (String.concat "; " (codes ds))

(* every diagnostic the golden corpus triggers, with its source location *)
let golden =
  [
    ("syntax error", "qreg q[1];\nh q[0] oops;", "MQ000", Some (2, 8));
    ("qubit range", "qreg q[2];\nh q[5];", "MQ001", Some (2, 1));
    ( "clbit range",
      "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];",
      "MQ002",
      Some (3, 1) );
    ("duplicate operand", "qreg q[2];\ncx q[0],q[0];", "MQ003", Some (2, 1));
    ( "duplicate tracepoint qubit",
      "qreg q[2];\nh q[0];\nT 1 q[0,0];",
      "MQ003",
      Some (3, 1) );
    ( "duplicate tracepoint",
      "qreg q[1];\nT 1 q[0];\nh q[0];\nT 1 q[0];",
      "MQ004",
      Some (4, 1) );
    ("reserved tracepoint", "qreg q[1];\nh q[0];\nT 0 q[0];", "MQ004", Some (3, 1));
    ( "feedback unwritten",
      "qreg q[2];\ncreg c[1];\nif (c[0]==1) x q[1];",
      "MQ005",
      Some (3, 1) );
    ( "overwritten measure",
      "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> \
       c[0];\nif (c[0]==1) x q[1];",
      "MQ006",
      Some (3, 1) );
    ( "gate after measure",
      "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[0];",
      "MQ007",
      Some (4, 1) );
    ("unused qubit", "qreg q[3];\nh q[0];\ncx q[0],q[1];", "MQ008", None);
    ( "unreachable feedback value",
      "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c[0]==2) x q[1];",
      "MQ009",
      Some (4, 1) );
    ("no-op barrier", "qreg q[2];\nbarrier q[0],q[1];\nh q[0];", "MQ010", Some (2, 1));
    ("no tracepoints", "qreg q[1];\nh q[0];", "MQ011", None);
    ( "untouched tracepoint",
      "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[1];",
      "MQ012",
      Some (4, 1) );
    ("unknown gate", "qreg q[1];\nbanana q[0];", "MQ015", Some (2, 1));
    ("bad register", "qreg q[0];", "MQ016", Some (1, 1));
  ]

let test_golden_corpus () =
  List.iter
    (fun (name, src, code, loc) ->
      let d = find_code name code (Analysis.Lint.lint_qasm src) in
      Alcotest.(check (option (pair int int))) (name ^ " loc") loc d.Analysis.Lint.loc;
      Alcotest.(check bool)
        (name ^ " severity matches table") true
        (d.Analysis.Lint.severity = Analysis.Lint.severity_of_code code))
    golden

(* MQ004 cites where the id was first declared: its source position when
   the circuit came with one, its instruction index otherwise *)
let test_duplicate_tracepoint_cites_first () =
  let src = "qreg q[1];\nh q[0];\nT 1 q[0];\nh q[0];\nT 1 q[0];" in
  let message ds =
    (find_code "duplicate tracepoint" "MQ004" ds).Analysis.Lint.message
  in
  Alcotest.(check string)
    "with locations" "duplicate tracepoint id 1 (first declared at 3:1)"
    (message (Analysis.Lint.lint_qasm src));
  Alcotest.(check string)
    "without locations"
    "duplicate tracepoint id 1 (first declared at instruction 1)"
    (message (Analysis.Lint.check_tracepoint_ids (Qasm.parse src)))

(* the shipped example corpus must stay free of errors and warnings.
   `dune runtest` runs from _build/default/test (the corpus is a declared
   dep at ../examples/qasm); a bare `dune exec` runs from the project
   root. *)
let example_dir () =
  List.find Sys.file_exists [ "../examples/qasm"; "examples/qasm" ]

let test_examples_clean () =
  List.iter
    (fun file ->
      let ds =
        Analysis.Lint.lint_qasm
          (In_channel.with_open_text
             (Filename.concat (example_dir ()) file)
             In_channel.input_all)
      in
      List.iter
        (fun d ->
          if d.Analysis.Lint.severity <> Analysis.Lint.Info then
            Alcotest.failf "%s: unexpected %s" file d.Analysis.Lint.code)
        ds)
    [ "teleport.qasm"; "ghz.qasm"; "bv.qasm" ]

let test_severity_table () =
  (* one entry per code, codes ascending, MQ000 error / MQ011 info pinned *)
  let names = List.map (fun (c, _, _) -> c) Analysis.Lint.codes in
  Alcotest.(check int) "22 codes" 22 (List.length names);
  Alcotest.(check bool) "sorted" true (List.sort compare names = names);
  Alcotest.(check bool) "MQ000 is error" true
    (Analysis.Lint.severity_of_code "MQ000" = Analysis.Lint.Error);
  Alcotest.(check bool) "MQ011 is info" true
    (Analysis.Lint.severity_of_code "MQ011" = Analysis.Lint.Info)

let test_check_certify () =
  (* the MQ021 check: no checker failure yields no diagnostics; each
     failure becomes one Error with its source location and instruction
     index threaded through *)
  Alcotest.(check int)
    "clean" 0
    (List.length (Morphcore.Verify.certify_diagnostics []));
  let failure =
    {
      Transpile.Certify.fail_pass = "cancel";
      kind = "local_equiv";
      reason = "product differs";
      before_index = Some 0;
      after_index = None;
      loc = Some (3, 1);
    }
  in
  match Morphcore.Verify.certify_diagnostics [ failure ] with
  | [ d ] ->
      Alcotest.(check string) "code" "MQ021" d.Analysis.Lint.code;
      Alcotest.(check string)
        "message" (Transpile.Certify.failure_message failure)
        d.Analysis.Lint.message;
      Alcotest.(check bool)
        "error severity" true
        (d.Analysis.Lint.severity = Analysis.Lint.Error);
      Alcotest.(check bool) "loc threaded" true (d.Analysis.Lint.loc = Some (3, 1));
      Alcotest.(check bool) "instr threaded" true (d.Analysis.Lint.instr = Some 0);
      Alcotest.(check bool)
        "table severity" true
        (Analysis.Lint.severity_of_code "MQ021" = Analysis.Lint.Error)
  | ds -> Alcotest.failf "expected one MQ021 diagnostic, got %d" (List.length ds)

let test_first_tracepoint_exempt () =
  (* a leading tracepoint on untouched qubits is the input-pragma idiom *)
  let ds = Analysis.Lint.lint_qasm "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[0];" in
  Alcotest.(check bool) "no MQ012" false (has_code "MQ012" ds)

let test_lint_pp () =
  let d = find_code "pp" "MQ001" (Analysis.Lint.lint_qasm "qreg q[1];\nh q[3];") in
  Alcotest.(check string) "rendered"
    "prog.qasm:2:1: error[MQ001]: Circuit: qubit 3 out of range (register has 1)"
    (Format.asprintf "%a" (Analysis.Lint.pp ~file:"prog.qasm") d)

(* ------------------------- lightcone analysis ------------------------- *)

let test_lightcone_excludes_spectator () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> x 2 |> tracepoint 1 [ 0; 1 ]) in
  match Analysis.Lightcone.cone_of_tracepoint c ~id:1 with
  | None -> Alcotest.fail "missing cone"
  | Some cone ->
      Alcotest.(check (list int)) "cone qubits" [ 0; 1 ] cone.Analysis.Lightcone.qubits;
      Alcotest.(check (array bool)) "keep" [| true; true; false; false |]
        cone.Analysis.Lightcone.keep

let test_lightcone_reset_severs () =
  (* the h on q0 happens before the reset, so it cannot influence T 1 *)
  let c = Circuit.(empty 2 |> h 0 |> reset 0 |> cx 0 1 |> tracepoint 1 [ 1 ]) in
  match Analysis.Lightcone.cone_of_tracepoint c ~id:1 with
  | None -> Alcotest.fail "missing cone"
  | Some cone ->
      Alcotest.(check (list int)) "cone qubits" [ 0; 1 ] cone.Analysis.Lightcone.qubits;
      Alcotest.(check (array bool)) "keep" [| false; true; true; false |]
        cone.Analysis.Lightcone.keep

let test_lightcone_feedback () =
  (* feedback pulls in the measurement that wrote the condition bit, and
     through it the gates on the measured qubit *)
  let corr = Circuit.Gate.make "x" [ 1 ] in
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> measure 0 0 |> if_gate [ 0 ] 1 corr
      |> tracepoint 1 [ 1 ])
  in
  match Analysis.Lightcone.cone_of_tracepoint c ~id:1 with
  | None -> Alcotest.fail "missing cone"
  | Some cone ->
      Alcotest.(check (list int)) "cone qubits" [ 0; 1 ] cone.Analysis.Lightcone.qubits

let test_prune_drops_spectator () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> x 2 |> tracepoint 1 [ 0; 1 ]) in
  let pruned = Transpile.Passes.prune_lightcone c in
  Alcotest.(check int) "gates" 2 (Circuit.gate_count pruned);
  Alcotest.(check int) "tracepoints kept" 1
    (List.length (Circuit.tracepoints pruned))

(* --------------------- Clifford classification ------------------------ *)

let test_classify () =
  let open Analysis.Classify in
  Alcotest.(check bool) "ghz clifford" true
    (circuit Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2) = Clifford);
  Alcotest.(check bool) "one t gate" true
    (circuit Circuit.(empty 1 |> h 0 |> t_gate 0) = Near_clifford 1);
  Alcotest.(check bool) "feedback body counts" true
    (circuit
       Circuit.(
         empty ~clbits:1 1 |> measure 0 0
         |> if_gate [ 0 ] 1 (Circuit.Gate.make ~params:[ 0.3 ] "rz" [ 0 ]))
    = Near_clifford 1);
  Alcotest.(check bool) "cutoff to general" true
    (circuit ~cutoff:2
       Circuit.(empty 1 |> t_gate 0 |> t_gate 0 |> t_gate 0)
    = General)

(* classification must agree with the tableau's dispatch: a gate classified
   Clifford always executes on the tableau, a non-Clifford one never does *)
let gate_corpus =
  List.map
    (fun (name, params, controls, targets) ->
      Circuit.Gate.make ~params ~controls name targets)
    [
      ("h", [], [], [ 0 ]);
      ("s", [], [], [ 1 ]);
      ("sdg", [], [], [ 0 ]);
      ("x", [], [], [ 0 ]);
      ("y", [], [], [ 1 ]);
      ("z", [], [], [ 0 ]);
      ("id", [], [], [ 0 ]);
      ("x", [], [ 0 ], [ 1 ]);
      ("z", [], [ 1 ], [ 0 ]);
      ("swap", [], [], [ 0; 1 ]);
      ("t", [], [], [ 0 ]);
      ("tdg", [], [], [ 0 ]);
      ("sx", [], [], [ 0 ]);
      ("rx", [ 0.25 ], [], [ 0 ]);
      ("rz", [ 1.5 ], [], [ 1 ]);
      ("p", [ 0.75 ], [], [ 0 ]);
      ("y", [], [ 0 ], [ 1 ]);
      ("s", [], [ 0 ], [ 1 ]);
      ("x", [], [ 0; 1 ], [ 2 ]);
      ("swap", [], [ 0 ], [ 1; 2 ]);
    ]

let test_classify_matches_tableau () =
  List.iter
    (fun g ->
      let tableau_accepts =
        match Stabilizer.Tableau.apply_gate g (Stabilizer.Tableau.make 3) with
        | () -> true
        | exception Invalid_argument _ -> false
      in
      Alcotest.(check bool)
        (Format.asprintf "dispatch agreement for %s" g.Circuit.Gate.name)
        tableau_accepts
        (Analysis.Classify.gate_is_clifford g))
    gate_corpus

(* ------------------------- classical dataflow ------------------------- *)

let test_dataflow () =
  let corr = Circuit.Gate.make "x" [ 1 ] in
  let c =
    Circuit.(
      empty ~clbits:2 2 |> if_gate [ 1 ] 1 corr |> measure 0 0 |> measure 1 0
      |> if_gate [ 0 ] 1 corr)
  in
  let r = Analysis.Dataflow.clbits c in
  Alcotest.(check (list (pair int (list int))))
    "unwritten reads" [ (0, [ 1 ]) ] r.Analysis.Dataflow.unwritten_reads;
  Alcotest.(check (list (pair int int)))
    "dead writes" [ (1, 0) ] r.Analysis.Dataflow.dead_writes

(* -------------------- engine routing unit tests ----------------------- *)

let test_stabilizer_engine_matches () =
  let c =
    Circuit.(
      empty 4 |> h 0 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 2 ]
      |> s 2 |> tracepoint 2 [ 2; 3 ])
  in
  Alcotest.(check bool) "applicable" true
    (Sim.Engine.applicable `Stabilizer c);
  let tableau = Sim.Engine.cone_traces `Stabilizer c in
  let sv = (Sim.Engine.run c).Sim.Engine.traces in
  Alcotest.(check bool) "stabilizer = statevec" true
    (Oracle.traces_match tableau sv)

let test_stabilizer_engine_rejects () =
  let c = Circuit.(empty 1 |> t_gate 0 |> tracepoint 1 [ 0 ]) in
  Alcotest.(check bool) "not applicable" false
    (Sim.Engine.applicable `Stabilizer c);
  Alcotest.(check bool) "not routed" true (Sim.Engine.auto_route c = None)

(* --------------------------- QCheck properties ------------------------ *)

let prop_prune_preserves =
  QCheck.Test.make ~name:"prune_lightcone preserves tracepoint states (pure)"
    ~count (Gen.pure ()) Oracle.prune_preserves_traces

let prop_prune_idempotent =
  QCheck.Test.make ~name:"prune_lightcone idempotent (programs)" ~count
    (Gen.program ()) Oracle.prune_idempotent

let prop_restrict_matches =
  QCheck.Test.make ~name:"lightcone restrict reproduces traces (pure)" ~count
    (Gen.pure ()) Oracle.lightcone_restrict_matches

let prop_stabilizer_traces =
  QCheck.Test.make ~name:"stabilizer_traces ~ statevec (clifford)" ~count
    (Gen.clifford ())
    (Oracle.route_vs_statevec `Stabilizer)

let prop_classify_clifford_gen =
  QCheck.Test.make ~name:"clifford generator classifies Clifford" ~count
    (Gen.clifford ())
    (fun circ ->
      Analysis.Classify.circuit (Gen.build circ) = Analysis.Classify.Clifford)

(* the pinned auto-routing regressions are comparatively expensive
   (4 characterizations per case), so they run fewer cases *)
let char_count = max 10 (count / 4)

let prop_auto_unchanged =
  QCheck.Test.make
    ~name:"characterize `Auto bitwise = `Batched off the stabilizer route"
    ~count:char_count (Gen.program ())
    (fun c -> Oracle.characterize_auto_unchanged c)

let prop_auto_unchanged_basis =
  QCheck.Test.make
    ~name:"characterize `Auto bitwise = `Batched (basis kind, non-Clifford)"
    ~count:char_count (Gen.program ())
    (fun c -> Oracle.characterize_auto_unchanged ~kind:Clifford.Sampling.Basis c)

let prop_stabilizer_route =
  QCheck.Test.make
    ~name:"characterize stabilizer route ~ sequential (clifford, basis)"
    ~count:char_count (Gen.clifford ())
    (fun c -> Oracle.characterize_stabilizer_route c)

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "golden corpus" `Quick test_golden_corpus;
          Alcotest.test_case "MQ004 cites the first declaration" `Quick
            test_duplicate_tracepoint_cites_first;
          Alcotest.test_case "examples clean" `Quick test_examples_clean;
          Alcotest.test_case "severity table" `Quick test_severity_table;
          Alcotest.test_case "MQ021 certify callback" `Quick test_check_certify;
          Alcotest.test_case "first tracepoint exempt" `Quick
            test_first_tracepoint_exempt;
          Alcotest.test_case "pp format" `Quick test_lint_pp;
        ] );
      ( "lightcone",
        [
          Alcotest.test_case "excludes spectator" `Quick
            test_lightcone_excludes_spectator;
          Alcotest.test_case "reset severs" `Quick test_lightcone_reset_severs;
          Alcotest.test_case "feedback" `Quick test_lightcone_feedback;
          Alcotest.test_case "prune drops spectator" `Quick
            test_prune_drops_spectator;
        ] );
      ( "classify",
        [
          Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "matches tableau dispatch" `Quick
            test_classify_matches_tableau;
        ] );
      ("dataflow", [ Alcotest.test_case "def/use" `Quick test_dataflow ]);
      ( "engine",
        [
          Alcotest.test_case "stabilizer matches statevec" `Quick
            test_stabilizer_engine_matches;
          Alcotest.test_case "stabilizer rejects non-clifford" `Quick
            test_stabilizer_engine_rejects;
        ] );
      ( "properties",
        List.map qtest
          [
            prop_prune_preserves;
            prop_prune_idempotent;
            prop_restrict_matches;
            prop_stabilizer_traces;
            prop_classify_clifford_gen;
            prop_auto_unchanged;
            prop_auto_unchanged_basis;
            prop_stabilizer_route;
          ] );
    ]
