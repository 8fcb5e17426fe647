(* Cross-engine differential & metamorphic harness (see DESIGN.md §8).

   Every property runs [Testkit.Config.count ()] random circuits (default
   100, lowered by QCHECK_COUNT for `make test-fast`) from the generator
   seed [Testkit.Config.seed ()] — a failure prints the shrunk circuit as
   mini-QASM plus the one-line repro command. *)

open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

(* ---------------- differential oracles ---------------- *)

let oracle_statevec_vs_dm =
  QCheck.Test.make ~name:"statevec ~ dm_engine (pure)" ~count
    (Gen.pure ())
    Oracle.statevec_vs_dm

let oracle_statevec_vs_tableau =
  QCheck.Test.make ~name:"statevec ~ tableau (clifford)" ~count
    (Gen.clifford ())
    Oracle.statevec_vs_tableau

let oracle_statevec_vs_sparse =
  QCheck.Test.make ~name:"statevec ~ sparse_sim (pure, basis inputs)" ~count
    (QCheck.pair (Gen.pure ()) (QCheck.make (QCheck.Gen.int_bound 15)))
    (fun (c, input) -> Oracle.statevec_vs_sparse ~input c)

let oracle_qasm_roundtrip =
  QCheck.Test.make ~name:"qasm parse . print = id (programs)" ~count
    (Gen.program ())
    Oracle.qasm_roundtrip

(* check_counts samples thousands of shots per case: fewer circuits *)
let oracle_sequential_vs_fixed =
  QCheck.Test.make ~name:"sequential budget reproduces fixed verdict"
    ~count:(max 10 (count / 5))
    (Gen.pure ())
    Oracle.sequential_vs_fixed_verdict

let oracle_pvalue_uniform =
  QCheck.Test.make ~name:"p-values uniform under the null"
    ~count:(max 10 (count / 5))
    (Gen.pure ())
    Oracle.pvalue_uniform_under_null

let oracle_transpile_passes =
  List.map
    (fun (name, pass) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "transpile %s preserves unitary" name)
        ~count (Gen.pure ())
        (Oracle.transpile_preserves pass))
    Oracle.all_passes

(* certificate checking runs the full pass + independent-checker pipeline
   per circuit: near-Clifford circuits exercise Clifford-heavy segments,
   programs exercise measurement/feedback fences and pruning *)
let oracle_certified_passes =
  [
    QCheck.Test.make ~name:"certified passes sound (pure)" ~count
      (Gen.pure ()) Oracle.certified_pass_sound;
    QCheck.Test.make ~name:"certified passes sound (near-clifford)" ~count
      (Gen.near_clifford ()) Oracle.certified_pass_sound;
    QCheck.Test.make ~name:"certified passes sound (programs)" ~count
      (Gen.program ()) Oracle.certified_pass_sound;
  ]

(* ---------------- metamorphic properties ---------------- *)

let meta_adjoint =
  QCheck.Test.make ~name:"G; adjoint G = identity" ~count (Gen.pure ())
    Metamorph.adjoint_cancels

let meta_global_phase =
  QCheck.Test.make ~name:"global phase invariance (z x z x = -I)" ~count
    (Gen.pure ())
    Metamorph.global_phase_invariant

let meta_confidence =
  QCheck.Test.make ~name:"Theorem-3 confidence monotone in samples" ~count
    QCheck.(
      pair (int_range 1 8) (list_of_size Gen.(int_range 2 6) (int_bound 5000)))
    (fun (n_in, samples) -> Metamorph.confidence_monotone ~n_in ~samples)

let meta_domain_invariance =
  (* trajectory averaging is the expensive path: fewer, smaller cases *)
  QCheck.Test.make ~name:"tracepoints invariant under domain count"
    ~count:(max 10 (count / 5))
    (QCheck.pair (Gen.program ~max_qubits:3 ()) Gen.noise)
    (fun (c, noise) ->
      Metamorph.traces_domain_invariant ~noise ~trajectories:12
        ~domains:[ 1; 2; 4 ] c)

(* ---------------- shrinking smoke check ----------------

   Break a pass on purpose (rewrite every s into sdg — NOT unitary-
   preserving on its own) and demand that QCheck's shrinker walks the
   failure down to the minimal counterexample: a single uncontrolled s
   gate on a 1-qubit register. Guards the shrinker itself against
   regressions. *)

let s_to_sdg =
  Circuit.map_gates (fun g ->
      Some
        (if g.Circuit.Gate.name = "s" && g.Circuit.Gate.controls = [] then
           Circuit.Gate.make "sdg" g.Circuit.Gate.targets
         else g))

let test_shrinking_minimizes () =
  let cell =
    QCheck.Test.make_cell ~name:"deliberately broken pass" ~count:500
      (Gen.clifford ())
      (Oracle.transpile_preserves s_to_sdg)
  in
  let result = QCheck.Test.check_cell ~rand:(Config.rand ()) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = { instance; shrink_steps; _ } :: _ }
    ->
      let c = Gen.build instance in
      if shrink_steps = 0 then
        Alcotest.fail "counterexample was reported without any shrinking";
      Alcotest.(check int) "shrunk to a single gate" 1 (Circuit.gate_count c);
      Alcotest.(check int) "shrunk to one qubit" 1 (Circuit.num_qubits c);
      let g =
        match Circuit.instrs c with
        | [ Circuit.Instr.Gate g ] -> g
        | _ -> Alcotest.fail "expected exactly one gate instruction"
      in
      Alcotest.(check string) "minimal gate is s" "s" g.Circuit.Gate.name;
      Alcotest.(check (list int)) "uncontrolled" [] g.Circuit.Gate.controls
  | _ ->
      Alcotest.fail
        "broken pass was not caught by the differential oracle at all"

(* ---------------- shrunk-trace regression circuits ----------------

   The three smallest shrunk traces observed while developing the harness,
   pinned as fixed unit tests (satellite task): a lone S (phase-gate sign
   conventions), the Bell pair (entangling + canonicalized cx), and the
   H-T-H sandwich (non-Clifford interference). *)

let regression name circ all =
  ( Printf.sprintf "regression: %s" name,
    `Quick,
    fun () ->
      List.iter
        (fun (oracle_name, ok) ->
          if not (ok circ) then
            Alcotest.failf "%s disagrees on %s:\n%s" oracle_name name
              (Gen.print_circ circ))
        all )

let pure_oracles =
  [
    ("statevec~dm", Oracle.statevec_vs_dm);
    ("statevec~sparse", fun c -> Oracle.statevec_vs_sparse c);
    ("qasm roundtrip", Oracle.qasm_roundtrip);
    ("adjoint cancels", Metamorph.adjoint_cancels);
    ("global phase", Metamorph.global_phase_invariant);
  ]
  @ List.map
      (fun (n, p) ->
        ("transpile " ^ n, fun c -> Oracle.transpile_preserves p c))
      Oracle.all_passes

let clifford_oracles = ("statevec~tableau", Oracle.statevec_vs_tableau) :: pure_oracles

let lone_s = Gen.{ qubits = 1; specs = [ One ("s", [], 0) ] }

let bell =
  Gen.{ qubits = 2; specs = [ One ("h", [], 0); Ctl ("x", [], 0, 1) ] }

let hth =
  Gen.
    {
      qubits = 1;
      specs = [ One ("h", [], 0); One ("t", [], 0); One ("h", [], 0) ];
    }

(* The exact circuit the harness shrank to when it first ran: exposed the
   controlled-sx inverse bug (Gate.inverse returned rx(-pi/2), off by a
   phase that turns relative under a control). *)
let controlled_sx =
  Gen.
    {
      qubits = 2;
      specs =
        [
          One ("u3", [ 0.00649761385448; 0.0; 0.0 ], 0);
          Swap (0, 1);
          Ctl ("sx", [], 1, 0);
          Trace [ 0 ];
        ];
    }

let () =
  Config.announce ();
  Alcotest.run "differential"
    [
      ( "oracles",
        List.map qtest
          ([
             oracle_statevec_vs_dm;
             oracle_statevec_vs_tableau;
             oracle_statevec_vs_sparse;
             oracle_qasm_roundtrip;
             oracle_sequential_vs_fixed;
             oracle_pvalue_uniform;
           ]
          @ oracle_transpile_passes @ oracle_certified_passes) );
      ( "metamorphic",
        List.map qtest
          [
            meta_adjoint;
            meta_global_phase;
            meta_confidence;
            meta_domain_invariance;
          ] );
      ("shrinking", [ ("broken pass shrinks to minimal circuit", `Quick, test_shrinking_minimizes) ]);
      ( "regressions",
        [
          regression "lone s gate" lone_s clifford_oracles;
          regression "bell pair" bell clifford_oracles;
          regression "h-t-h sandwich" hth pure_oracles;
          regression "controlled-sx adjoint (shrunk bug)" controlled_sx
            pure_oracles;
        ] );
    ]
