open Morphcore
open Linalg

let rng () = Stats.Rng.make 2024

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let dm_of_state st =
  let v = Qstate.Statevec.to_cvec st in
  Cmat.outer v v

let zero_dm = dm_of_state (Qstate.Statevec.basis 1 0)
let one_dm = dm_of_state (Qstate.Statevec.basis 1 1)

(* ---------------- Program ---------------- *)

let test_program_embed () =
  let c = Circuit.empty 3 in
  let p = Program.make ~input_qubits:[ 2 ] c in
  let embedded = Program.embed p (Qstate.Statevec.basis 1 1) in
  check_float "q2 set" 1. (Qstate.Statevec.prob1 embedded 2);
  check_float "q0 clear" 0. (Qstate.Statevec.prob1 embedded 0)

let test_program_run_traces_includes_input () =
  let c = Circuit.(empty 2 |> tracepoint 1 [ 0 ]) in
  let p = Program.make c in
  let traces = Program.run_traces p ~input:(Qstate.Statevec.basis 2 1) in
  assert (List.mem_assoc 0 traces);
  assert (List.mem_assoc 1 traces)

(* ---------------- Predicate ---------------- *)

let env_const m : Predicate.env = fun _ -> m

let test_predicate_is_pure () =
  assert (Predicate.holds (Predicate.Is_pure 0) (env_const zero_dm));
  let mixed = Cmat.rscale 0.5 (Cmat.identity 2) in
  assert (not (Predicate.holds (Predicate.Is_pure 0) (env_const mixed)))

let test_predicate_equals () =
  let env tp = if tp = 0 then zero_dm else one_dm in
  assert (not (Predicate.holds (Predicate.Equals (0, 1)) env));
  assert (Predicate.holds (Predicate.Equals (0, 0)) env);
  assert (Predicate.holds (Predicate.Equals_const (1, one_dm)) env);
  assert (Predicate.holds (Predicate.Not_equals_const (1, zero_dm, 0.5)) env)

let test_predicate_expectation () =
  let z = Qstate.Pauli.single 1 0 Qstate.Pauli.Z in
  assert (Predicate.holds (Predicate.Expect_ge (0, z, 0.9)) (env_const zero_dm));
  assert (not (Predicate.holds (Predicate.Expect_ge (0, z, 0.9)) (env_const one_dm)));
  assert (Predicate.holds (Predicate.Expect_le (0, z, -0.9)) (env_const one_dm))

let test_predicate_diag_range () =
  assert (Predicate.holds (Predicate.Diag_in_range (0, 0, 0.9, 1.1)) (env_const zero_dm));
  assert (not (Predicate.holds (Predicate.Diag_in_range (0, 1, 0.5, 1.)) (env_const zero_dm)))

let test_predicate_purity_ge () =
  assert (Predicate.holds (Predicate.Purity_ge (0, 0.99)) (env_const zero_dm));
  let mixed = Cmat.rscale 0.5 (Cmat.identity 2) in
  assert (not (Predicate.holds (Predicate.Purity_ge (0, 0.9)) (env_const mixed)))

let test_predicate_tracepoints () =
  Alcotest.(check (list int)) "equals" [ 1; 2 ]
    (Predicate.tracepoints (Predicate.Equals (1, 2)));
  Alcotest.(check (list int)) "const" [ 3 ]
    (Predicate.tracepoints (Predicate.Equals_const (3, zero_dm)))

(* ---------------- Assertion ---------------- *)

let test_assertion_implication () =
  (* failed assumption -> assertion holds vacuously *)
  let a =
    Assertion.make
      ~assumes:[ Predicate.Equals_const (0, one_dm) ]
      ~guarantees:[ Predicate.Equals_const (0, one_dm) ]
      ()
  in
  assert (Assertion.holds a (env_const zero_dm));
  (* satisfied assumption + violated guarantee -> fails *)
  let b =
    Assertion.make
      ~assumes:[ Predicate.Is_pure 0 ]
      ~guarantees:[ Predicate.Equals_const (0, one_dm) ]
      ()
  in
  assert (not (Assertion.holds b (env_const zero_dm)))

let test_assertion_requires_guarantee () =
  Alcotest.check_raises "empty guarantee"
    (Invalid_argument "Assertion.make: no guarantees") (fun () ->
      ignore (Assertion.make ~assumes:[] ~guarantees:[] ()))

(* ---------------- Characterize / Approx ---------------- *)

let identity_program n =
  Program.make Circuit.(empty n |> tracepoint 1 (List.init n (fun q -> q)))

let test_characterize_shapes () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:6 in
  Alcotest.(check int) "samples" 6 (Array.length c.Characterize.samples);
  Alcotest.(check (list int)) "tracepoints" [ 0; 1 ] (Characterize.tracepoint_ids c);
  assert (c.Characterize.cost.Sim.Cost.executions > 0)

let test_characterize_custom_inputs () =
  let r = rng () in
  let p = identity_program 1 in
  let inputs = [ Qstate.Statevec.basis 1 0; Qstate.Statevec.basis 1 1 ] in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  Alcotest.(check int) "two samples" 2 (Array.length c.Characterize.samples)

let test_characterize_tomography_cost () =
  let r = rng () in
  let p = identity_program 1 in
  let c =
    Characterize.run ~rng:r ~mode:(Characterize.Tomography { shots = 100; project = true })
      p ~count:2
  in
  (* 2 samples x (1 tracepoint x 3 settings) = 6 executions *)
  Alcotest.(check int) "executions" 6 c.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check int) "shots" 600 c.Characterize.cost.Sim.Cost.shots

(* ---------------- characterization by linearity ---------------- *)

(* a layer that fuses into one dense block over [qs]: [ry] and [rz] on
   each qubit around a CX chain *)
let mixing_layer ~seed qs c =
  let rs = Random.State.make [| seed |] in
  let angle () = Random.State.float rs 3. in
  let rot c =
    List.fold_left
      (fun c q -> Circuit.(c |> ry (angle ()) q |> rz (angle ()) q))
      c qs
  in
  let rec chain c = function
    | a :: (b :: _ as rest) -> chain (Circuit.cx a b c) rest
    | _ -> c
  in
  rot (chain (rot c) qs)

let haar_inputs k count =
  let r = Stats.Rng.make 41 in
  List.init count (fun index ->
      Clifford.Sampling.state r Clifford.Sampling.Haar k ~index)

(* One [`Auto] characterization with counters on: the samples, the
   [batch_gemm_macs_total] delta, and the [path] and [columns] attributes
   of its [characterize.run] span. *)
let characterize_observed program inputs =
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  let macs () =
    Option.value ~default:0 (Obs.Metrics.counter_value "batch_gemm_macs_total")
  in
  let m0 = macs () and mark = Obs.Span.mark () in
  let ch = Characterize.run ~rng:(rng ()) ~inputs program ~count:0 in
  let attrs =
    List.find_map
      (fun (ev : Obs.Span.event) ->
        if ev.Obs.Span.name = "characterize.run" && ev.Obs.Span.ph = Obs.Span.E
        then Some ev.Obs.Span.attrs
        else None)
      (Obs.Span.events ~since:mark ())
    |> Option.value ~default:[]
  in
  let attr name = List.assoc_opt name attrs in
  (ch, macs () - m0, attr "path", attr "columns")

(* the run took [path] over [columns] simulated states, spending exactly
   [columns] columns of the plan's MACs *)
let check_path name program inputs ~path ~columns =
  let plan = Transpile.Segments.compile program.Program.circuit in
  let ch, macs, got_path, got_columns = characterize_observed program inputs in
  Alcotest.(check (option string)) (name ^ ": path") (Some path) got_path;
  Alcotest.(check (option string))
    (name ^ ": columns") (Some (string_of_int columns)) got_columns;
  Alcotest.(check int)
    (name ^ ": MACs") (columns * Sim.Batch.column_macs plan) macs;
  (ch, plan)

(* every trace within 1e-12 of the input's own unshared batch run *)
let check_unshared name program plan (ch : Characterize.t) =
  Array.iter
    (fun (s : Characterize.sample) ->
      let reference =
        (Sim.Batch.run_seq plan
           (Program.embed program s.Characterize.input_state))
          .Sim.Engine.traces
      in
      List.iter
        (fun (id, m) ->
          if id <> 0 then begin
            let d = Cmat.sub m (List.assoc id reference) in
            let worst = ref 0. in
            Array.iter
              (fun x -> worst := Float.max !worst (Float.abs x))
              (Array.append d.Cmat.re d.Cmat.im);
            if !worst > 1e-12 then
              Alcotest.failf "%s: tracepoint %d off by %g" name id !worst
          end)
        s.Characterize.traces)
    ch.Characterize.samples

(* four qubits, two of them the input (k = 2), in reversed order: two
   dense four-qubit blocks, each read by a tracepoint, cost one column
   2 x 16 MACs per amplitude, above the combination's T x 2^k = 8 *)
let deep_program () =
  let c =
    Circuit.empty 4 |> mixing_layer ~seed:1 [ 0; 1; 2; 3 ]
    |> Circuit.tracepoint 1 [ 0; 1 ]
    |> mixing_layer ~seed:2 [ 0; 1; 2; 3 ]
    |> Circuit.tracepoint 2 [ 2; 3 ]
  in
  Program.make ~input_qubits:[ 2; 1 ] c

let test_linearity_rule_edges () =
  let program = deep_program () in
  (* m = 2^k distinct inputs: simulating them directly costs no more
     (the same MACs either way, so the span attribute tells the paths
     apart) *)
  ignore
    (check_path "m = 2^k" program (haar_inputs 2 4) ~path:"batched" ~columns:4);
  (* m = 2^k + 1, one of them repeated: the 2^k basis states instead *)
  let inputs = haar_inputs 2 5 in
  let ch, plan =
    check_path "m = 2^k + 1" program (inputs @ [ List.nth inputs 3 ])
      ~path:"span" ~columns:4
  in
  check_unshared "m = 2^k + 1" program plan ch;
  let samples = ch.Characterize.samples in
  Alcotest.(check bool) "repeated input shares its traces" true
    (List.for_all2
       (fun (_, a) (_, b) -> a == b)
       samples.(5).Characterize.traces samples.(3).Characterize.traces);
  (* shallow: one dense segment read by five tracepoints, where combining
     costs more than simulating *)
  let shallow =
    let c = Circuit.empty 4 |> mixing_layer ~seed:3 [ 0; 1; 2; 3 ] in
    Program.make ~input_qubits:[ 0; 1 ]
      (List.fold_left
         (fun c id -> Circuit.tracepoint id [ id mod 4 ] c)
         c [ 1; 2; 3; 4; 5 ])
  in
  ignore
    (check_path "shallow" shallow (haar_inputs 2 5) ~path:"batched" ~columns:5);
  (* 2^3 basis states of 2^19 amplitudes exceed the 2^21 budget, although
     the count and cost conditions hold: a segment wider than the fusion
     cutoff packs into three dense three-qubit blocks *)
  let wide =
    Program.make ~input_qubits:[ 0; 1; 2 ]
      (Circuit.empty 19 |> mixing_layer ~seed:4 [ 0; 1; 2 ]
      |> mixing_layer ~seed:5 [ 3; 4; 5 ]
      |> mixing_layer ~seed:6 [ 6; 7; 8 ]
      |> Circuit.tracepoint 1 [ 0 ])
  in
  let wide_plan = Transpile.Segments.compile wide.Program.circuit in
  Alcotest.(check bool) "wide: cost condition holds" true
    (Sim.Batch.column_macs wide_plan > 8 lsl 19);
  ignore (check_path "wide" wide (haar_inputs 3 9) ~path:"batched" ~columns:9)

let test_approx_exact_on_identity () =
  (* identity program: tracepoint state must equal the input exactly for any
     input in the sampled span *)
  let r = rng () in
  let p = identity_program 1 in
  (* the 1-qubit tomography basis spans the full Hermitian space *)
  let plus =
    Qstate.Statevec.of_cvec 1
      (Cvec.rscale (1. /. sqrt 2.) (Cvec.of_list [ Cx.one; Cx.one ]))
  in
  let plus_i =
    Qstate.Statevec.of_cvec 1
      (Cvec.rscale (1. /. sqrt 2.) (Cvec.of_list [ Cx.one; Cx.i ]))
  in
  let inputs =
    [ Qstate.Statevec.basis 1 0; Qstate.Statevec.basis 1 1; plus; plus_i ]
  in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  let approx = Approx.of_characterization c in
  for _ = 1 to 10 do
    let test_in = dm_of_state (Clifford.Sampling.haar_state r 1) in
    let out = Approx.state_at approx ~tracepoint:1 test_in in
    let acc = Approx.accuracy out test_in in
    check_float "identity accuracy" 1. acc ~eps:1e-6
  done

let test_approx_case1_exact () =
  (* Theorem 2 case 1: inputs in the sampled span are exactly reproduced,
     through a non-trivial unitary *)
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> rz 0.37 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:8 in
  let approx = Approx.of_characterization c in
  (* mixture of sampled inputs = case 1 *)
  let sampled = Array.to_list (Array.map (fun s -> s.Characterize.input_state) c.Characterize.samples) in
  let rho_in = Clifford.Sampling.random_mixture r sampled in
  let predicted = Approx.state_at approx ~tracepoint:1 rho_in in
  (* ground truth by density simulation *)
  let truth =
    let dm = Qstate.Density.of_cmat 2 rho_in in
    let o = Sim.Dm_engine.run ~initial:dm circ in
    List.assoc 1 o.Sim.Dm_engine.traces
  in
  check_float "case1 exact" 1. (Approx.accuracy predicted truth) ~eps:1e-6

let test_approx_accuracy_improves_with_samples () =
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> t_gate 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  let acc_at count =
    let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count in
    let approx = Approx.of_characterization c in
    let accs = Verify.probe_accuracies ~rng:r ~count:12 approx p ~tracepoint:1 in
    Stats.Describe.mean accs
  in
  let low = acc_at 2 and high = acc_at 16 in
  if high < low +. 0.05 then
    Alcotest.failf "accuracy did not improve: %.3f -> %.3f" low high;
  if high < 0.95 then Alcotest.failf "high-sample accuracy too low: %.3f" high

let test_approx_theoretical_accuracy () =
  check_float "half" 0.5 (Approx.theoretical_accuracy ~n_in:2 ~n_sample:4);
  check_float "capped" 1. (Approx.theoretical_accuracy ~n_in:1 ~n_sample:100);
  Alcotest.(check int) "full samples" 8 (Approx.samples_for_full_accuracy ~n_in:2)

let test_approx_decompose_modes () =
  let r = rng () in
  let p = identity_program 1 in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
  let approx = Approx.of_characterization c in
  let rho = dm_of_state (Clifford.Sampling.haar_state r 1) in
  let a_ls = Approx.decompose ~mode:`Least_squares approx rho in
  let a_exp = Approx.decompose ~mode:`Expectation approx rho in
  Alcotest.(check int) "dims" (Array.length a_ls) (Array.length a_exp);
  (* least squares reconstruction beats the expectation heuristic *)
  let err mode_alpha =
    Cmat.frob_norm (Cmat.sub rho (Approx.input_of_alpha approx mode_alpha))
  in
  assert (err a_ls <= err a_exp +. 1e-9)

let test_approx_chain () =
  let f1 rho = Cmat.rscale 2. rho and f2 rho = Cmat.rscale 3. rho in
  let out = Approx.chain [ f1; f2 ] (Cmat.identity 2) in
  check_float "chained scale" 6. (Cx.re (Cmat.get out 0 0))

(* ---------------- Confidence ---------------- *)

let test_confidence_increases_with_samples () =
  let accs = [| 0.55; 0.6; 0.62; 0.58; 0.63; 0.57 |] in
  let low = (Confidence.estimate ~n_in:3 ~n_sample:4 accs).Confidence.confidence in
  let high = (Confidence.estimate ~n_in:3 ~n_sample:16 accs).Confidence.confidence in
  if high < low then Alcotest.fail "confidence must grow with samples"

let test_confidence_bounds () =
  let c = Confidence.estimate ~n_in:2 ~n_sample:8 [| 0.9; 0.95; 0.92 |] in
  assert (c.Confidence.confidence >= 0. && c.Confidence.confidence <= 1.)

let test_confidence_required_samples () =
  Alcotest.(check int) "required" 8
    (Confidence.required_samples ~n_in:2 ~target_accuracy:1.);
  Alcotest.(check int) "half" 4
    (Confidence.required_samples ~n_in:2 ~target_accuracy:0.5)

let test_exhaustive_confidence () =
  check_float "linear" 0.5 (Confidence.exhaustive_confidence ~space:100. ~tested:50.);
  check_float "capped" 1. (Confidence.exhaustive_confidence ~space:10. ~tested:20.)

(* ---------------- Prune ---------------- *)

let test_prune_adapt () =
  let r = rng () in
  (* dataset concentrated on |0> and |1>: two eigenvectors suffice *)
  let dataset =
    List.init 20 (fun i -> if i mod 2 = 0 then zero_dm else one_dm)
  in
  let kept = Prune.strategy_adapt ~energy:0.99 dataset in
  Alcotest.(check int) "two directions" 2 (List.length kept);
  let top = Prune.strategy_adapt_top ~keep:1 dataset in
  Alcotest.(check int) "top 1" 1 (List.length top);
  ignore r

let test_prune_const () =
  let p = Program.make (Circuit.empty 3) in
  let restricted = Prune.strategy_const p ~variable_qubits:[ 0; 1 ] in
  Alcotest.(check int) "restricted input" 2 (Program.num_input_qubits restricted);
  Alcotest.check_raises "not a subset"
    (Invalid_argument "Prune.strategy_const: qubit not in the current input")
    (fun () ->
      ignore (Prune.strategy_const restricted ~variable_qubits:[ 2 ]))

let test_prune_prop_reduction () =
  Alcotest.(check int) "3^2" 9 (Prune.prop_shot_reduction ~n_t:2);
  Alcotest.(check int) "3^4" 81 (Prune.prop_shot_reduction ~n_t:4)

(* ---------------- Verify (end to end) ---------------- *)

let lock_program ?unexpected_key () =
  let lock = Benchmarks.Quantum_lock.make ~key:1 ?unexpected_key 3 in
  ( Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
      lock.Benchmarks.Quantum_lock.circuit,
    lock )

let lock_assertion =
  Assertion.make ~name:"lock"
    ~assumes:[ Predicate.Diag_in_range (1, 1, 0., 0.01) ]
    ~guarantees:[ Predicate.Equals_const (2, zero_dm) ]
    ()

let test_verify_correct_lock () =
  let r = rng () in
  let prog, _ = lock_program () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Verified _ -> ()
  | Verify.Violated { objective; _ } ->
      Alcotest.failf "false positive on correct lock (obj %.3f)" objective

let test_verify_buggy_lock () =
  let r = rng () in
  let prog, _ = lock_program ~unexpected_key:6 () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Violated { counterexample; _ } ->
      (* counterexample must be a valid state *)
      assert (Qstate.Density.is_valid ~eps:1e-6 (Qstate.Density.of_cmat 3 counterexample))
  | Verify.Verified _ -> Alcotest.fail "missed the planted bug"

let test_verify_teleport () =
  let r = rng () in
  let prog = Program.make ~input_qubits:[ 0 ] (Benchmarks.Teleport.single ()) in
  let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar prog ~count:6 in
  let approx = Approx.of_characterization c in
  let a =
    Assertion.make ~name:"teleport"
      ~assumes:[ Predicate.Is_pure 0 ]
      ~guarantees:[ Predicate.Equals (0, 2) ]
      ()
  in
  match Verify.validate ~rng:r approx a with
  | Verify.Verified { max_objective; _ } ->
      if max_objective > 0.05 then Alcotest.fail "objective should be ~0"
  | Verify.Violated _ -> Alcotest.fail "teleportation is correct"

let test_verify_check_on_program () =
  let prog, _ = lock_program ~unexpected_key:6 () in
  (* basis input 6 violates; basis input 3 satisfies *)
  assert (not (Verify.check_on_program prog lock_assertion ~input:(Qstate.Statevec.basis 3 6)));
  assert (Verify.check_on_program prog lock_assertion ~input:(Qstate.Statevec.basis 3 3))

let test_verify_probe_accuracies_range () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:16 in
  let approx = Approx.of_characterization c in
  let accs = Verify.probe_accuracies ~rng:r ~count:8 approx p ~tracepoint:1 in
  Array.iter (fun a -> assert (a >= -1e-9 && a <= 1. +. 1e-6)) accs

(* ---------------- Prop_approx ---------------- *)

let test_prop_approx_exact_on_span () =
  let r = rng () in
  let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> rz 0.4 1 |> tracepoint 1 [ 0; 1 ]) in
  let p = Program.make circ in
  (* full-span Haar samples: predictions must be exact for any input *)
  let inputs = List.init 16 (fun _ -> Clifford.Sampling.haar_state r 2) in
  let c = Characterize.run ~rng:r ~inputs p ~count:0 in
  let zz = Qstate.Pauli.of_string "ZZ" and xi = Qstate.Pauli.of_string "XI" in
  let pa = Prop_approx.of_characterization ~observables:[ zz; xi ] ~tracepoint:1 c in
  for _ = 1 to 6 do
    let input = Clifford.Sampling.haar_state r 2 in
    let truth = List.assoc 1 (Program.run_traces ~rng:r p ~input) in
    let predicted = Prop_approx.predict pa (dm_of_state input) in
    check_float "ZZ" (Qstate.Pauli.expectation_dm zz truth) predicted.(0) ~eps:1e-6;
    check_float "XI" (Qstate.Pauli.expectation_dm xi truth) predicted.(1) ~eps:1e-6
  done

let test_prop_approx_settings () =
  let r = rng () in
  let p = identity_program 2 in
  let c = Characterize.run ~rng:r p ~count:4 in
  let obs = [ Qstate.Pauli.of_string "ZZ"; Qstate.Pauli.of_string "ZI"; Qstate.Pauli.of_string "XX" ] in
  let pa = Prop_approx.of_characterization ~observables:obs ~tracepoint:1 c in
  (* ZZ and ZI share a support pattern family but differ here; count distinct *)
  Alcotest.(check int) "settings" 3 (Prop_approx.measurement_settings pa);
  Alcotest.(check int) "obs count" 3 (List.length (Prop_approx.observables pa))

let test_prop_approx_clamped () =
  let r = rng () in
  let p = identity_program 1 in
  let c = Characterize.run ~rng:r p ~count:2 in
  let pa =
    Prop_approx.of_characterization
      ~observables:[ Qstate.Pauli.of_string "Z" ] ~tracepoint:1 c
  in
  for _ = 1 to 10 do
    let v = (Prop_approx.predict pa (dm_of_state (Clifford.Sampling.haar_state r 1))).(0) in
    assert (v >= -1. && v <= 1.)
  done

(* ---------------- counterexample minimization + properties ---------------- *)

let test_minimize_counterexample_lock () =
  let r = rng () in
  let prog, lock = lock_program ~unexpected_key:6 () in
  let c = Characterize.run ~rng:r prog ~count:16 in
  let approx = Approx.of_characterization c in
  match Verify.validate ~rng:r ~confirm:prog approx lock_assertion with
  | Verify.Violated { counterexample; _ } ->
      let minimized =
        Verify.minimize_counterexample prog lock_assertion ~counterexample
      in
      (* the minimized input must itself violate the assertion *)
      assert (not (Verify.check_on_program prog lock_assertion ~input:minimized));
      ignore lock
  | Verify.Verified _ -> Alcotest.fail "bug missed"

let prop_isomorphism_linearity =
  (* Theorem 1's heart: the approximation is linear — f(a rho1 + b rho2) =
     a f(rho1) + b f(rho2) for the least-squares decomposition *)
  QCheck.Test.make ~name:"approximation is linear" ~count:25
    QCheck.(triple (int_range 0 10_000) (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (seed, a, b) ->
      let r = Stats.Rng.make seed in
      let circ = Circuit.(empty 2 |> h 0 |> cx 0 1 |> t_gate 1 |> tracepoint 1 [ 0; 1 ]) in
      let p = Program.make circ in
      let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
      let approx = Approx.of_characterization c in
      let rho1 = dm_of_state (Clifford.Sampling.haar_state r 2) in
      let rho2 = dm_of_state (Clifford.Sampling.haar_state r 2) in
      let lhs =
        Approx.state_at ~physical:false approx ~tracepoint:1
          (Cmat.add (Cmat.rscale a rho1) (Cmat.rscale b rho2))
      in
      let rhs =
        Cmat.add
          (Cmat.rscale a (Approx.state_at ~physical:false approx ~tracepoint:1 rho1))
          (Cmat.rscale b (Approx.state_at ~physical:false approx ~tracepoint:1 rho2))
      in
      Cmat.frob_norm (Cmat.sub lhs rhs) < 1e-6)

let prop_case1_exactness =
  (* any convex mixture of sampled inputs is reproduced exactly *)
  QCheck.Test.make ~name:"case-1 inputs are exact" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Stats.Rng.make seed in
      let circ = Circuit.(empty 2 |> h 1 |> cx 1 0 |> s 0 |> tracepoint 1 [ 0; 1 ]) in
      let p = Program.make circ in
      let c = Characterize.run ~rng:r ~kind:Clifford.Sampling.Haar p ~count:6 in
      let approx = Approx.of_characterization c in
      let sampled =
        Array.to_list
          (Array.map (fun s -> s.Characterize.input_state) c.Characterize.samples)
      in
      let rho_in = Clifford.Sampling.random_mixture r sampled in
      let predicted = Approx.state_at approx ~tracepoint:1 rho_in in
      let truth =
        let o = Sim.Dm_engine.run ~initial:(Qstate.Density.of_cmat 2 rho_in) circ in
        List.assoc 1 o.Sim.Dm_engine.traces
      in
      Approx.accuracy predicted truth > 1. -. 1e-6)

(* ---------------- distribution assertions ---------------- *)

let ghz3 = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2)
let ghz3_dist () = Assertion.Dist.make [ (0, 0.5); (7, 0.5) ]

let test_dist_validation () =
  let d = ghz3_dist () in
  check_float ~eps:1e-12 "other mass" 0. (Assertion.Dist.other_mass d);
  check_float "default significance" 0.05 d.Assertion.Dist.significance;
  List.iter
    (fun (sig_, pairs) ->
      match Assertion.Dist.make ?significance:sig_ pairs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Dist.make accepted an invalid spec")
    [
      (None, []);
      (None, [ (0, 0.5); (0, 0.5) ]) (* duplicate index *);
      (None, [ (-1, 0.5) ]);
      (None, [ (0, 1.5) ]);
      (None, [ (0, 0.7); (1, 0.7) ]) (* mass > 1 *);
      (Some 0., [ (0, 0.5) ]);
      (Some 1., [ (0, 0.5) ]);
    ]

let test_check_counts_fixed_holds () =
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let r =
    Verify.check_counts ~budget:(`Fixed 2048) ~rng:(rng ()) program
      (ghz3_dist ()) ~input
  in
  if not r.Verify.counts_hold then
    Alcotest.failf "GHZ counts rejected (p = %g)" r.Verify.test.Stats.Tests.pvalue;
  Alcotest.(check int) "spent the fixed budget" 2048 r.Verify.shots_used;
  Alcotest.(check bool) "no early stop on fixed" false r.Verify.early_stop

let test_check_counts_sequential_agrees () =
  (* same program, same expectation: the sequential budget must reach the
     same verdict while spending strictly fewer shots (GHZ accepts in the
     first few SPRT blocks) *)
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let budget =
    `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 2048 }
  in
  let r = Verify.check_counts ~budget ~rng:(rng ()) program (ghz3_dist ()) ~input in
  Alcotest.(check bool) "holds" true r.Verify.counts_hold;
  Alcotest.(check bool) "stopped early" true r.Verify.early_stop;
  if r.Verify.shots_used >= 2048 then
    Alcotest.failf "sequential spent the whole cap (%d)" r.Verify.shots_used

let test_check_counts_rejects_wrong_dist () =
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let wrong = Assertion.Dist.make [ (0, 0.9); (7, 0.1) ] in
  List.iter
    (fun budget ->
      let r = Verify.check_counts ~budget ~rng:(rng ()) program wrong ~input in
      if r.Verify.counts_hold then
        Alcotest.fail "0.9/0.1 expectation must be rejected on GHZ")
    [
      `Fixed 2048;
      `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 2048 };
    ]

let test_check_counts_impossible_outcome () =
  (* claiming all mass on |111> while the program emits |000> half the
     time: a zero-probability category is observed, so the sequential
     path must reject with certainty (p = 0) *)
  let program = Program.make ghz3 in
  let input = Qstate.Statevec.basis 3 0 in
  let point = Assertion.Dist.make [ (7, 1.0) ] in
  let r =
    Verify.check_counts
      ~budget:(`Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 4096 })
      ~rng:(rng ()) program point ~input
  in
  Alcotest.(check bool) "rejected" false r.Verify.counts_hold;
  check_float ~eps:0. "certain rejection" 0. r.Verify.test.Stats.Tests.pvalue

let test_sequential_tomography_matches_fixed () =
  (* sequential tomography on a basis state: strictly fewer shots, same
     reconstruction to within the shot-noise of the cap *)
  let c = Circuit.(empty 2 |> x 0 |> tracepoint 1 [ 0; 1 ]) in
  let program = Program.make c in
  let budget =
    `Sequential { Stats.Tests.alpha = 0.05; beta = 0.05; max_shots = 256 }
  in
  let run_mode budget =
    Characterize.run ~rng:(rng ())
      ~mode:(Characterize.Tomography { shots = 256; project = true })
      ?budget program ~count:2
  in
  let fixed = run_mode None and seq = run_mode (Some budget) in
  let cost c = c.Characterize.cost.Sim.Cost.shots in
  if cost seq >= cost fixed then
    Alcotest.failf "sequential tomography spent %d shots >= fixed %d" (cost seq)
      (cost fixed);
  Array.iter2
    (fun (a : Characterize.sample) (b : Characterize.sample) ->
      List.iter2
        (fun (ia, ma) (ib, mb) ->
          if ia <> ib then Alcotest.fail "tracepoint ids diverged";
          if Cmat.frob_norm (Cmat.sub ma mb) > 0.35 then
            Alcotest.fail "sequential reconstruction drifted from fixed")
        a.Characterize.traces b.Characterize.traces)
    fixed.Characterize.samples seq.Characterize.samples

(* ---------------- verdict golden ---------------- *)

(* [validate_golden.txt] pins [Verify.validate] bit for bit: the lock
   with its assumption (correct and planted-bug), teleport, and a
   mirror-2 program as serve-mix edits it (clean and detuned), each under
   every solver and both projections. A line holds the verdict, the
   objective and alpha as hex floats, a digest of the counterexample's
   bits and the solver's objective evaluations ([solver_evals_total]). *)

(* perfbench's serve-mix mirror on two qubits: rotations, a CX pair, the
   inverse rotations ([inv] detunes them), tracepoints 3-4 before and
   1-2 after *)
let mirror2 ?inv angles =
  let inv = Option.value ~default:angles inv in
  let c = ref (Circuit.empty 2) in
  for q = 0 to 1 do
    c := Circuit.tracepoint (3 + q) [ q ] !c
  done;
  for q = 0 to 1 do
    c := !c |> Circuit.ry angles.(2 * q) q |> Circuit.rz angles.((2 * q) + 1) q
  done;
  c := !c |> Circuit.cx 0 1 |> Circuit.cx 0 1;
  for q = 1 downto 0 do
    c := !c |> Circuit.rz (-.inv.((2 * q) + 1)) q |> Circuit.ry (-.inv.(2 * q)) q
  done;
  for q = 0 to 1 do
    c := Circuit.tracepoint (q + 1) [ q ] !c
  done;
  Program.make !c

let golden_cases () =
  let mirror_angles = [| 0.9; 1.7; 2.3; 0.4 |] in
  let mirror =
    Assertion.make ~name:"mirror"
      ~assumes:[]
      ~guarantees:[ Predicate.Equals (3, 1); Predicate.Equals (4, 2) ]
      ()
  in
  let teleport =
    Assertion.make ~name:"teleport"
      ~assumes:[ Predicate.Is_pure 0 ]
      ~guarantees:[ Predicate.Equals (0, 2) ]
      ()
  in
  [
    ("lock", fst (lock_program ()), lock_assertion, None, 16);
    ("lock.bug", fst (lock_program ~unexpected_key:6 ()), lock_assertion, None, 16);
    ( "teleport",
      Program.make ~input_qubits:[ 0 ] (Benchmarks.Teleport.single ()),
      teleport,
      Some Clifford.Sampling.Haar,
      6 );
    ("mirror-2", mirror2 mirror_angles, mirror, None, 8);
    ( "mirror-2.bug",
      mirror2 ~inv:[| 0.9; 1.7; 2.3; 1.2 |] mirror_angles,
      mirror,
      None,
      8 );
  ]

let solver_evals () =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"solver_evals_total" name then acc + v
      else acc)
    0 (Obs.Metrics.counters ())

let bits_into b (re, im) =
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) re;
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) im

let cmat_digest m =
  let b = Buffer.create 256 in
  bits_into b (m.Cmat.re, m.Cmat.im);
  Digest.to_hex (Digest.string (Buffer.contents b))

let validate_golden_text () =
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, prog, assertion, kind, count) ->
      let approx =
        Approx.of_characterization
          (Characterize.run ~rng:(Stats.Rng.make 2024) ?kind prog ~count)
      in
      List.iter
        (fun solver ->
          let options = { Verify.default_options with solver } in
          let before = solver_evals () in
          let verdict =
            Verify.validate ~options ~rng:(Stats.Rng.make 7) ~confirm:prog
              approx assertion
          in
          let evals = solver_evals () - before in
          Printf.bprintf b "%s %s " name
            (Optimize.Solvers.method_to_string solver);
          (match verdict with
          | Verify.Verified { max_objective; _ } ->
              Printf.bprintf b "verified max_objective=%h" max_objective
          | Verify.Violated { counterexample; alpha; objective } ->
              Printf.bprintf b "violated objective=%h alpha=%s cex=%s"
                objective
                (String.concat ","
                   (Array.to_list (Array.map (Printf.sprintf "%h") alpha)))
                (cmat_digest counterexample));
          Printf.bprintf b " evals=%d\n" evals)
        [ `Qp; `Adam; `Anneal; `Genetic ])
    (golden_cases ());
  Buffer.contents b

(* the objective and every assumption at one alpha read one environment:
   the evaluator projects once (two GEMMs), not once per predicate *)
let test_evaluator_projects_once () =
  let r = rng () in
  let prog, _ = lock_program () in
  let approx =
    Approx.of_characterization (Characterize.run ~rng:r prog ~count:16)
  in
  let assertion =
    Assertion.make
      ~assumes:
        [
          Predicate.Diag_in_range (1, 1, 0., 0.01);
          Predicate.Purity_ge (1, 0.5);
        ]
      ~guarantees:[ Predicate.Equals_const (2, zero_dm) ]
      ()
  in
  let ev = Verify.evaluator approx assertion in
  let x = Array.init 16 (fun i -> Float.of_int (i mod 5) /. 4.) in
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  let macs () =
    Option.value ~default:0 (Obs.Metrics.counter_value "gemm_macs_total")
  in
  let m0 = macs () in
  List.iter (fun g -> ignore (g x)) ev.Verify.constraints;
  ignore (ev.Verify.objective x);
  let m1 = macs () in
  Alcotest.(check bool) "MACs counted" true (m1 > m0);
  ignore (Eig.project_psd (Approx.input_of_alpha approx x));
  Alcotest.(check int) "one projection's MACs" (macs () - m1) (m1 - m0)

(* Range coordinates: 4 Clifford samples of 6 input qubits span a
   4-dimensional range, so one evaluation projects a 4 x 4 matrix, not a
   64 x 64 one. The assertion reads no predicate that multiplies
   matrices, so the projection's recomposition is every GEMM the
   evaluation runs. *)
let test_evaluator_projects_in_range () =
  let prog =
    Program.make Circuit.(empty 6 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0; 1 ])
  in
  let approx =
    Approx.of_characterization
      (Characterize.run ~rng:(Stats.Rng.make 6) prog ~count:4)
  in
  let assertion =
    Assertion.make ~assumes:[]
      ~guarantees:
        [ Predicate.Equals_const (1, dm_of_state (Qstate.Statevec.basis 2 0)) ]
      ()
  in
  let ev = Verify.evaluator approx assertion in
  let dense =
    Cmat.init 4 4 (fun i j ->
        if i = j then Cx.of_float 2. else Cx.make 0.25 (0.1 *. float_of_int (i - j)))
  in
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  let macs () =
    Option.value ~default:0 (Obs.Metrics.counter_value "gemm_macs_total")
  in
  let m0 = macs () in
  ignore (ev.Verify.objective [| 0.4; 0.3; 0.2; 0.1 |]);
  let m1 = macs () in
  ignore (Eig.project_psd dense);
  Alcotest.(check int) "a 4x4 projection's MACs" (macs () - m1) (m1 - m0)

(* the validation objective's evaluator against a frozen copy of the
   allocating path it replaced, in Int64 bits (see
   [Testkit.Oracle.objective_exact]) *)
let prop_objective_exact =
  QCheck.Test.make ~name:"objective bit-identical to the reference"
    ~count:(Testkit.Config.count ())
    QCheck.(int_range 0 1_000_000)
    Testkit.Oracle.objective_exact

let read_golden name =
  List.find Sys.file_exists [ name; "test/" ^ name ]
  |> Fun.flip In_channel.with_open_text In_channel.input_all

(* repeated inputs share one exact simulation only where that is exact:
   every pure decision bit-identical to references that share nothing,
   impure runs per sample (see [Testkit.Oracle.characterize_repeats_exact]) *)
let prop_characterize_repeats_exact =
  QCheck.Test.make ~name:"repeated inputs share exact simulations"
    ~count:(max 10 (Testkit.Config.count () / 2))
    (Testkit.Gen.program ())
    (fun c -> Testkit.Oracle.characterize_repeats_exact c)

let test_validate_golden () =
  let expected = read_golden "validate_golden.txt" in
  let got = validate_golden_text () in
  if got <> expected then
    Alcotest.failf "Verify.validate drifted from validate_golden.txt:\n%s" got

(* Norm guarantees are decided by the two bounds, not the solver
   (DESIGN.md section 5): the golden's teleport and mirror cases spend no
   solver evaluation, whatever the solver, and say which bound decided;
   with an [Equals_const] guarantee added, the solver runs. *)
let test_norm_guarantees_skip_solver () =
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) @@ fun () ->
  let decided by =
    Option.value ~default:0
      (Obs.Metrics.counter_value ~labels:[ ("by", by) ] "verify_decided_total")
  in
  List.iter
    (fun (name, prog, assertion, kind, count) ->
      let approx =
        Approx.of_characterization
          (Characterize.run ~rng:(Stats.Rng.make 2024) ?kind prog ~count)
      in
      let with_const =
        Assertion.make ~name:"with-const"
          ~assumes:assertion.Assertion.assumes
          ~guarantees:
            (assertion.Assertion.guarantees
            @ [ Predicate.Equals_const (2, zero_dm) ])
          ()
      in
      let expected = if name = "mirror-2.bug" then "sample" else "bound" in
      List.iter
        (fun solver ->
          let run assertion =
            let options = { Verify.default_options with solver } in
            let evals = solver_evals () and by = decided expected in
            let mark = Obs.Span.mark () in
            ignore
              (Verify.validate ~options ~rng:(Stats.Rng.make 7) ~confirm:prog
                 approx assertion);
            let span_by =
              List.find_map
                (fun (ev : Obs.Span.event) ->
                  if
                    ev.Obs.Span.name = "verify.validate"
                    && ev.Obs.Span.ph = Obs.Span.E
                  then List.assoc_opt "by" ev.Obs.Span.attrs
                  else None)
                (Obs.Span.events ~since:mark ())
            in
            (solver_evals () - evals, decided expected - by, span_by)
          in
          let label what =
            Printf.sprintf "%s %s %s" name
              (Optimize.Solvers.method_to_string solver)
              what
          in
          let evals, by, span_by = run assertion in
          Alcotest.(check int) (label "evals") 0 evals;
          Alcotest.(check int) (label ("decided by " ^ expected)) 1 by;
          Alcotest.(check (option string)) (label "span by") (Some expected)
            span_by;
          let evals, _, span_by = run with_const in
          Alcotest.(check bool) (label "equals_const solves") true (evals > 0);
          Alcotest.(check (option string)) (label "equals_const span by")
            (Some "solver") span_by)
        [ `Qp; `Adam; `Anneal; `Genetic ])
    (List.filter
       (fun (name, _, _, _, _) ->
         List.mem name [ "teleport"; "mirror-2"; "mirror-2.bug" ])
       (golden_cases ()))

(* the upper bound covers every objective value and the sample verdicts
   are real (see [Testkit.Oracle.norm_bounds_sound]) *)
let prop_norm_bounds_sound =
  QCheck.Test.make ~name:"norm bounds are sound"
    ~count:(max 10 (Testkit.Config.count () / 2))
    (Testkit.Gen.program ())
    Testkit.Oracle.norm_bounds_sound

(* a failing property prints a replay command for this executable *)
let test_replay_names_running_exe () =
  let printed =
    Testkit.Gen.print_circ { Testkit.Gen.qubits = 1; specs = [] }
  in
  let want =
    Printf.sprintf "-- replay: %s <test name>\n"
      (Testkit.Config.repro ~exe:"test/test_core.exe --")
  in
  if not (String.ends_with ~suffix:want printed) then
    Alcotest.failf "replay line %S does not end with %S" printed want

(* ---------------- characterization golden ---------------- *)

(* [characterize_golden.txt] pins [Characterize.run] bit for bit on every
   engine decision: the stabilizer, sparse and rank routes, dense and
   measured batches, noisy and ideal sequential runs, cached units and
   explicit inputs, each drawing more samples than it has distinct inputs
   and each under every mode. A line holds an MD5 of every sample's input
   state, input density and traces (Int64 bits, in sample order), the
   cost meter's fields and the fingerprint of the caller's generator
   after the run. *)

let characterization_digest (ch : Characterize.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (s : Characterize.sample) ->
      let st = s.Characterize.input_state in
      bits_into b (st.Qstate.Statevec.re, st.Qstate.Statevec.im);
      bits_into b (s.Characterize.input_dm.Cmat.re, s.Characterize.input_dm.Cmat.im);
      List.iter
        (fun (id, m) ->
          Buffer.add_int32_le b (Int32.of_int id);
          bits_into b (m.Cmat.re, m.Cmat.im))
        s.Characterize.traces)
    ch.Characterize.samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_characterizations () =
  let clifford =
    Circuit.(
      empty 4 |> h 0 |> cx 0 2 |> s 1 |> cx 1 3 |> tracepoint 1 [ 2; 3 ]
      |> h 3 |> cz 3 0 |> tracepoint 2 [ 0; 3 ])
  in
  let diagonal =
    Circuit.(
      empty 6 |> x 0 |> t_gate 0 |> h 5
      |> mcz [ 0; 1; 2; 3; 4; 5 ]
      |> tracepoint 1 [ 0 ] |> tracepoint 2 [ 1; 5 ])
  in
  let near_clifford =
    let c = ref Circuit.(empty 8 |> h 0) in
    for q = 0 to 6 do
      c := Circuit.cx q (q + 1) !c
    done;
    Circuit.(!c |> t_gate 7 |> tracepoint 1 [ 6; 7 ])
  in
  let dense =
    Circuit.(
      empty 3 |> h 0 |> t_gate 0 |> cp 0.3 0 1 |> ry 0.7 2 |> cx 1 2
      |> tracepoint 1 [ 1; 2 ] |> rz 0.4 0 |> tracepoint 2 [ 0 ])
  in
  (* two segments that fuse into dense three-qubit blocks: one column
     costs 16 MACs per amplitude, above the 2 x 2^2 that combining from
     the basis costs, so Clifford inputs take the span path *)
  let deep =
    Circuit.(
      empty 3 |> h 0 |> ry 0.7 1 |> ry 0.4 2 |> cx 0 1 |> cx 1 2 |> rz 0.3 0
      |> ry 0.9 0 |> ry 1.1 2 |> tracepoint 1 [ 1; 2 ] |> ry 0.5 0 |> ry 0.8 1
      |> cx 0 2 |> ry 1.3 2 |> cx 2 1 |> rz 0.6 1 |> ry 0.2 0
      |> tracepoint 2 [ 0 ])
  in
  let clifford_state index =
    Clifford.Sampling.state (Stats.Rng.make 5) Clifford.Sampling.Clifford 2
      ~index
  in
  let a = clifford_state 0 and b = clifford_state 1 in
  let basis = Clifford.Sampling.Basis in
  (* name, expected route at its wall, program, run *)
  let case name ?route ?wall ?(kind = basis) ?noise ?engine ?inputs ?cache
      ~input_qubits c ~count =
    ( name,
      (fun () ->
        match route with
        | None -> ()
        | Some r ->
            if Sim.Engine.auto_route ?wall c <> Some r then
              Alcotest.failf "%s: not routed as expected" name),
      fun mode ->
        let rng = Stats.Rng.make 2024 in
        let ch =
          Characterize.run ~rng ~kind ~mode ?noise ~trajectories:4 ?engine
            ?inputs ?cache:(Option.map (fun f -> f ()) cache) ?wall
            (Program.make ~input_qubits c) ~count
        in
        (ch, Stats.Rng.fingerprint rng) )
  in
  [
    case "stabilizer" ~route:`Stabilizer ~input_qubits:[ 0; 1 ] clifford ~count:9;
    case "sparse" ~route:`Sparse ~wall:0. ~input_qubits:[ 1; 2 ] diagonal
      ~count:9;
    case "rank" ~route:`Rank ~wall:0. ~input_qubits:[ 0 ] near_clifford ~count:5;
    case "batched" ~input_qubits:[ 0; 1 ] dense ~count:9;
    case "batched-clifford" ~kind:Clifford.Sampling.Clifford
      ~input_qubits:[ 0; 1 ] dense ~count:9;
    case "span" ~kind:Clifford.Sampling.Clifford ~input_qubits:[ 2; 0 ] deep
      ~count:9;
    case "batched-measure" ~input_qubits:[ 0 ]
      (Benchmarks.Teleport.single ()) ~count:5;
    case "noisy-sequential" ~noise:Sim.Noise.ibm_cairo ~input_qubits:[ 0; 1 ]
      dense ~count:5;
    case "sequential" ~engine:`Sequential ~input_qubits:[ 0; 1 ] dense
      ~count:9;
    case "units" ~cache:Cache.create ~input_qubits:[ 0; 1 ] dense ~count:9;
    case "explicit" ~inputs:[ a; b; a; a; b ] ~input_qubits:[ 0; 1 ] dense
      ~count:0;
    case "explicit-sequential" ~engine:`Sequential ~inputs:[ a; b; a; a; b ]
      ~input_qubits:[ 0; 1 ] dense ~count:0;
    case "explicit-units" ~cache:Cache.create ~inputs:[ a; b; a; a; b ]
      ~input_qubits:[ 0; 1 ] dense ~count:0;
  ]

let characterize_golden_text () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, check_route, run) ->
      check_route ();
      List.iter
        (fun (mode_name, mode) ->
          let ch, rng_after = run mode in
          let c = ch.Characterize.cost in
          Printf.bprintf b
            "%s %s samples=%d digest=%s executions=%d shots=%d gate_ops=%d \
             1q=%d 2q=%d meas=%d rng=%d\n"
            name mode_name
            (Array.length ch.Characterize.samples)
            (characterization_digest ch) c.Sim.Cost.executions c.Sim.Cost.shots
            c.Sim.Cost.gate_ops c.Sim.Cost.one_qubit_gates
            c.Sim.Cost.two_qubit_gates c.Sim.Cost.measurements rng_after)
        [
          ("exact", Characterize.Exact);
          ("tomography", Characterize.Tomography { shots = 64; project = true });
          ("probs", Characterize.Probs_only { shots = 64 });
        ])
    (golden_characterizations ());
  Buffer.contents b

let test_characterize_golden () =
  let expected = read_golden "characterize_golden.txt" in
  let got = characterize_golden_text () in
  if got <> expected then
    Alcotest.failf "Characterize.run drifted from characterize_golden.txt:\n%s"
      got

let () =
  Alcotest.run "core"
    [
      ( "program",
        [
          Alcotest.test_case "embed" `Quick test_program_embed;
          Alcotest.test_case "traces include input" `Quick test_program_run_traces_includes_input;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "is_pure" `Quick test_predicate_is_pure;
          Alcotest.test_case "equals" `Quick test_predicate_equals;
          Alcotest.test_case "expectation" `Quick test_predicate_expectation;
          Alcotest.test_case "diag range" `Quick test_predicate_diag_range;
          Alcotest.test_case "purity" `Quick test_predicate_purity_ge;
          Alcotest.test_case "tracepoints" `Quick test_predicate_tracepoints;
        ] );
      ( "assertion",
        [
          Alcotest.test_case "implication" `Quick test_assertion_implication;
          Alcotest.test_case "requires guarantee" `Quick test_assertion_requires_guarantee;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "shapes" `Quick test_characterize_shapes;
          Alcotest.test_case "custom inputs" `Quick test_characterize_custom_inputs;
          Alcotest.test_case "tomography cost" `Quick test_characterize_tomography_cost;
          Alcotest.test_case "linearity rule edges" `Quick
            test_linearity_rule_edges;
          Alcotest.test_case "characterize golden" `Quick
            test_characterize_golden;
        ] );
      ( "approx",
        [
          Alcotest.test_case "exact on identity" `Quick test_approx_exact_on_identity;
          Alcotest.test_case "case1 exact" `Quick test_approx_case1_exact;
          Alcotest.test_case "improves with samples" `Slow test_approx_accuracy_improves_with_samples;
          Alcotest.test_case "theoretical accuracy" `Quick test_approx_theoretical_accuracy;
          Alcotest.test_case "decompose modes" `Quick test_approx_decompose_modes;
          Alcotest.test_case "chain" `Quick test_approx_chain;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "monotone in samples" `Quick test_confidence_increases_with_samples;
          Alcotest.test_case "bounds" `Quick test_confidence_bounds;
          Alcotest.test_case "required samples" `Quick test_confidence_required_samples;
          Alcotest.test_case "exhaustive baseline" `Quick test_exhaustive_confidence;
        ] );
      ( "prune",
        [
          Alcotest.test_case "adapt" `Quick test_prune_adapt;
          Alcotest.test_case "const" `Quick test_prune_const;
          Alcotest.test_case "prop" `Quick test_prune_prop_reduction;
        ] );
      ( "prop-approx",
        [
          Alcotest.test_case "exact on span" `Quick test_prop_approx_exact_on_span;
          Alcotest.test_case "settings" `Quick test_prop_approx_settings;
          Alcotest.test_case "clamped" `Quick test_prop_approx_clamped;
        ] );
      ( "verify",
        [
          Alcotest.test_case "correct lock" `Slow test_verify_correct_lock;
          Alcotest.test_case "buggy lock" `Slow test_verify_buggy_lock;
          Alcotest.test_case "teleport" `Slow test_verify_teleport;
          Alcotest.test_case "check on program" `Quick test_verify_check_on_program;
          Alcotest.test_case "probe accuracies" `Quick test_verify_probe_accuracies_range;
          Alcotest.test_case "minimize counterexample" `Slow test_minimize_counterexample_lock;
          Alcotest.test_case "one projection per alpha" `Quick
            test_evaluator_projects_once;
          Alcotest.test_case "projection in the inputs' range" `Quick
            test_evaluator_projects_in_range;
          Alcotest.test_case "validate golden" `Slow test_validate_golden;
          Alcotest.test_case "norm guarantees skip the solver" `Slow
            test_norm_guarantees_skip_solver;
          Alcotest.test_case "replay names the running executable" `Quick
            test_replay_names_running_exe;
        ] );
      ( "dist-verdicts",
        [
          Alcotest.test_case "dist validation" `Quick test_dist_validation;
          Alcotest.test_case "check_counts fixed holds" `Quick test_check_counts_fixed_holds;
          Alcotest.test_case "sequential agrees, stops early" `Quick test_check_counts_sequential_agrees;
          Alcotest.test_case "wrong dist rejected" `Quick test_check_counts_rejects_wrong_dist;
          Alcotest.test_case "impossible outcome certain" `Quick test_check_counts_impossible_outcome;
          Alcotest.test_case "sequential tomography" `Quick test_sequential_tomography_matches_fixed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_isomorphism_linearity; prop_case1_exactness ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Testkit.Config.rand ())
              prop_objective_exact;
            QCheck_alcotest.to_alcotest ~rand:(Testkit.Config.rand ())
              prop_characterize_repeats_exact;
            QCheck_alcotest.to_alcotest ~rand:(Testkit.Config.rand ())
              prop_norm_bounds_sound;
          ] );
    ]
