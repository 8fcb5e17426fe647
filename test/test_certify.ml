(* Translation validation: every certificate-emitting pass variant must
   produce a certificate the independent checker accepts, and every
   deliberately broken pass (Testkit.Mutate) must be rejected with a
   structured diagnostic. *)

open Transpile

let examples_dir =
  List.find Sys.file_exists [ "../examples/qasm"; "examples/qasm" ]

let check_ok msg cert before after =
  match Certify.check cert before after with
  | Ok s -> s
  | Error fs ->
      Alcotest.failf "%s: checker rejected a genuine certificate:@.%s" msg
        (String.concat "\n" (List.map Certify.failure_message fs))

let kinds fs = List.sort_uniq compare (List.map (fun f -> f.Certify.kind) fs)

(* ---------------- per-pass certificates on pinned circuits ------------ *)

let test_cancel_cert () =
  let c = Circuit.(empty 2 |> h 0 |> x 1 |> h 0 |> cx 0 1) in
  let c', st = Passes.cancel_inverses_cert c in
  Alcotest.(check int) "hh gone" 2 (Circuit.gate_count c');
  let s = check_ok "cancel" [ st ] c c' in
  Alcotest.(check int) "one deletion group" 1 s.Certify.local_equiv;
  Alcotest.(check int) "x and cx mapped" 2 s.Certify.permutation

let test_merge_cert () =
  let c = Circuit.(empty 1 |> rz 0.3 0 |> rz 0.4 0) in
  let c', st = Passes.merge_rotations_cert c in
  Alcotest.(check int) "merged" 1 (Circuit.gate_count c');
  let s = check_ok "merge" [ st ] c c' in
  Alcotest.(check int) "one group" 1 s.Certify.local_equiv

let test_merge_identity_cert () =
  (* rz(x) rz(4pi - x): merged away entirely — a deletion group *)
  let c = Circuit.(empty 1 |> rz 1.0 0 |> rz ((4. *. Float.pi) -. 1.0) 0) in
  let c', st = Passes.merge_rotations_cert c in
  Alcotest.(check int) "vanished" 0 (Circuit.gate_count c');
  ignore (check_ok "merge to identity" [ st ] c c')

let test_drop_cert () =
  let c = Circuit.(empty 2 |> rz 0. 0 |> crz 0. 0 1 |> h 0) in
  let c', st = Passes.drop_identities_cert c in
  Alcotest.(check int) "only h" 1 (Circuit.gate_count c');
  let s = check_ok "drop" [ st ] c c' in
  (* crz(0) is recorded under its base name "rz": still the identity *)
  Alcotest.(check int) "two identity elims" 2 s.Certify.identity_elim

let test_prune_cert () =
  (* h 2 influences nothing observed: pruned with an Outside_cone witness *)
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> h 2 |> tracepoint 1 [ 0; 1 ]) in
  let c', st = Passes.prune_lightcone_cert c in
  let s = check_ok "prune" [ st ] c c' in
  Alcotest.(check int) "one pruned" 1 s.Certify.outside_cone

let test_optimize_cert_chain () =
  (* h x x h cascades across fixpoint iterations: a multi-step chain *)
  let c = Circuit.(empty 1 |> h 0 |> x 0 |> x 0 |> h 0) in
  let c', cert = Passes.optimize_cert c in
  Alcotest.(check int) "annihilated" 0 (Circuit.gate_count c');
  let s = check_ok "optimize chain" cert c c' in
  Alcotest.(check bool) "several steps" true (s.Certify.chain_steps >= 2);
  Alcotest.(check bool)
    "plain optimize is fst of the certified run" true
    (Passes.optimize c = c')

let test_segments_cert () =
  (* two fused blocks split by a barrier, a measurement fence after *)
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> t_gate 0 |> h 0
      |> barrier [ 0; 1 ]
      |> h 1 |> s 1 |> h 1 |> measure 0 0)
  in
  let plan, st = Segments.compile_cert c in
  (match Certify.check_plan [ st ] c plan with
  | Ok s ->
      Alcotest.(check bool) "fused something" true (s.Certify.local_equiv >= 1);
      Alcotest.(check int) "barrier accounted" 1 s.Certify.barrier_elim
  | Error fs ->
      Alcotest.failf "segments: rejected:@.%s"
        (String.concat "\n" (List.map Certify.failure_message fs)));
  Alcotest.(check bool)
    "plain compile is fst of the certified compile" true
    (Segments.compile c = plan)

(* ---------------- end-to-end over the example corpus ------------------ *)

let test_examples_certified () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".qasm")
  |> List.iter (fun f ->
         let full = Qasm.parse_file_full (Filename.concat examples_dir f) in
         let report =
           Morphcore.Verify.certify_transpile ~locs:full.Qasm.locs
             full.Qasm.circuit
         in
         if not report.Morphcore.Verify.certified then
           Alcotest.failf "%s: certification failed:@.%s" f
             (String.concat "\n"
                (List.map Certify.failure_message
                   report.Morphcore.Verify.cert_failures));
         if
           Certify.total_obligations report.Morphcore.Verify.cert_summary = 0
         then Alcotest.failf "%s: pipeline discharged zero obligations" f)

(* ---------------- mutants: the checker's soundness -------------------- *)

let mutant_case name build expected_kind =
  let c = build () in
  match name c with
  | exception e -> Alcotest.failf "mutant raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "mutant not applicable to its pinned circuit"
  | Some m ->
      let fs = Testkit.Mutate.failures m in
      if fs = [] then
        Alcotest.failf "checker ACCEPTED mutant %s" m.Testkit.Mutate.mutant_name;
      if not (List.mem expected_kind (kinds fs)) then
        Alcotest.failf "mutant %s rejected for %s, expected kind %s"
          m.Testkit.Mutate.mutant_name
          (String.concat "," (kinds fs))
          expected_kind

let test_mutant_wrong_replacement () =
  mutant_case Testkit.Mutate.wrong_replacement
    (fun () -> Circuit.(empty 1 |> h 0 |> rz 0.3 0 |> rz 0.4 0))
    "local_equiv"

let test_mutant_over_pruned () =
  mutant_case Testkit.Mutate.over_pruned
    (fun () -> Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0; 1 ]))
    "outside_cone"

let test_mutant_reordered_measurement () =
  mutant_case Testkit.Mutate.reordered_measurement
    (fun () -> Circuit.(empty ~clbits:1 1 |> h 0 |> measure 0 0))
    "permutation"

let test_mutant_wrong_block () =
  mutant_case Testkit.Mutate.wrong_block
    (fun () -> Circuit.(empty 2 |> h 0 |> t_gate 0 |> cx 0 1 |> s 1))
    "local_equiv"

let test_forged_identity_rejected () =
  (* drop_identities would never drop rz(0.4); a forged Identity_elim
     obligation for it must not slip through *)
  let c = Circuit.(empty 1 |> rz 0.4 0 |> h 0) in
  let out = Circuit.(empty 1 |> h 0) in
  let st =
    {
      Certify.pass = "forged_drop";
      obligations = [ Certify.Identity_elim { index = 0; eps = 1e-12 } ];
      mapped = [ (1, 0) ];
      output = Certify.Circ out;
    }
  in
  match Certify.check [ st ] c out with
  | Ok _ -> Alcotest.fail "checker accepted a forged identity elimination"
  | Error fs ->
      Alcotest.(check bool)
        "identity_elim diagnostic" true
        (List.mem "identity_elim" (kinds fs))

let test_unaccounted_rejected () =
  (* an output instruction the certificate never explains *)
  let c = Circuit.(empty 1 |> h 0) in
  let out = Circuit.(empty 1 |> h 0 |> s 0) in
  let st =
    {
      Certify.pass = "forged_insert";
      obligations = [];
      mapped = [ (0, 0) ];
      output = Certify.Circ out;
    }
  in
  match Certify.check [ st ] c out with
  | Ok _ -> Alcotest.fail "checker accepted an unexplained insertion"
  | Error fs ->
      Alcotest.(check bool) "coverage" true (List.mem "coverage" (kinds fs))

(* ---------------------- certified plan cache -------------------------- *)

let test_cert_cache_separation () =
  let c = Circuit.(empty 2 |> h 0 |> t_gate 0 |> cx 0 1) in
  let cache = Cache.create () in
  let s0 = Cache.stats cache in
  let plan, _ = Segments.compile_cert ~cache c in
  let s1 = Cache.stats cache in
  Alcotest.(check bool)
    "first certified compile misses" true
    (s1.Cache.misses > s0.Cache.misses);
  (* ... and memoizes the plan with its certificate from then on *)
  let _ = Segments.compile_cert ~cache c in
  let s2 = Cache.stats cache in
  Alcotest.(check bool)
    "second certified compile hits" true
    (s2.Cache.hits > s1.Cache.hits && s2.Cache.misses = s1.Cache.misses);
  (* the memoized plan is the uncached compile's *)
  Alcotest.(check bool) "same plan" true (Segments.compile c = plan)

let test_cached_cert_still_checked () =
  let c = Circuit.(empty 1 |> h 0 |> t_gate 0) in
  let cache = Cache.create () in
  let r1 = Morphcore.Verify.certify_transpile ~cache c in
  let r2 = Morphcore.Verify.certify_transpile ~cache c in
  Alcotest.(check bool) "first run certified" true r1.Morphcore.Verify.certified;
  Alcotest.(check bool) "cached run certified" true r2.Morphcore.Verify.certified;
  Alcotest.(check bool)
    "same plan from cache" true
    (r1.Morphcore.Verify.cert_plan = r2.Morphcore.Verify.cert_plan)

(* ---------------- properties ------------------------------------------ *)

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> 30)
  | None -> 30

let prop_certified_sound_pure =
  QCheck.Test.make ~name:"certified passes sound (pure)" ~count:qcheck_count
    (Testkit.Gen.pure ~max_qubits:3 ())
    Testkit.Oracle.certified_pass_sound

let prop_certified_sound_program =
  QCheck.Test.make ~name:"certified passes sound (programs)"
    ~count:qcheck_count
    (Testkit.Gen.program ~max_qubits:3 ())
    Testkit.Oracle.certified_pass_sound

let prop_mutants_rejected =
  QCheck.Test.make ~name:"mutants rejected" ~count:qcheck_count
    (Testkit.Gen.program ~max_qubits:3 ())
    Testkit.Oracle.certified_mutants_rejected

let () =
  Alcotest.run "certify"
    [
      ( "passes",
        [
          Alcotest.test_case "cancel_inverses" `Quick test_cancel_cert;
          Alcotest.test_case "merge_rotations" `Quick test_merge_cert;
          Alcotest.test_case "merge to identity" `Quick test_merge_identity_cert;
          Alcotest.test_case "drop_identities" `Quick test_drop_cert;
          Alcotest.test_case "prune_lightcone" `Quick test_prune_cert;
          Alcotest.test_case "optimize chain" `Quick test_optimize_cert_chain;
          Alcotest.test_case "segments" `Quick test_segments_cert;
          Alcotest.test_case "example corpus" `Quick test_examples_certified;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "wrong replacement" `Quick
            test_mutant_wrong_replacement;
          Alcotest.test_case "over-pruned cone" `Quick test_mutant_over_pruned;
          Alcotest.test_case "reordered measurement" `Quick
            test_mutant_reordered_measurement;
          Alcotest.test_case "wrong block" `Quick test_mutant_wrong_block;
          Alcotest.test_case "forged identity" `Quick
            test_forged_identity_rejected;
          Alcotest.test_case "unexplained insertion" `Quick
            test_unaccounted_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key separation" `Quick test_cert_cache_separation;
          Alcotest.test_case "cached cert re-checked" `Quick
            test_cached_cert_still_checked;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_certified_sound_pure;
            prop_certified_sound_program;
            prop_mutants_rejected;
          ] );
    ]
