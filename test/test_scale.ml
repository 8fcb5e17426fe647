(* Scalable-simulation subsystem tests (DESIGN.md §13): the sparse
   coordinate engine, the sum-over-stabilizers (stabilizer-rank) engine,
   the static support bound, [`Auto] routing past the dense wall, the
   MQ018 lint diagnostic, and 28+-qubit end-to-end characterization
   where the dense engine provably never runs. *)

open Testkit

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

let check_traces name a b =
  Alcotest.(check bool) name true (Oracle.traces_match a b)

let ghz ?(ts = []) n =
  let c = ref (Circuit.(empty n |> h 0)) in
  for q = 0 to n - 2 do
    c := Circuit.cx q (q + 1) !c
  done;
  List.iter (fun q -> c := Circuit.t_gate q !c) ts;
  !c

(* ------------------------- static support bound ----------------------- *)

let test_support_bound () =
  (* diagonal/permutation-only circuit: the basis support never grows *)
  let c = Circuit.(empty 3 |> x 0 |> mcz [ 0; 1; 2 ] |> t_gate 2) in
  Alcotest.(check int) "diagonal" 1 (Analysis.Classify.support_bound c);
  (* h branches its target; cx spreads through its target *)
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1) in
  Alcotest.(check int) "h + cx" 4 (Analysis.Classify.support_bound c);
  let c = Circuit.(empty 5 |> h 0 |> h 1 |> h 2) in
  Alcotest.(check int) "three h" 8 (Analysis.Classify.support_bound c);
  Alcotest.(check int) "capped" 4
    (Analysis.Classify.support_bound ~cap:4 c);
  (* the bound never exceeds the full register dimension *)
  let c = Circuit.(empty 2 |> h 0 |> h 1 |> h 0 |> h 1) in
  Alcotest.(check int) "saturates at 2^n" 4 (Analysis.Classify.support_bound c)

(* ------------------------ tableau Pauli expectation ------------------- *)

let test_expectation_pauli () =
  let t0 = Stabilizer.Tableau.make 1 in
  Alcotest.(check int) "<0|Z|0>" 1
    (Stabilizer.Tableau.expectation_pauli t0 ~x:0 ~z:1);
  Alcotest.(check int) "<0|X|0>" 0
    (Stabilizer.Tableau.expectation_pauli t0 ~x:1 ~z:0);
  let bell = Stabilizer.Tableau.run Circuit.(empty 2 |> h 0 |> cx 0 1) in
  Alcotest.(check int) "<XX>" 1
    (Stabilizer.Tableau.expectation_pauli bell ~x:3 ~z:0);
  Alcotest.(check int) "<ZZ>" 1
    (Stabilizer.Tableau.expectation_pauli bell ~x:0 ~z:3);
  Alcotest.(check int) "<YY>" (-1)
    (Stabilizer.Tableau.expectation_pauli bell ~x:3 ~z:3);
  Alcotest.(check int) "<Z.>" 0
    (Stabilizer.Tableau.expectation_pauli bell ~x:0 ~z:1)

(* compare against the dense expectation on random Clifford circuits:
   apply the Hermitian Pauli word gate by gate ((1,1) = Y) and take the
   inner product *)
let dense_expectation st ~x ~z =
  let n = Qstate.Statevec.num_qubits st in
  let st' = Qstate.Statevec.copy st in
  for q = 0 to n - 1 do
    let gx = (x lsr q) land 1 = 1 and gz = (z lsr q) land 1 = 1 in
    let name =
      if gx && gz then Some "y" else if gx then Some "x"
      else if gz then Some "z" else None
    in
    match name with
    | Some name -> Qstate.Statevec.apply1 (Qstate.Gates.by_name name []) q st'
    | None -> ()
  done;
  Linalg.Cx.re
    (Linalg.Cvec.dot (Qstate.Statevec.to_cvec st) (Qstate.Statevec.to_cvec st'))

let prop_expectation_pauli =
  QCheck.Test.make ~name:"expectation_pauli ~ dense (clifford)" ~count
    (Gen.clifford ~max_qubits:3 ())
    (fun circ ->
      let c = Gen.build circ in
      let n = Circuit.num_qubits c in
      let tab = Stabilizer.Tableau.run c in
      let st = (Sim.Engine.run c).Sim.Engine.state in
      let ok = ref true in
      for x = 0 to (1 lsl n) - 1 do
        for z = 0 to (1 lsl n) - 1 do
          let e = Stabilizer.Tableau.expectation_pauli tab ~x ~z in
          if Float.abs (float_of_int e -. dense_expectation st ~x ~z) > 1e-9
          then ok := false
        done
      done;
      !ok)

(* --------------------------- sparse engine ---------------------------- *)

let test_sparse_bv () =
  let c = Benchmarks.Bv.circuit ~secret:0b10110 6 in
  let st = Sim.Sparse.run c ~input:0 in
  let dense = Sim.Engine.run c in
  Alcotest.(check bool) "final state" true
    (Qstate.Statevec.fidelity_pure (Sim.Sparse.to_statevec st)
       dense.Sim.Engine.state
    >= 1. -. 1e-9);
  (* the H layer grows the live support well past the single basis state *)
  Alcotest.(check bool) "peak support grew" true
    (Sim.Sparse.peak_support st >= 64);
  check_traces "traces"
    (Sim.Engine.cone_traces `Sparse c)
    dense.Sim.Engine.traces

let prop_sparse_traces =
  QCheck.Test.make ~name:"sparse_traces ~ statevec (pure)" ~count
    (Gen.pure ())
    (Oracle.route_vs_statevec `Sparse)

(* ------------------------- stabilizer-rank engine --------------------- *)

let test_rank_small () =
  let c =
    Circuit.(
      empty 3 |> h 0 |> cx 0 1 |> t_gate 1 |> cx 1 2 |> tracepoint 1 [ 1; 2 ])
  in
  Alcotest.(check bool) "applicable" true (Sim.Engine.applicable `Rank c);
  check_traces "traces"
    (Sim.Engine.cone_traces `Rank c)
    (Sim.Engine.run c).Sim.Engine.traces

let test_rank_branches () =
  let st = Sim.Rank.make 1 0 in
  Sim.Rank.apply_gate (Circuit.Gate.make "h" [ 0 ]) st;
  Alcotest.(check int) "clifford keeps one frame" 1 (Sim.Rank.branch_count st);
  Sim.Rank.apply_gate (Circuit.Gate.make "t" [ 0 ]) st;
  Alcotest.(check int) "t splits" 2 (Sim.Rank.branch_count st);
  (* tdg undoes it: the Z-frame coefficient cancels exactly and is pruned *)
  Sim.Rank.apply_gate (Circuit.Gate.make "tdg" [ 0 ]) st;
  Alcotest.(check int) "tdg merges back" 1 (Sim.Rank.branch_count st)

let prop_rank_traces =
  QCheck.Test.make ~name:"rank_traces ~ statevec (near-clifford)" ~count
    (Gen.near_clifford ())
    (Oracle.route_vs_statevec `Rank)

(* ------------------------------ routing ------------------------------- *)

(* the end-to-end scale programs: routed by the golden table below and
   characterized past the dense wall further down *)
let bv28_secret = 0b1 lor (0b1011 lsl 10)
let bv28 = Benchmarks.Bv.circuit ~trace_qubits:[ 0; 1 ] ~secret:bv28_secret 28
let lock_key = 0b10

let lock32 =
  (Benchmarks.Quantum_lock.make ~key_tracepoint:false ~key:lock_key 31)
    .Benchmarks.Quantum_lock.circuit

let qram28 =
  (Benchmarks.Qram.make_cells ~addr_tracepoint:false
     ~cells:[ (1, 0.3); (5, 1.1) ]
     27)
    .Benchmarks.Qram.s_circuit

let ghz24_t6 =
  Circuit.(ghz ~ts:[ 3; 7; 11; 15; 19; 23 ] 24 |> tracepoint 1 [ 22; 23 ])

let families =
  [
    ("bv-28", bv28);
    ("lock-32", lock32);
    ("qram-28", qram28);
    ("ghz-t6-24", ghz24_t6);
  ]

(* MQ018 rank exponents that changed once [sim_class] counted
   non-Clifford gates per cone instead of per program: the GHZ chain's
   T gates all follow its last cx, so the [22; 23] cone holds only the
   T on qubit 23 *)
let rank_exponent_fixes =
  [ ("family/ghz-t6-24", "stabilizer-rank 2^6", "stabilizer-rank 2^1") ]

let golden_circuit row =
  match String.split_on_char '/' row with
  | [ "example"; name ] ->
      Qasm.parse_file (Printf.sprintf "../examples/qasm/%s.qasm" name)
  | [ "family"; name ] -> List.assoc name families
  | [ cls; seed ] ->
      let gen =
        match cls with
        | "pure" -> Gen.gen_pure ()
        | "clifford" -> Gen.gen_clifford ()
        | "near_clifford" -> Gen.gen_near_clifford ()
        | "program" -> Gen.gen_program ()
        | _ -> Alcotest.failf "unknown generator class %S" cls
      in
      Gen.build
        (QCheck.Gen.generate1
           ~rand:(Random.State.make [| int_of_string seed |])
           gen)
  | _ -> Alcotest.failf "malformed golden row %S" row

let route_name = function
  | None -> "-"
  | Some `Stabilizer -> "stabilizer"
  | Some `Sparse -> "sparse"
  | Some `Rank -> "rank"

(* every row of route_golden.txt: the route at the default wall, the
   route at [~wall:0.] and the MQ018 class *)
let check_route_golden () =
  let rows =
    In_channel.with_open_text "route_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check bool) "golden rows" true (List.length rows > 200);
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ row; route; route0; cls ] ->
          let c = golden_circuit row in
          let cls =
            match List.find_opt (fun (r, _, _) -> r = row) rank_exponent_fixes with
            | Some (_, recorded, fixed) ->
                Alcotest.(check string) (row ^ " recorded class") recorded cls;
                fixed
            | None -> cls
          in
          Alcotest.(check string) (row ^ " route") route
            (route_name (Sim.Engine.auto_route c));
          Alcotest.(check string) (row ^ " route at wall 0") route0
            (route_name (Sim.Engine.auto_route ~wall:0. c));
          Alcotest.(check string) (row ^ " class") cls (Sim.Engine.sim_class c)
      | _ -> Alcotest.failf "malformed golden line %S" line)
    rows

let test_auto_route () =
  let clifford = Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint 1 [ 0 ]) in
  Alcotest.(check bool) "clifford -> stabilizer" true
    (Sim.Engine.auto_route clifford = Some `Stabilizer);
  let small = Circuit.(empty 2 |> h 0 |> t_gate 0 |> tracepoint 1 [ 0 ]) in
  Alcotest.(check bool) "below the wall -> dense" true
    (Sim.Engine.auto_route small = None);
  (* forcing the wall to zero exposes the static preferences *)
  let diagonal =
    Circuit.(
      empty 6 |> x 0 |> t_gate 0
      |> mcz [ 0; 1; 2; 3; 4; 5 ]
      |> tracepoint 1 [ 0 ])
  in
  Alcotest.(check bool) "low support -> sparse" true
    (Sim.Engine.auto_route ~wall:0. diagonal = Some `Sparse);
  Alcotest.(check bool) "near-clifford -> rank" true
    (Sim.Engine.auto_route ~wall:0.
       Circuit.(ghz ~ts:[ 17 ] 18 |> tracepoint 1 [ 17 ])
    = Some `Rank);
  check_route_golden ()

let test_forced_engines_reject () =
  Alcotest.(check bool) "u3 is not rank-decomposable" false
    (Sim.Engine.applicable `Rank
       Circuit.(empty 1 |> u3 0.3 0.2 0.1 0 |> tracepoint 1 [ 0 ]));
  (* measurement makes a single pass inexact: the sparse route refuses *)
  Alcotest.(check bool) "measurement refuses sparse" false
    (Sim.Engine.applicable `Sparse
       Circuit.(empty ~clbits:1 2 |> h 0 |> measure 0 0 |> tracepoint 1 [ 0 ]))

(* ------------------ end-to-end past the dense wall -------------------- *)

(* run [f] with observability on and fresh metrics, restoring the
   caller's setting; returns [f ()] paired with a counter reader *)
let with_metrics f =
  let was = Obs.enabled () in
  Obs.configure ~enabled:true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.configure ~enabled:was) f

let counter ?labels name =
  Option.value ~default:0 (Obs.Metrics.counter_value ?labels name)

let routed_count engine =
  counter ~labels:[ ("engine", engine) ] "sim_engine_routed_total"

let basis_index st =
  let d = Qstate.Statevec.dim st in
  let best = ref 0 in
  for k = 0 to d - 1 do
    if
      Linalg.Cx.norm2 (Qstate.Statevec.amplitude st k)
      > Linalg.Cx.norm2 (Qstate.Statevec.amplitude st !best)
    then best := k
  done;
  !best

(* 28-qubit Bernstein-Vazirani through [Characterize.run ~engine:`Auto]:
   BV is all-Clifford, so the router sends every sample to the
   (lightcone-restricted) stabilizer tableau — the dense engine cannot
   even allocate 2^28 amplitudes — and the traced qubits must read
   [input xor secret] exactly *)
let test_bv28_characterize () =
  let secret = bv28_secret and c = bv28 in
  Alcotest.(check bool) "routes stabilizer" true
    (Sim.Engine.auto_route c = Some `Stabilizer);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 11 in
  let program = Morphcore.Program.make ~input_qubits:[ 0; 1 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      ~engine:`Auto program ~count:3
  in
  Alcotest.(check int) "stabilizer routed per sample" 3
    (routed_count "stabilizer");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  (* one cone per sample *)
  Alcotest.(check int) "stabilizer cones" 3 (counter "stabilizer_routed_total");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let b = basis_index s.Morphcore.Characterize.input_state in
      let expected = b lxor (secret land 3) in
      let m = List.assoc 1 s.Morphcore.Characterize.traces in
      let diag = Linalg.Cmat.get m expected expected in
      Alcotest.(check bool) "trace reads input xor secret" true
        (Float.abs (Linalg.Cx.re diag -. 1.) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  (* and the verification layer consumes the routed traces unchanged *)
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"bv28" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (1, 0.0) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  (match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "bv28 assertion violated")

(* 32-qubit quantum lock: the mcz acceptance block is non-Clifford, so
   the stabilizer route refuses — but it is diagonal, so the static
   support bound is 2 and the sparse route carries every sample. The
   probe must read 1 exactly on the secret key. *)
let test_lock32_characterize () =
  let key = lock_key and c = lock32 in
  Alcotest.(check int) "32 qubits" 32 (Circuit.num_qubits c);
  Alcotest.(check bool) "routes sparse" true
    (Sim.Engine.auto_route c = Some `Sparse);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 13 in
  (* sample basis inputs on the two low key qubits; the key fits there *)
  let program = Morphcore.Program.make ~input_qubits:[ 1; 2 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      ~engine:`Auto program ~count:3
  in
  Alcotest.(check int) "sparse routed per sample" 3 (routed_count "sparse");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  (* summed over the three samples' cones *)
  Alcotest.(check int) "sparse peak support" 6 (counter "sparse_amps_peak_total");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let b = basis_index s.Morphcore.Characterize.input_state in
      let expected = if b = key then 1 else 0 in
      let m = List.assoc 2 s.Morphcore.Characterize.traces in
      let diag = Linalg.Cmat.get m expected expected in
      Alcotest.(check bool) "probe reads key match" true
        (Float.abs (Linalg.Cx.re diag -. 1.) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"lock32" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (2, 0.0) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "lock32 assertion violated"

(* more samples than basis inputs: basis sampling repeats every 2^k
   samples, and a pure run simulates each distinct input once, so nine
   samples over two input qubits route exactly four sparse runs — and
   every sample still reads its own input's exact trace *)
let test_lock32_repeated_inputs () =
  let key = lock_key and c = lock32 in
  with_metrics @@ fun () ->
  let program = Morphcore.Program.make ~input_qubits:[ 1; 2 ] c in
  let ch =
    Morphcore.Characterize.run ~rng:(Stats.Rng.make 13)
      ~kind:Clifford.Sampling.Basis ~engine:`Auto program ~count:9
  in
  Alcotest.(check int) "nine samples" 9
    (Array.length ch.Morphcore.Characterize.samples);
  Alcotest.(check int) "sparse routed once per distinct input" 4
    (routed_count "sparse");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  Alcotest.(check int) "sparse peak support" 8 (counter "sparse_amps_peak_total");
  (* the meter still accounts every sample *)
  Alcotest.(check int) "executions" 9
    ch.Morphcore.Characterize.cost.Sim.Cost.executions;
  Array.iteri
    (fun i (s : Morphcore.Characterize.sample) ->
      let b = basis_index s.Morphcore.Characterize.input_state in
      Alcotest.(check int) "basis inputs cycle" (i mod 4) b;
      let expected = if b = key then 1 else 0 in
      let m = List.assoc 2 s.Morphcore.Characterize.traces in
      Alcotest.(check bool) "probe reads key match" true
        (Float.abs (Linalg.Cx.re (Linalg.Cmat.get m expected expected) -. 1.)
        <= 1e-9))
    ch.Morphcore.Characterize.samples

(* 24-qubit GHZ with six T gates: the support bound blows up (every cx
   spreads), so the router must fall through to the stabilizer-rank
   engine; the traced pair of a (phased) GHZ state is the exact
   half-half classical mixture *)
let test_rank24_characterize () =
  let c = ghz24_t6 in
  Alcotest.(check bool) "routes rank" true
    (Sim.Engine.auto_route c = Some `Rank);
  with_metrics @@ fun () ->
  let rng = Stats.Rng.make 12 in
  let program = Morphcore.Program.make ~input_qubits:[ 0 ] c in
  let ch =
    Morphcore.Characterize.run ~rng ~kind:Clifford.Sampling.Basis
      ~engine:`Auto program ~count:2
  in
  Alcotest.(check int) "rank routed per sample" 2 (routed_count "rank");
  Alcotest.(check int) "dense never invoked" 0 (routed_count "statevec");
  (* the cone's single T gate splits each sample into two frames *)
  Alcotest.(check int) "rank frames" 4 (counter "rank_branches_total");
  Array.iter
    (fun (s : Morphcore.Characterize.sample) ->
      let m = List.assoc 1 s.Morphcore.Characterize.traces in
      let expected = Linalg.Cmat.create 4 4 in
      Linalg.Cmat.set expected 0 0 (Linalg.Cx.make 0.5 0.);
      Linalg.Cmat.set expected 3 3 (Linalg.Cx.make 0.5 0.);
      Alcotest.(check bool) "half-half GHZ mixture" true
        (Linalg.Cmat.frob_norm (Linalg.Cmat.sub m expected) <= 1e-9))
    ch.Morphcore.Characterize.samples;
  let approx = Morphcore.Approx.of_characterization ch in
  let assertion =
    Morphcore.Assertion.make ~name:"ghz24" ~assumes:[]
      ~guarantees:[ Morphcore.Predicate.Purity_ge (1, 0.4) ] ()
  in
  let options =
    { Morphcore.Verify.default_options with budget = 200; restarts = 1 }
  in
  match Morphcore.Verify.validate ~options ~rng approx assertion with
  | Morphcore.Verify.Verified _ -> ()
  | Morphcore.Verify.Violated _ -> Alcotest.fail "ghz24 assertion violated"

let prop_scale_route =
  QCheck.Test.make
    ~name:"characterize scale route ~ sequential (near-clifford)"
    ~count:(max 10 (count / 4))
    (Gen.near_clifford ())
    (fun c -> Oracle.characterize_scale_route c)

(* ------------------------------- MQ018 -------------------------------- *)

(* same wiring as the CLI: the router lives above the analysis layer *)
let classify = Sim.Engine.sim_class

(* two disjoint 18-qubit GHZ chains, each with a T gate right after
   every fourth cx and a tracepoint at its end: each cone holds five
   non-Clifford gates, the program ten *)
let two_cone_ghz_t () =
  let c = ref (Circuit.empty 36) in
  List.iter
    (fun base ->
      c := Circuit.h base !c;
      for k = 1 to 17 do
        c := Circuit.cx (base + k - 1) (base + k) !c;
        if k mod 4 = 1 then c := Circuit.t_gate (base + k) !c
      done)
    [ 0; 18 ];
  Circuit.(!c |> tracepoint 1 [ 17 ] |> tracepoint 2 [ 35 ])

(* a program no scalable engine accepts: a controlled non-Clifford
   rotation (not rank-decomposable) under a register-wide tracepoint *)
let dense_only n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    c := Circuit.h q !c
  done;
  Circuit.(
    !c |> cp 0.3 0 1 |> tracepoint 1 (List.init n (fun q -> q)))

let test_mq018 () =
  let info_of c =
    match Analysis.Lint.check_sim_class ~classify c with
    | [ d ] when d.Analysis.Lint.severity = Analysis.Lint.Info ->
        d.Analysis.Lint.message
    | ds -> Alcotest.failf "expected one Info, got %d" (List.length ds)
  in
  Alcotest.(check string) "stabilizer class"
    "estimated simulation class: stabilizer"
    (info_of Circuit.(ghz 4 |> tracepoint 1 [ 3 ]));
  Alcotest.(check string) "sparse class"
    "estimated simulation class: sparse"
    (info_of Circuit.(empty 3 |> x 0 |> t_gate 0 |> tracepoint 1 [ 0 ]));
  (* a wide GHZ chain defeats the support bound (every cx spreads), so
     the near-Clifford fallback reports its non-Clifford count *)
  Alcotest.(check string) "rank class"
    "estimated simulation class: stabilizer-rank 2^1"
    (info_of Circuit.(ghz ~ts:[ 17 ] 18 |> tracepoint 1 [ 17 ]));
  (* the rank backend runs each cone separately and admits on the
     per-cone count, so that is the exponent reported *)
  Alcotest.(check string) "rank class, two cones"
    "estimated simulation class: stabilizer-rank 2^5"
    (info_of (two_cone_ghz_t ()));
  (* measurement makes every scalable route refuse: Info only, no
     warning on a narrow register *)
  Alcotest.(check string) "dense class (small)"
    "estimated simulation class: dense"
    (info_of
       Circuit.(
         empty ~clbits:1 2 |> h 0 |> measure 0 0 |> tracepoint 1 [ 0 ]))

let test_mq018_dense_warning () =
  match Analysis.Lint.check_sim_class ~classify (dense_only 24) with
  | [ info; warn ] ->
      Alcotest.(check bool) "info first" true
        (info.Analysis.Lint.severity = Analysis.Lint.Info);
      Alcotest.(check bool) "warning severity" true
        (warn.Analysis.Lint.severity = Analysis.Lint.Warning);
      Alcotest.(check string) "golden rendering"
        "prog.qasm: warning[MQ018]: program is dense-only at 24 qubits \
         (threshold 20): every simulation pass touches 2^24 amplitudes and \
         no sparse or stabilizer route applies (tune with \
         MORPHQPV_LINT_DENSE_QUBITS)"
        (Format.asprintf "%a" (Analysis.Lint.pp ~file:"prog.qasm") warn);
      (* raising the threshold silences the warning *)
      Alcotest.(check int) "threshold override" 1
        (List.length
           (Analysis.Lint.check_sim_class ~classify ~threshold:30
              (dense_only 24)))
  | ds -> Alcotest.failf "expected Info + Warning, got %d" (List.length ds)

let () =
  Alcotest.run "scale"
    [
      ( "static",
        [
          Alcotest.test_case "support bound" `Quick test_support_bound;
          Alcotest.test_case "expectation_pauli" `Quick test_expectation_pauli;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "bv end state" `Quick test_sparse_bv;
        ] );
      ( "rank",
        [
          Alcotest.test_case "near-clifford traces" `Quick test_rank_small;
          Alcotest.test_case "branch growth and merge" `Quick
            test_rank_branches;
        ] );
      ( "routing",
        [
          Alcotest.test_case "auto_route decisions" `Quick test_auto_route;
          Alcotest.test_case "forced engines reject" `Quick
            test_forced_engines_reject;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "bv 28q stabilizer characterize" `Quick
            test_bv28_characterize;
          Alcotest.test_case "lock 32q sparse characterize" `Quick
            test_lock32_characterize;
          Alcotest.test_case "lock 32q repeated inputs" `Quick
            test_lock32_repeated_inputs;
          Alcotest.test_case "ghz+t 24q rank characterize" `Quick
            test_rank24_characterize;
        ] );
      ( "lint",
        [
          Alcotest.test_case "MQ018 classes" `Quick test_mq018;
          Alcotest.test_case "MQ018 dense warning" `Quick
            test_mq018_dense_warning;
        ] );
      ( "properties",
        List.map qtest
          [
            prop_expectation_pauli;
            prop_sparse_traces;
            prop_rank_traces;
            prop_scale_route;
          ] );
    ]
