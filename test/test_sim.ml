open Linalg

let rng () = Stats.Rng.make 77

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------------- Engine ---------------- *)

let test_engine_ghz () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2) in
  let st = (Sim.Engine.run c).Sim.Engine.state in
  check_float "p000" 0.5 (Cx.norm2 (Qstate.Statevec.amplitude st 0));
  check_float "p111" 0.5 (Cx.norm2 (Qstate.Statevec.amplitude st 7))

let test_engine_unitary_qft () =
  (* QFT matrix entries are omega^(jk)/sqrt(d) *)
  let n = 3 in
  let u = Sim.Engine.unitary (Benchmarks.Qft.circuit n) in
  let d = 1 lsl n in
  let expect =
    Cmat.init d d (fun j k ->
        Cx.scale
          (1. /. sqrt (float_of_int d))
          (Cx.exp_i (2. *. Float.pi *. float_of_int (j * k) /. float_of_int d)))
  in
  if not (Cmat.equal ~eps:1e-9 u expect) then Alcotest.fail "QFT matrix wrong"

let test_engine_swap_gate () =
  let c = Circuit.(empty 2 |> x 0 |> swap 0 1) in
  let st = (Sim.Engine.run c).Sim.Engine.state in
  check_float "swapped" 1. (Cx.norm2 (Qstate.Statevec.amplitude st 2))

let test_engine_controls () =
  (* ccx acts only when both controls are 1 *)
  let run_in input =
    let c = Circuit.(empty 3 |> ccx 0 1 2) in
    let initial = Qstate.Statevec.basis 3 input in
    (Sim.Engine.run ~initial c).Sim.Engine.state
  in
  check_float "no flip" 1. (Cx.norm2 (Qstate.Statevec.amplitude (run_in 1) 1));
  check_float "flip" 1. (Cx.norm2 (Qstate.Statevec.amplitude (run_in 3) 7))

let test_engine_tracepoints () =
  let c = Circuit.(empty 2 |> tracepoint 1 [ 0 ] |> h 0 |> tracepoint 2 [ 0 ]) in
  let traces = Sim.Engine.tracepoint_states c in
  let t1 = List.assoc 1 traces and t2 = List.assoc 2 traces in
  check_float "t1 pure zero" 1. (Cx.re (Cmat.get t1 0 0));
  check_float "t2 coherence" 0.5 (Cx.re (Cmat.get t2 0 1))

let test_engine_teleport_feedback () =
  (* teleporting a random state must reproduce it on qubit 2 in EVERY
     trajectory thanks to the feedback corrections *)
  let r = rng () in
  let c = Benchmarks.Teleport.single () in
  for _ = 1 to 20 do
    let payload = Clifford.Sampling.haar_state r 1 in
    let initial =
      Qstate.Statevec.kron (Qstate.Statevec.zero 2) payload
    in
    let o = Sim.Engine.run ~rng:r ~initial c in
    let out = Qstate.Statevec.reduced_density o.Sim.Engine.state [ 2 ] in
    let expect = Cmat.outer (Qstate.Statevec.to_cvec payload) (Qstate.Statevec.to_cvec payload) in
    if not (Cmat.equal ~eps:1e-9 out expect) then
      Alcotest.fail "teleportation failed in some trajectory"
  done

let test_engine_sample_counts () =
  let r = rng () in
  let c = Circuit.(empty 1 |> h 0) in
  let counts = Sim.Engine.sample_counts ~rng:r ~shots:4000 c in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  Alcotest.(check int) "total" 4000 total;
  List.iter
    (fun (_, n) -> check_float "balanced" 2000. (float_of_int n) ~eps:200.)
    counts

let test_engine_noise_decoheres () =
  let r = rng () in
  let noise = Sim.Noise.make ~p1:0.3 () in
  let c = Circuit.(empty 1 |> h 0 |> tracepoint 1 [ 0 ]) in
  let traces = Sim.Engine.tracepoint_states ~rng:r ~noise ~trajectories:400 c in
  let rho = List.assoc 1 traces in
  (* off-diagonal must shrink under depolarizing *)
  let coh = Cx.norm (Cmat.get rho 0 1) in
  if coh >= 0.48 then Alcotest.failf "noise did not decohere (%.3f)" coh;
  if coh <= 0.2 then Alcotest.failf "noise too strong (%.3f)" coh

let test_engine_deterministic_detection () =
  assert (Sim.Engine.is_deterministic (Benchmarks.Ghz.circuit 3));
  assert (not (Sim.Engine.is_deterministic (Benchmarks.Teleport.single ())))

(* ---------------- Dm_engine ---------------- *)

let test_dm_matches_statevec () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> rz 0.7 1 |> cx 1 2 |> ry 0.3 2) in
  let sv = (Sim.Engine.run c).Sim.Engine.state in
  let dm = Sim.Dm_engine.run c in
  let rho_sv = Qstate.Statevec.density sv in
  let rho_dm = Qstate.Density.mat (Sim.Dm_engine.final_density dm) in
  if not (Cmat.equal ~eps:1e-9 rho_sv rho_dm) then
    Alcotest.fail "density engine disagrees with statevector"

let test_dm_teleport_exact () =
  (* exact branch bookkeeping: teleported mixed output equals input exactly *)
  let c = Benchmarks.Teleport.single () in
  let payload = Clifford.Sampling.haar_state (rng ()) 1 in
  let initial =
    Qstate.Density.of_statevec
      (Qstate.Statevec.kron (Qstate.Statevec.zero 2) payload)
  in
  let o = Sim.Dm_engine.run ~initial c in
  let final = Sim.Dm_engine.final_density o in
  let out = Qstate.Density.partial_trace ~keep:[ 2 ] final in
  let expect =
    Cmat.outer (Qstate.Statevec.to_cvec payload) (Qstate.Statevec.to_cvec payload)
  in
  if not (Cmat.equal ~eps:1e-9 (Qstate.Density.mat out) expect) then
    Alcotest.fail "dm teleportation incorrect"

let test_dm_branch_weights () =
  let c = Circuit.(empty ~clbits:1 1 |> h 0 |> measure 0 0) in
  let o = Sim.Dm_engine.run c in
  let total = List.fold_left (fun a b -> a +. b.Sim.Dm_engine.weight) 0. o.Sim.Dm_engine.branches in
  check_float "weights sum to 1" 1. total ~eps:1e-9;
  Alcotest.(check int) "two branches" 2 (List.length o.Sim.Dm_engine.branches)

let test_dm_noise_validity () =
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1) in
  let o = Sim.Dm_engine.run ~noise:Sim.Noise.ibm_cairo c in
  let rho = Sim.Dm_engine.final_density o in
  assert (Qstate.Density.is_valid ~eps:1e-6 rho);
  assert (Qstate.Density.purity rho < 1.)

let test_dm_readout_error () =
  let noise = Sim.Noise.make ~readout:0.2 () in
  let c = Circuit.(empty ~clbits:1 1 |> measure 0 0) in
  let o = Sim.Dm_engine.run ~noise c in
  (* input |0>: branch reading 1 must carry weight 0.2 *)
  let w1 =
    List.fold_left
      (fun acc b -> if b.Sim.Dm_engine.clbits.(0) = 1 then acc +. b.Sim.Dm_engine.weight else acc)
      0. o.Sim.Dm_engine.branches
  in
  check_float "readout flip weight" 0.2 w1 ~eps:1e-9

(* ---------------- Cost ---------------- *)

let test_cost_record () =
  let m = Sim.Cost.create () in
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1) in
  Sim.Cost.record_circuit m (Sim.Cost.shape c) ~shots:100;
  Alcotest.(check int) "executions" 1 m.Sim.Cost.executions;
  Alcotest.(check int) "shots" 100 m.Sim.Cost.shots;
  Alcotest.(check int) "ops" 200 m.Sim.Cost.gate_ops;
  Alcotest.(check int) "1q" 100 m.Sim.Cost.one_qubit_gates;
  Alcotest.(check int) "2q" 100 m.Sim.Cost.two_qubit_gates

let test_cost_hardware_time () =
  let m = Sim.Cost.create () in
  m.Sim.Cost.one_qubit_gates <- 1000;
  m.Sim.Cost.two_qubit_gates <- 1000;
  m.Sim.Cost.measurements <- 1000;
  check_float "hw seconds" ((60. +. 340. +. 732.) *. 1e-6)
    (Sim.Cost.hardware_seconds m) ~eps:1e-12

let test_cost_add () =
  let a = Sim.Cost.create () and b = Sim.Cost.create () in
  let c = Circuit.(empty 1 |> h 0) in
  Sim.Cost.record_circuit a (Sim.Cost.shape c) ~shots:10;
  Sim.Cost.record_circuit b (Sim.Cost.shape c) ~shots:5;
  Sim.Cost.add a b;
  Alcotest.(check int) "merged shots" 15 a.Sim.Cost.shots

(* ---------------- Noise ---------------- *)

let test_noise_kraus_complete () =
  (* completeness: sum K^dag K = I *)
  let ks = Sim.Noise.kraus1 0.37 in
  let acc =
    List.fold_left
      (fun acc k -> Cmat.add acc (Cmat.mul (Cmat.adjoint k) k))
      (Cmat.create 2 2) ks
  in
  if not (Cmat.equal ~eps:1e-12 acc (Cmat.identity 2)) then
    Alcotest.fail "Kraus operators not complete"

let test_noise_sampler_rate () =
  let r = rng () in
  let hits = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    match Sim.Noise.sample_pauli r 0.25 with Some _ -> incr hits | None -> ()
  done;
  check_float "error rate" 0.25
    (float_of_int !hits /. float_of_int trials)
    ~eps:0.02

(* ---------------- extended noise channels ---------------- *)

let test_amplitude_damping () =
  let ks = Sim.Noise.amplitude_damping 0.3 in
  (* completeness *)
  let acc =
    List.fold_left
      (fun acc k -> Cmat.add acc (Cmat.mul (Cmat.adjoint k) k))
      (Cmat.create 2 2) ks
  in
  assert (Cmat.equal ~eps:1e-12 acc (Cmat.identity 2));
  (* |1> decays to |0> with probability gamma *)
  let rho = Qstate.Density.apply_kraus ks 0 (Qstate.Density.basis 1 1) in
  check_float "decayed weight" 0.3 (Cx.re (Cmat.get (Qstate.Density.mat rho) 0 0));
  (* |0> is a fixed point *)
  let rho0 = Qstate.Density.apply_kraus ks 0 (Qstate.Density.basis 1 0) in
  check_float "ground fixed" 1. (Cx.re (Cmat.get (Qstate.Density.mat rho0) 0 0))

let test_phase_damping () =
  let ks = Sim.Noise.phase_damping 0.5 in
  let plus = Qstate.Statevec.zero 1 in
  Qstate.Statevec.apply1 Qstate.Gates.h 0 plus;
  let rho = Qstate.Density.apply_kraus ks 0 (Qstate.Density.of_statevec plus) in
  (* populations untouched, coherence shrinks by sqrt(1-lambda) *)
  check_float "population" 0.5 (Cx.re (Cmat.get (Qstate.Density.mat rho) 0 0));
  check_float "coherence" (0.5 *. sqrt 0.5)
    (Cx.re (Cmat.get (Qstate.Density.mat rho) 0 1))
    ~eps:1e-12

let test_thermal_rates () =
  (* gate_time << T1,T2: tiny rates; equality at t=0 *)
  let g0, l0 = Sim.Noise.thermal ~t1:100e-6 ~t2:80e-6 ~gate_time:0. in
  check_float "gamma 0" 0. g0;
  check_float "lambda 0" 0. l0;
  let g, l = Sim.Noise.thermal ~t1:100e-6 ~t2:80e-6 ~gate_time:1e-6 in
  assert (g > 0. && g < 0.05);
  assert (l > 0. && l < 0.05);
  Alcotest.check_raises "unphysical"
    (Invalid_argument "Noise.thermal: T2 > 2 T1") (fun () ->
      ignore (Sim.Noise.thermal ~t1:1e-6 ~t2:3e-6 ~gate_time:1e-6))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ghz" `Quick test_engine_ghz;
          Alcotest.test_case "qft unitary" `Quick test_engine_unitary_qft;
          Alcotest.test_case "swap" `Quick test_engine_swap_gate;
          Alcotest.test_case "controls" `Quick test_engine_controls;
          Alcotest.test_case "tracepoints" `Quick test_engine_tracepoints;
          Alcotest.test_case "teleport feedback" `Quick test_engine_teleport_feedback;
          Alcotest.test_case "sample counts" `Quick test_engine_sample_counts;
          Alcotest.test_case "noise decoheres" `Quick test_engine_noise_decoheres;
          Alcotest.test_case "determinism detection" `Quick test_engine_deterministic_detection;
        ] );
      ( "dm-engine",
        [
          Alcotest.test_case "matches statevec" `Quick test_dm_matches_statevec;
          Alcotest.test_case "teleport exact" `Quick test_dm_teleport_exact;
          Alcotest.test_case "branch weights" `Quick test_dm_branch_weights;
          Alcotest.test_case "noise validity" `Quick test_dm_noise_validity;
          Alcotest.test_case "readout error" `Quick test_dm_readout_error;
        ] );
      ( "cost",
        [
          Alcotest.test_case "record" `Quick test_cost_record;
          Alcotest.test_case "hardware time" `Quick test_cost_hardware_time;
          Alcotest.test_case "add" `Quick test_cost_add;
        ] );
      ( "noise",
        [
          Alcotest.test_case "kraus completeness" `Quick test_noise_kraus_complete;
          Alcotest.test_case "sampler rate" `Quick test_noise_sampler_rate;
          Alcotest.test_case "amplitude damping" `Quick test_amplitude_damping;
          Alcotest.test_case "phase damping" `Quick test_phase_damping;
          Alcotest.test_case "thermal rates" `Quick test_thermal_rates;
        ] );
    ]

