open Stabilizer

let rng () = Stats.Rng.make 424242

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* random Clifford circuit over the tableau gate set *)
let random_clifford_circuit r n gates =
  let c = ref (Circuit.empty n) in
  for _ = 1 to gates do
    (match Stats.Rng.int r 5 with
    | 0 -> c := Circuit.h (Stats.Rng.int r n) !c
    | 1 -> c := Circuit.s (Stats.Rng.int r n) !c
    | 2 -> c := Circuit.x (Stats.Rng.int r n) !c
    | 3 ->
        if n >= 2 then begin
          let a = Stats.Rng.int r n in
          let b = ref (Stats.Rng.int r n) in
          while !b = a do
            b := Stats.Rng.int r n
          done;
          c := Circuit.cx a !b !c
        end
    | _ ->
        if n >= 2 then begin
          let a = Stats.Rng.int r n in
          let b = ref (Stats.Rng.int r n) in
          while !b = a do
            b := Stats.Rng.int r n
          done;
          c := Circuit.cz a !b !c
        end)
  done;
  !c

let density_matches_dense c =
  let t = Tableau.run c in
  let rho_tab = Tableau.density t in
  let st = (Sim.Engine.run c).Sim.Engine.state in
  let rho_sv = Qstate.Statevec.density st in
  Linalg.Cmat.equal ~eps:1e-9 rho_tab rho_sv

let test_initial_state () =
  let t = Tableau.make 3 in
  Alcotest.(check (list (pair string string)))
    "Z stabilizers"
    [ ("+", "IIZ"); ("+", "IZI"); ("+", "ZII") ]
    (Tableau.stabilizer_strings t)

let test_bell_stabilizers () =
  let t = Tableau.make 2 in
  Tableau.h t 0;
  Tableau.cx t 0 1;
  Alcotest.(check (list (pair string string)))
    "bell" [ ("+", "XX"); ("+", "ZZ") ]
    (Tableau.stabilizer_strings t)

let test_ghz_density () =
  let c = Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2) in
  if not (density_matches_dense c) then Alcotest.fail "GHZ density mismatch"

let test_random_circuits_match_dense () =
  let r = rng () in
  for n = 1 to 4 do
    for _ = 1 to 8 do
      let c = random_clifford_circuit r n 20 in
      if not (density_matches_dense c) then
        Alcotest.failf "density mismatch on random %d-qubit circuit:@.%s" n
          (Format.asprintf "%a" Circuit.pp c)
    done
  done

let test_x_z_phases () =
  (* X|0> = |1>: stabilizer -Z *)
  let t = Tableau.make 1 in
  Tableau.x t 0;
  Alcotest.(check (list (pair string string))) "minus z" [ ("-", "Z") ]
    (Tableau.stabilizer_strings t);
  (* S|+> has stabilizer Y *)
  let t = Tableau.make 1 in
  Tableau.h t 0;
  Tableau.s t 0;
  Alcotest.(check (list (pair string string))) "y" [ ("+", "Y") ]
    (Tableau.stabilizer_strings t)

let test_sdg_inverse () =
  let t = Tableau.make 2 in
  Tableau.h t 0;
  Tableau.cx t 0 1;
  let before = Tableau.stabilizer_strings t in
  Tableau.s t 1;
  Tableau.sdg t 1;
  Alcotest.(check (list (pair string string))) "unchanged" before
    (Tableau.stabilizer_strings t)

let test_measure_deterministic () =
  let r = rng () in
  let t = Tableau.make 2 in
  Tableau.x t 0;
  Alcotest.(check int) "|1> measures 1" 1 (Tableau.measure r t 0);
  Alcotest.(check int) "|0> measures 0" 0 (Tableau.measure r t 1);
  (* measurement doesn't disturb a deterministic outcome *)
  Alcotest.(check int) "repeatable" 1 (Tableau.measure r t 0)

let test_measure_random_correlated () =
  let r = rng () in
  (* Bell pair: outcomes random but perfectly correlated *)
  let ones = ref 0 in
  for _ = 1 to 200 do
    let t = Tableau.make 2 in
    Tableau.h t 0;
    Tableau.cx t 0 1;
    let a = Tableau.measure r t 0 in
    let b = Tableau.measure r t 1 in
    Alcotest.(check int) "correlated" a b;
    if a = 1 then incr ones
  done;
  check_float "balanced" 100. (float_of_int !ones) ~eps:40.

let test_measure_statistics_match_dense () =
  let r = rng () in
  let c = random_clifford_circuit r 3 15 in
  let st = (Sim.Engine.run c).Sim.Engine.state in
  let p1_dense = Qstate.Statevec.prob1 st 1 in
  let ones = ref 0 in
  let trials = 400 in
  for _ = 1 to trials do
    let t = Tableau.run c in
    if Tableau.measure r t 1 = 1 then incr ones
  done;
  check_float "p1 agreement" p1_dense
    (float_of_int !ones /. float_of_int trials)
    ~eps:0.09

let test_expectation_z () =
  let t = Tableau.make 2 in
  Alcotest.(check int) "zero state" 1 (Tableau.expectation_z t 0);
  Tableau.x t 0;
  Alcotest.(check int) "one state" (-1) (Tableau.expectation_z t 0);
  Tableau.h t 1;
  Alcotest.(check int) "superposition" 0 (Tableau.expectation_z t 1)

let test_apply_gate_dispatch () =
  let c = Circuit.(empty 2 |> h 0 |> cx 0 1 |> z 1 |> swap 0 1) in
  assert (Analysis.Classify.circuit c = Analysis.Classify.Clifford);
  if not (density_matches_dense c) then Alcotest.fail "dispatch mismatch";
  let bad = Circuit.(empty 1 |> t_gate 0) in
  assert (Analysis.Classify.circuit bad <> Analysis.Classify.Clifford)

let test_random_state_valid () =
  let r = rng () in
  for n = 1 to 4 do
    let t = Tableau.random r n in
    let rho = Tableau.density t in
    let dm = Qstate.Density.of_cmat n rho in
    assert (Qstate.Density.is_valid ~eps:1e-8 dm);
    check_float "pure" 1. (Qstate.Density.purity dm) ~eps:1e-9
  done

let test_random_states_spread () =
  (* random stabilizer states should not all coincide *)
  let r = rng () in
  let t1 = Tableau.random r 3 and t2 = Tableau.random r 3 in
  let d1 = Tableau.density t1 and d2 = Tableau.density t2 in
  assert (not (Linalg.Cmat.equal ~eps:1e-6 d1 d2))

let prop_clifford_matches_dense =
  QCheck.Test.make ~name:"tableau matches dense simulation" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (n, seed) ->
      let r = Stats.Rng.make seed in
      let c = random_clifford_circuit r n 16 in
      density_matches_dense c)

(* Pauli-expansion reductions against the dense path: stabilizer reduced
   densities are dyadic rationals, so both are exact and must be equal *)
let dense_reduction n tab keep =
  Qstate.Density.mat
    (Qstate.Density.partial_trace ~keep
       (Qstate.Density.of_cmat n (Tableau.density tab)))

let random_keep r n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Stats.Rng.int r (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.to_list (Array.sub order 0 (Stats.Rng.int r (n + 1)))

let prop_reduced_density_exact =
  QCheck.Test.make ~name:"tableau reduced density = density + partial trace"
    ~count:280
    QCheck.(pair (int_range 1 7) (int_range 0 100_000))
    (fun (n, seed) ->
      let r = Stats.Rng.make seed in
      let tab = Tableau.random r n in
      let keep = random_keep r n in
      Tableau.reduced_density tab keep = dense_reduction n tab keep)

let prop_rank_reduced_density_exact =
  QCheck.Test.make ~name:"rank reduced density = density + partial trace"
    ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let r = Stats.Rng.make seed in
      let c = random_clifford_circuit r n 24 in
      let keep = random_keep r n in
      let rank = Sim.Rank.make n 0 in
      List.iter
        (function Circuit.Instr.Gate g -> Sim.Rank.apply_gate g rank | _ -> ())
        (Circuit.instrs c);
      Sim.Rank.reduced_density rank keep = dense_reduction n (Tableau.run c) keep)

let () =
  Alcotest.run "stabilizer"
    [
      ( "tableau",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "bell stabilizers" `Quick test_bell_stabilizers;
          Alcotest.test_case "ghz density" `Quick test_ghz_density;
          Alcotest.test_case "random vs dense" `Quick test_random_circuits_match_dense;
          Alcotest.test_case "x/z phases" `Quick test_x_z_phases;
          Alcotest.test_case "sdg inverse" `Quick test_sdg_inverse;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "random correlated" `Quick test_measure_random_correlated;
          Alcotest.test_case "statistics vs dense" `Quick test_measure_statistics_match_dense;
          Alcotest.test_case "expectation z" `Quick test_expectation_z;
        ] );
      ( "integration",
        [
          Alcotest.test_case "gate dispatch" `Quick test_apply_gate_dispatch;
          Alcotest.test_case "random state valid" `Quick test_random_state_valid;
          Alcotest.test_case "random states spread" `Quick test_random_states_spread;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_clifford_matches_dense;
            prop_reduced_density_exact;
            prop_rank_reduced_density_exact;
          ] );
    ]
