open Qstate
open Linalg

let rng = Stats.Rng.make 123

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_cmat ?(eps = 1e-9) msg expected actual =
  if not (Cmat.equal ~eps expected actual) then
    Alcotest.failf "%s: matrices differ" msg

let random_state n =
  let d = 1 lsl n in
  let v =
    Cvec.init d (fun _ ->
        Cx.make
          (Stats.Rng.gaussian rng ~mu:0. ~sigma:1.)
          (Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
  in
  Statevec.of_cvec n (Cvec.normalize v)

(* ---------------- Pauli ---------------- *)

let test_pauli_matrices () =
  List.iter
    (fun op ->
      let m = Pauli.matrix1 op in
      assert (Cmat.is_unitary m);
      assert (Cmat.is_hermitian m))
    [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ];
  (* XY = iZ *)
  let xy = Cmat.mul (Pauli.matrix1 Pauli.X) (Pauli.matrix1 Pauli.Y) in
  check_cmat "XY = iZ" (Cmat.scale Cx.i (Pauli.matrix1 Pauli.Z)) xy

let test_pauli_string_roundtrip () =
  let p = Pauli.of_string "XIZY" in
  Alcotest.(check string) "roundtrip" "XIZY" (Pauli.to_string p);
  Alcotest.(check int) "weight" 3 (Pauli.weight p);
  (* qubit 0 is rightmost *)
  assert (p.(0) = Pauli.Y);
  assert (p.(3) = Pauli.X)

let test_pauli_all () =
  Alcotest.(check int) "count 1" 4 (List.length (Pauli.all 1));
  Alcotest.(check int) "count 2" 16 (List.length (Pauli.all 2));
  Alcotest.(check int) "count 3" 64 (List.length (Pauli.all 3))

let test_pauli_expectation_vs_matrix () =
  (* expectation_dm must match the explicit tr(P rho) on random states *)
  let n = 3 in
  let st = random_state n in
  let rho = Statevec.density st in
  List.iter
    (fun p ->
      let direct = Cx.re (Cmat.trace (Cmat.mul (Pauli.matrix p) rho)) in
      check_float (Pauli.to_string p) direct (Pauli.expectation_dm p rho)
        ~eps:1e-9)
    (Pauli.all n)

let test_pauli_statevec_expectation () =
  let n = 3 in
  let st = random_state n in
  let rho = Statevec.density st in
  List.iter
    (fun p ->
      check_float (Pauli.to_string p)
        (Pauli.expectation_dm p rho)
        (Statevec.expectation_pauli p st)
        ~eps:1e-9)
    (Pauli.all n)


let test_pauli_mul () =
  (* X * Y = iZ on one qubit *)
  let phase, r = Pauli.mul (Pauli.of_string "X") (Pauli.of_string "Y") in
  Alcotest.(check int) "phase" 1 phase;
  Alcotest.(check string) "result" "Z" (Pauli.to_string r);
  (* multi-qubit: matches explicit matrix product *)
  let a = Pauli.of_string "XZY" and b = Pauli.of_string "YYI" in
  let phase, r = Pauli.mul a b in
  let lhs = Cmat.mul (Pauli.matrix a) (Pauli.matrix b) in
  let phase_factor =
    match phase with
    | 0 -> Cx.one
    | 1 -> Cx.i
    | 2 -> Cx.of_float (-1.)
    | _ -> Cx.neg Cx.i
  in
  let rhs = Cmat.scale phase_factor (Pauli.matrix r) in
  if not (Cmat.equal ~eps:1e-12 lhs rhs) then Alcotest.fail "product mismatch"

let test_pauli_mul_self_inverse () =
  let p = Pauli.of_string "XYZIZ" in
  let phase, r = Pauli.mul p p in
  Alcotest.(check int) "phase" 0 phase;
  Alcotest.(check int) "identity" 0 (Pauli.weight r)

let test_pauli_commute () =
  assert (Pauli.commute (Pauli.of_string "XX") (Pauli.of_string "ZZ"));
  assert (not (Pauli.commute (Pauli.of_string "XI") (Pauli.of_string "ZI")));
  assert (Pauli.commute (Pauli.of_string "XI") (Pauli.of_string "IZ"))

(* ---------------- Gates ---------------- *)

let test_gates_unitary () =
  List.iter
    (fun (name, params) ->
      let u = Gates.by_name name params in
      if not (Cmat.is_unitary ~eps:1e-10 u) then
        Alcotest.failf "%s not unitary" name)
    [
      ("h", []); ("x", []); ("y", []); ("z", []); ("s", []); ("sdg", []);
      ("t", []); ("tdg", []); ("sx", []); ("sy", []); ("sw", []); ("id", []);
      ("rx", [ 0.7 ]); ("ry", [ 1.3 ]); ("rz", [ -2.1 ]); ("p", [ 0.4 ]);
      ("u3", [ 0.5; 1.1; -0.3 ]);
    ]

let test_gate_identities () =
  (* HXH = Z, HZH = X, S^2 = Z, T^2 = S, sx^2 = X *)
  let open Gates in
  check_cmat "HXH = Z" z (Cmat.mul3 h x h);
  check_cmat "HZH = X" x (Cmat.mul3 h z h);
  check_cmat "S^2 = Z" z (Cmat.mul s s);
  check_cmat "T^2 = S" s (Cmat.mul t t);
  check_cmat "SX^2 = X" x (Cmat.mul sx sx);
  check_cmat "SY^2 = Y" y (Cmat.mul sy sy)

let test_rotation_periodicity () =
  (* R(0) = I and R(2pi) = -I *)
  check_cmat "rx 0" (Cmat.identity 2) (Gates.rx 0.);
  check_cmat "rx 2pi"
    (Cmat.rscale (-1.) (Cmat.identity 2))
    (Gates.rx (2. *. Float.pi))
    ~eps:1e-12

(* ---------------- Statevec ---------------- *)

let test_statevec_basis () =
  let st = Statevec.basis 3 5 in
  check_float "amp 5" 1. (Cx.re (Statevec.amplitude st 5));
  check_float "norm" 1. (Statevec.norm st);
  check_float "prob1 q0" 1. (Statevec.prob1 st 0);
  check_float "prob1 q1" 0. (Statevec.prob1 st 1);
  check_float "prob1 q2" 1. (Statevec.prob1 st 2)

let test_statevec_apply1_h () =
  let st = Statevec.zero 1 in
  Statevec.apply1 Gates.h 0 st;
  check_float "amp0" (1. /. sqrt 2.) (Cx.re (Statevec.amplitude st 0));
  check_float "amp1" (1. /. sqrt 2.) (Cx.re (Statevec.amplitude st 1))

let test_statevec_bell () =
  let st = Statevec.zero 2 in
  Statevec.apply1 Gates.h 0 st;
  Statevec.apply_controlled ~controls:[ 0 ] Gates.x 1 st;
  check_float "p00" 0.5 (Cx.norm2 (Statevec.amplitude st 0));
  check_float "p11" 0.5 (Cx.norm2 (Statevec.amplitude st 3));
  check_float "p01" 0. (Cx.norm2 (Statevec.amplitude st 1))

let test_statevec_apply_preserves_norm () =
  let st = random_state 4 in
  Statevec.apply1 (Gates.u3 0.4 1.2 2.2) 2 st;
  Statevec.apply_controlled ~controls:[ 0; 3 ] (Gates.rx 0.9) 1 st;
  check_float "norm preserved" 1. (Statevec.norm st) ~eps:1e-10

let test_statevec_apply2_swap () =
  let st = Statevec.basis 2 1 in
  (* |01> with qubit0=1 *)
  let swap =
    Cmat.init 4 4 (fun i j ->
        let sw = ((j land 1) lsl 1) lor ((j lsr 1) land 1) in
        if i = sw then Cx.one else Cx.zero)
  in
  Statevec.apply2 swap 0 1 st;
  check_float "swapped" 1. (Cx.norm2 (Statevec.amplitude st 2))

let test_statevec_measure_collapse () =
  let st = Statevec.zero 2 in
  Statevec.apply1 Gates.h 0 st;
  Statevec.apply_controlled ~controls:[ 0 ] Gates.x 1 st;
  let outcome = Statevec.measure rng st 0 in
  (* Bell state: both qubits must agree after collapse *)
  check_float "correlated" (float_of_int outcome) (Statevec.prob1 st 1) ~eps:1e-9

let test_statevec_project_zero_prob () =
  let st = Statevec.basis 1 0 in
  let p = Statevec.project st 0 1 in
  check_float "zero prob branch" 0. p

let test_statevec_reduced_density () =
  (* Bell state: each qubit maximally mixed *)
  let st = Statevec.zero 2 in
  Statevec.apply1 Gates.h 0 st;
  Statevec.apply_controlled ~controls:[ 0 ] Gates.x 1 st;
  let rho0 = Statevec.reduced_density st [ 0 ] in
  check_cmat "maximally mixed" (Cmat.rscale 0.5 (Cmat.identity 2)) rho0;
  (* product state: reduced = pure *)
  let st2 = Statevec.basis 2 2 in
  let rho1 = Statevec.reduced_density st2 [ 1 ] in
  check_float "pure part" 1. (Cx.re (Cmat.get rho1 1 1))

let test_statevec_reduced_density_order () =
  (* keep-list order defines result bit order *)
  let st = Statevec.basis 3 0b011 in
  let rho = Statevec.reduced_density st [ 1; 0 ] in
  (* qubit1=1 is result bit 0, qubit0=1 is result bit 1: index 0b11 *)
  check_float "reordered" 1. (Cx.re (Cmat.get rho 3 3))

let test_statevec_kron () =
  let a = Statevec.basis 1 1 and b = Statevec.basis 2 2 in
  let ab = Statevec.kron a b in
  (* a occupies high bits: index = 1*4 + 2 = 6 *)
  check_float "kron index" 1. (Cx.norm2 (Statevec.amplitude ab 6))

let test_statevec_counts () =
  let st = Statevec.zero 1 in
  Statevec.apply1 Gates.h 0 st;
  let counts = Statevec.counts rng st ~shots:10000 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check int) "total" 10000 total;
  List.iter
    (fun (_, c) -> check_float "balanced" 5000. (float_of_int c) ~eps:300.)
    counts

(* ---------------- Density ---------------- *)

let test_density_pure () =
  let st = random_state 2 in
  let rho = Density.of_statevec st in
  check_float "trace" 1. (Density.trace rho) ~eps:1e-10;
  check_float "purity" 1. (Density.purity rho) ~eps:1e-10;
  assert (Density.is_valid rho)

let test_density_mixed () =
  let rho =
    Density.mix [ (0.5, Density.basis 1 0); (0.5, Density.basis 1 1) ]
  in
  check_float "purity" 0.5 (Density.purity rho) ~eps:1e-10;
  assert (Density.is_valid rho)

let test_density_apply1_matches_statevec () =
  let st = random_state 3 in
  let rho = Density.of_statevec st in
  let u = Gates.u3 0.7 0.2 1.9 in
  let rho' = Density.apply1 u 1 rho in
  Statevec.apply1 u 1 st;
  check_cmat "evolved" (Density.mat (Density.of_statevec st)) (Density.mat rho')

let test_density_controlled_matches_statevec () =
  let st = random_state 3 in
  let rho = Density.of_statevec st in
  let u = Gates.ry 1.1 in
  let rho' = Density.apply_controlled ~controls:[ 0; 2 ] u 1 rho in
  Statevec.apply_controlled ~controls:[ 0; 2 ] u 1 st;
  check_cmat "evolved" (Density.mat (Density.of_statevec st)) (Density.mat rho')

let test_density_kraus_trace_preserving () =
  let st = random_state 2 in
  let rho = Density.of_statevec st in
  let rho' = Density.apply_kraus (Sim.Noise.kraus1 0.2) 0 rho in
  check_float "trace preserved" 1. (Density.trace rho') ~eps:1e-10;
  assert (Density.purity rho' < 1.)

let test_density_depolarizing_limit () =
  (* p = 1 sends any single-qubit state to I/2 mixed with itself at 1/3 *)
  let rho = Density.basis 1 0 in
  let rho' = Density.apply_kraus (Sim.Noise.kraus1 0.75) 0 rho in
  check_cmat "3/4-depolarized = I/2"
    (Cmat.rscale 0.5 (Cmat.identity 2))
    (Density.mat rho')

let test_density_measure () =
  let st = Statevec.zero 1 in
  Statevec.apply1 Gates.h 0 st;
  let rho = Density.of_statevec st in
  let (p0, r0), (p1, _) = Density.measure_qubit rho 0 in
  check_float "p0" 0.5 p0 ~eps:1e-10;
  check_float "p1" 0.5 p1 ~eps:1e-10;
  check_cmat "collapsed" (Density.mat (Density.basis 1 0)) (Density.mat r0)

let test_density_partial_trace () =
  let st = Statevec.zero 2 in
  Statevec.apply1 Gates.h 0 st;
  Statevec.apply_controlled ~controls:[ 0 ] Gates.x 1 st;
  let rho = Density.of_statevec st in
  let r0 = Density.partial_trace ~keep:[ 0 ] rho in
  check_cmat "bell partial" (Cmat.rscale 0.5 (Cmat.identity 2)) (Density.mat r0);
  check_cmat "matches statevec" (Statevec.reduced_density st [ 0 ]) (Density.mat r0)

let test_density_fidelity () =
  let a = Density.basis 2 0 and b = Density.basis 2 3 in
  check_float "orthogonal" 0. (Density.fidelity a b) ~eps:1e-9;
  check_float "self" 1. (Density.fidelity a a) ~eps:1e-9;
  (* pure vs mixed: F(|0>, I/2) = 1/2 *)
  check_float "half" 0.5
    (Density.fidelity (Density.basis 1 0) (Density.maximally_mixed 1))
    ~eps:1e-9

let test_density_fidelity_pure_overlap () =
  let a = random_state 2 and b = random_state 2 in
  let f_sv = Statevec.fidelity_pure a b in
  let f_dm = Density.fidelity (Density.of_statevec a) (Density.of_statevec b) in
  check_float "matches overlap" f_sv f_dm ~eps:1e-7

(* ---------------- qcheck ---------------- *)

let gen_state =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    let d = 1 lsl n in
    array_size (return (2 * d)) (float_range (-1.) 1.) >|= fun xs ->
    let v = Cvec.init d (fun k -> Cx.make xs.(2 * k) xs.((2 * k) + 1)) in
    let nv = Cvec.norm v in
    if nv < 1e-6 then Statevec.basis n 0
    else Statevec.of_cvec n (Cvec.rscale (1. /. nv) v))

let arb_state = QCheck.make gen_state ~print:(fun st -> Printf.sprintf "%d-qubit state" (Statevec.num_qubits st))

let prop_gate_preserves_norm =
  QCheck.Test.make ~name:"gates preserve norm" ~count:100 arb_state (fun st ->
      let st = Statevec.copy st in
      Statevec.apply1 Gates.h 0 st;
      Statevec.apply1 (Gates.rz 0.3) 0 st;
      Float.abs (Statevec.norm st -. 1.) < 1e-9)

let prop_density_valid =
  QCheck.Test.make ~name:"pure density matrices are valid" ~count:50 arb_state
    (fun st -> Density.is_valid (Density.of_statevec st))

let prop_partial_trace_unit =
  QCheck.Test.make ~name:"partial trace keeps unit trace" ~count:50 arb_state
    (fun st ->
      let rho = Statevec.reduced_density st [ 0 ] in
      Float.abs (Cx.re (Cmat.trace rho) -. 1.) < 1e-9)

(* ---------------- reductions against the compose-based reference ----------------

   The reference rebuilds every full index from its kept sub-index [a] and
   environment sub-index [e] bit by bit, and sums environments in
   ascending [e]. The reductions must reproduce it bit for bit: same
   terms, same order, same zero-skipping. *)

let ref_compose n keep =
  let keep_arr = Array.of_list keep in
  let keep_mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 keep_arr in
  let rest_arr =
    Array.of_list
      (List.filter (fun q -> keep_mask land (1 lsl q) = 0) (List.init n Fun.id))
  in
  let compose a e =
    let idx = ref 0 in
    Array.iteri
      (fun j q -> if (a lsr j) land 1 = 1 then idx := !idx lor (1 lsl q))
      keep_arr;
    Array.iteri
      (fun j q -> if (e lsr j) land 1 = 1 then idx := !idx lor (1 lsl q))
      rest_arr;
    !idx
  in
  (compose, 1 lsl Array.length keep_arr, 1 lsl Array.length rest_arr)

let ref_reduced_density st keep =
  let compose, dk, dr = ref_compose (Statevec.num_qubits st) keep in
  let rho = Cmat.create dk dk in
  let rre = rho.Cmat.re and rim = rho.Cmat.im in
  for e = 0 to dr - 1 do
    for a = 0 to dk - 1 do
      let ia = compose a e in
      let ar = st.Statevec.re.(ia) and ai = st.Statevec.im.(ia) in
      if ar <> 0. || ai <> 0. then
        for b = 0 to dk - 1 do
          let ib = compose b e in
          let br = st.Statevec.re.(ib) and bi = st.Statevec.im.(ib) in
          rre.((a * dk) + b) <- rre.((a * dk) + b) +. (ar *. br) +. (ai *. bi);
          rim.((a * dk) + b) <- rim.((a * dk) + b) +. (ai *. br) -. (ar *. bi)
        done
    done
  done;
  rho

let ref_partial_trace ~keep rho =
  let compose, dk, dr = ref_compose (Density.num_qubits rho) keep in
  let m = Density.mat rho in
  let out = Cmat.create dk dk in
  for a = 0 to dk - 1 do
    for b = 0 to dk - 1 do
      let s = ref Cx.zero in
      for e = 0 to dr - 1 do
        s := Cx.add !s (Cmat.get m (compose a e) (compose b e))
      done;
      Cmat.set out a b !s
    done
  done;
  out

let same_bits a b =
  let bits = Array.map Int64.bits_of_float in
  Cmat.dims a = Cmat.dims b
  && bits a.Cmat.re = bits b.Cmat.re
  && bits a.Cmat.im = bits b.Cmat.im

(* [n] qubits, [k] of them kept in a random order; a third of the values
   are exact zeros of either sign, to exercise the zero-skipping *)
let arb_reduction =
  QCheck.make
    ~print:(fun (n, k, seed) -> Printf.sprintf "n=%d k=%d seed=%d" n k seed)
    QCheck.Gen.(
      int_range 1 10 >>= fun n ->
      int_range 0 n >>= fun k ->
      int_bound 1_000_000 >|= fun seed -> (n, k, seed))

let reduction_case (n, k, seed) =
  let r = Stats.Rng.make seed in
  let value () =
    match Stats.Rng.int r 6 with
    | 0 -> 0.
    | 1 -> -0.
    | _ -> Stats.Rng.float r 2. -. 1.
  in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Stats.Rng.int r (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  (value, Array.to_list (Array.sub order 0 k))

let prop_reduced_density_bits =
  QCheck.Test.make ~name:"reduced density bit-identical to reference"
    ~count:100 arb_reduction (fun (n, k, seed) ->
      let value, keep = reduction_case (n, k, seed) in
      let d = 1 lsl n in
      let re = Array.init d (fun _ -> value ()) in
      let im = Array.init d (fun _ -> value ()) in
      let st = Statevec.of_cvec n (Cvec.of_arrays re im) in
      same_bits (ref_reduced_density st keep) (Statevec.reduced_density st keep))

let prop_partial_trace_bits =
  QCheck.Test.make ~name:"partial trace bit-identical to reference" ~count:40
    arb_reduction (fun (n, k, seed) ->
      let value, keep = reduction_case (n, k, seed) in
      let d = 1 lsl n in
      let m = Cmat.create d d in
      Array.iteri (fun i _ -> m.Cmat.re.(i) <- value ()) m.Cmat.re;
      Array.iteri (fun i _ -> m.Cmat.im.(i) <- value ()) m.Cmat.im;
      let rho = Density.of_cmat n m in
      same_bits (ref_partial_trace ~keep rho)
        (Density.mat (Density.partial_trace ~keep rho)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_gate_preserves_norm;
      prop_density_valid;
      prop_partial_trace_unit;
      prop_reduced_density_bits;
      prop_partial_trace_bits;
    ]

let () =
  Alcotest.run "qstate"
    [
      ( "pauli",
        [
          Alcotest.test_case "matrices" `Quick test_pauli_matrices;
          Alcotest.test_case "string roundtrip" `Quick test_pauli_string_roundtrip;
          Alcotest.test_case "all" `Quick test_pauli_all;
          Alcotest.test_case "expectation vs matrix" `Quick test_pauli_expectation_vs_matrix;
          Alcotest.test_case "statevec expectation" `Quick test_pauli_statevec_expectation;
          Alcotest.test_case "multiplication" `Quick test_pauli_mul;
          Alcotest.test_case "self inverse" `Quick test_pauli_mul_self_inverse;
          Alcotest.test_case "commutation" `Quick test_pauli_commute;
        ] );
      ( "gates",
        [
          Alcotest.test_case "unitarity" `Quick test_gates_unitary;
          Alcotest.test_case "identities" `Quick test_gate_identities;
          Alcotest.test_case "rotation periodicity" `Quick test_rotation_periodicity;
        ] );
      ( "statevec",
        [
          Alcotest.test_case "basis" `Quick test_statevec_basis;
          Alcotest.test_case "hadamard" `Quick test_statevec_apply1_h;
          Alcotest.test_case "bell" `Quick test_statevec_bell;
          Alcotest.test_case "norm preservation" `Quick test_statevec_apply_preserves_norm;
          Alcotest.test_case "apply2 swap" `Quick test_statevec_apply2_swap;
          Alcotest.test_case "measure collapse" `Quick test_statevec_measure_collapse;
          Alcotest.test_case "project zero prob" `Quick test_statevec_project_zero_prob;
          Alcotest.test_case "reduced density" `Quick test_statevec_reduced_density;
          Alcotest.test_case "reduced density order" `Quick test_statevec_reduced_density_order;
          Alcotest.test_case "kron" `Quick test_statevec_kron;
          Alcotest.test_case "counts" `Quick test_statevec_counts;
        ] );
      ( "density",
        [
          Alcotest.test_case "pure" `Quick test_density_pure;
          Alcotest.test_case "mixed" `Quick test_density_mixed;
          Alcotest.test_case "apply1 vs statevec" `Quick test_density_apply1_matches_statevec;
          Alcotest.test_case "controlled vs statevec" `Quick test_density_controlled_matches_statevec;
          Alcotest.test_case "kraus trace preserving" `Quick test_density_kraus_trace_preserving;
          Alcotest.test_case "depolarizing limit" `Quick test_density_depolarizing_limit;
          Alcotest.test_case "measure" `Quick test_density_measure;
          Alcotest.test_case "partial trace" `Quick test_density_partial_trace;
          Alcotest.test_case "fidelity" `Quick test_density_fidelity;
          Alcotest.test_case "fidelity pure overlap" `Quick test_density_fidelity_pure_overlap;
        ] );
      ("properties", qcheck_tests);
    ]
