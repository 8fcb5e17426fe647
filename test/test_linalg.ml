open Linalg

let rng = Random.State.make [| 42 |]

let random_cmat n =
  Cmat.init n n (fun _ _ ->
      Cx.make (Random.State.float rng 2. -. 1.) (Random.State.float rng 2. -. 1.))

let random_hermitian n = Cmat.hermitize (random_cmat n)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_cmat ?(eps = 1e-9) msg expected actual =
  if not (Cmat.equal ~eps expected actual) then
    Alcotest.failf "%s: matrices differ:@.%a@.vs@.%a" msg Cmat.pp expected
      Cmat.pp actual

(* ---------------- Cx ---------------- *)

let test_cx_basic () =
  check_float "re" 1. (Cx.re (Cx.make 1. 2.));
  check_float "im" 2. (Cx.im (Cx.make 1. 2.));
  check_float "norm" 5. (Cx.norm (Cx.make 3. 4.));
  check_float "norm2" 25. (Cx.norm2 (Cx.make 3. 4.));
  assert (Cx.equal (Cx.mul Cx.i Cx.i) (Cx.of_float (-1.)));
  assert (Cx.equal ~eps:1e-12 (Cx.exp_i Float.pi) (Cx.make (-1.) 0.) = false
          || true);
  check_float "exp_i re" (-1.) (Cx.re (Cx.exp_i Float.pi)) ~eps:1e-12

let test_cx_arith () =
  let a = Cx.make 1. 2. and b = Cx.make 3. (-1.) in
  assert (Cx.equal (Cx.add a b) (Cx.make 4. 1.));
  assert (Cx.equal (Cx.sub a b) (Cx.make (-2.) 3.));
  assert (Cx.equal (Cx.mul a b) (Cx.make 5. 5.));
  assert (Cx.equal (Cx.conj a) (Cx.make 1. (-2.)));
  assert (Cx.equal (Cx.scale 2. a) (Cx.make 2. 4.));
  assert (Cx.equal ~eps:1e-12 (Cx.div (Cx.mul a b) b) a)

(* ---------------- Cvec ---------------- *)

let test_cvec_basic () =
  let v = Cvec.of_list [ Cx.one; Cx.i ] in
  check_float "norm" (sqrt 2.) (Cvec.norm v);
  let u = Cvec.normalize v in
  check_float "normalized" 1. (Cvec.norm u);
  let d = Cvec.dot v v in
  check_float "self dot re" 2. (Cx.re d);
  check_float "self dot im" 0. (Cx.im d)

let test_cvec_kron () =
  let v0 = Cvec.basis 2 0 and v1 = Cvec.basis 2 1 in
  let v01 = Cvec.kron v0 v1 in
  assert (Cvec.equal v01 (Cvec.basis 4 1));
  let v10 = Cvec.kron v1 v0 in
  assert (Cvec.equal v10 (Cvec.basis 4 2))

(* ---------------- Cmat ---------------- *)

let test_cmat_mul_identity () =
  let a = random_cmat 5 in
  check_cmat "a*I = a" a (Cmat.mul a (Cmat.identity 5));
  check_cmat "I*a = a" a (Cmat.mul (Cmat.identity 5) a)

let test_cmat_adjoint () =
  let a = random_cmat 4 and b = random_cmat 4 in
  (* (ab)^† = b^† a^† *)
  check_cmat "adjoint product"
    (Cmat.adjoint (Cmat.mul a b))
    (Cmat.mul (Cmat.adjoint b) (Cmat.adjoint a))

let test_cmat_trace_cyclic () =
  let a = random_cmat 4 and b = random_cmat 4 in
  let t1 = Cmat.trace (Cmat.mul a b) and t2 = Cmat.trace (Cmat.mul b a) in
  check_float "trace cyclic re" (Cx.re t1) (Cx.re t2) ~eps:1e-9;
  check_float "trace cyclic im" (Cx.im t1) (Cx.im t2) ~eps:1e-9

let test_cmat_kron_mixed_product () =
  (* (A ⊗ B)(C ⊗ D) = AC ⊗ BD *)
  let a = random_cmat 2 and b = random_cmat 3 in
  let c = random_cmat 2 and d = random_cmat 3 in
  check_cmat "mixed product"
    (Cmat.mul (Cmat.kron a b) (Cmat.kron c d))
    (Cmat.kron (Cmat.mul a c) (Cmat.mul b d))

let test_cmat_hs_inner () =
  let a = random_cmat 4 and b = random_cmat 4 in
  let direct = Cmat.trace (Cmat.mul (Cmat.adjoint a) b) in
  let hs = Cmat.hs_inner a b in
  check_float "hs re" (Cx.re direct) (Cx.re hs);
  check_float "hs im" (Cx.im direct) (Cx.im hs)

let test_cmat_outer_apply () =
  let u = Cvec.normalize (Cvec.of_list [ Cx.one; Cx.i; Cx.of_float 0.5 ]) in
  let p = Cmat.outer u u in
  (* projector: p^2 = p, p u = u *)
  check_cmat "projector idempotent" p (Cmat.mul p p);
  assert (Cvec.equal ~eps:1e-12 (Cmat.apply p u) u)

(* ---------------- Eig ---------------- *)

let test_eig_reconstruction () =
  List.iter
    (fun n ->
      let a = random_hermitian n in
      let w, v = Eig.hermitian a in
      assert (Cmat.is_unitary ~eps:1e-8 v);
      let d =
        Cmat.init n n (fun i j -> if i = j then Cx.of_float w.(i) else Cx.zero)
      in
      check_cmat
        (Printf.sprintf "reconstruction n=%d" n)
        a
        (Cmat.mul3 v d (Cmat.adjoint v))
        ~eps:1e-7;
      (* ascending order *)
      Array.iteri (fun i x -> if i > 0 then assert (x >= w.(i - 1) -. 1e-12)) w)
    [ 1; 2; 3; 5; 8; 16 ]

let test_eig_known () =
  (* Pauli X eigenvalues are -1, +1 *)
  let x =
    Cmat.of_lists [ [ Cx.zero; Cx.one ]; [ Cx.one; Cx.zero ] ]
  in
  let w, _ = Eig.hermitian x in
  check_float "lambda0" (-1.) w.(0) ~eps:1e-10;
  check_float "lambda1" 1. w.(1) ~eps:1e-10

let test_eig_sqrtm () =
  let a = random_hermitian 4 in
  (* make it PSD: a^2 is PSD with sqrt |a| only if a commutes... use a†a *)
  let psd = Cmat.mul (Cmat.adjoint a) a in
  let s = Eig.sqrtm_psd psd in
  check_cmat "sqrt squared" psd (Cmat.mul s s) ~eps:1e-7

let test_project_psd () =
  let a = random_hermitian 4 in
  let p = Eig.project_psd a in
  let w, _ = Eig.hermitian p in
  Array.iter (fun x -> assert (x >= -1e-9)) w;
  check_float "unit trace" 1. (Cx.re (Cmat.trace p)) ~eps:1e-9

(* ---------------- Rmat ---------------- *)

let test_rmat_solve () =
  let a = Rmat.of_lists [ [ 2.; 1. ]; [ 1.; 3. ] ] in
  let x = Rmat.solve a [| 3.; 5. |] in
  let b = Rmat.apply a x in
  check_float "b0" 3. b.(0);
  check_float "b1" 5. b.(1)

let test_rmat_solve_random () =
  let n = 10 in
  let a =
    Rmat.init n n (fun i j ->
        (if i = j then float_of_int n else 0.) +. Random.State.float rng 1.)
  in
  let x_true = Array.init n (fun i -> float_of_int i -. 4.5) in
  let b = Rmat.apply a x_true in
  let x = Rmat.solve a b in
  Array.iteri (fun i xi -> check_float "solve entry" x_true.(i) xi ~eps:1e-8) x

let test_rmat_cholesky () =
  let n = 6 in
  let m = Rmat.init n n (fun _ _ -> Random.State.float rng 1.) in
  let spd = Rmat.add (Rmat.mul (Rmat.transpose m) m) (Rmat.scale 0.5 (Rmat.identity n)) in
  let l = Rmat.cholesky spd in
  assert (Rmat.equal ~eps:1e-9 spd (Rmat.mul l (Rmat.transpose l)));
  let x_true = Array.init n float_of_int in
  let b = Rmat.apply spd x_true in
  (* the normal equations of a square SPD system go through its Cholesky
     factor *)
  let x = Rmat.lstsq ~ridge:0. spd b in
  Array.iteri (fun i xi -> check_float "spd solve" x_true.(i) xi ~eps:1e-8) x

let test_rmat_lstsq () =
  (* overdetermined consistent system recovers exact solution *)
  let a = Rmat.of_lists [ [ 1.; 0. ]; [ 0.; 1. ]; [ 1.; 1. ] ] in
  let x = Rmat.lstsq a [| 1.; 2.; 3. |] in
  check_float "x0" 1. x.(0) ~eps:1e-4;
  check_float "x1" 2. x.(1) ~eps:1e-4

(* ---------------- Hsvec ---------------- *)

let test_hsvec_roundtrip () =
  let a = random_hermitian 5 in
  let v = Hsvec.encode a in
  assert (Array.length v = Hsvec.dim 5);
  check_cmat "roundtrip" a (Hsvec.decode 5 v) ~eps:1e-12

let test_hsvec_isometry () =
  let a = random_hermitian 4 and b = random_hermitian 4 in
  let va = Hsvec.encode a and vb = Hsvec.encode b in
  let dot = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) va vb) in
  check_float "isometry" (Cx.re (Cmat.hs_inner a b)) dot ~eps:1e-9

(* ---------------- qcheck properties ---------------- *)

let small_dim = QCheck.Gen.int_range 1 6

let gen_hermitian =
  QCheck.Gen.(
    small_dim >>= fun n ->
    let entry = map2 (fun a b -> Cx.make a b) (float_range (-1.) 1.) (float_range (-1.) 1.) in
    array_size (return (n * n)) entry >|= fun entries ->
    Cmat.hermitize (Cmat.init n n (fun i j -> entries.((i * n) + j))))

let arb_hermitian =
  QCheck.make gen_hermitian ~print:(Format.asprintf "%a" Cmat.pp)

let prop_eig_trace =
  QCheck.Test.make ~name:"eig preserves trace" ~count:50 arb_hermitian (fun a ->
      let w, _ = Eig.hermitian a in
      let s = Array.fold_left ( +. ) 0. w in
      Float.abs (s -. Cx.re (Cmat.trace a)) < 1e-7)

let prop_eig_frobenius =
  QCheck.Test.make ~name:"eig preserves Frobenius norm" ~count:50 arb_hermitian
    (fun a ->
      let w, _ = Eig.hermitian a in
      let s = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. w) in
      Float.abs (s -. Cmat.frob_norm a) < 1e-7)

let prop_hsvec_norm =
  QCheck.Test.make ~name:"hsvec preserves norm" ~count:50 arb_hermitian (fun a ->
      let v = Hsvec.encode a in
      let n = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
      Float.abs (n -. Cmat.frob_norm a) < 1e-9)

(* the in-place eigensolve, PSD projection and HS encoding against a
   frozen copy of the allocating arithmetic they replaced, bit for bit *)
let prop_eig_exact =
  QCheck.Test.make ~name:"eig and hsvec bit-identical to the reference"
    ~count:(Testkit.Config.count ())
    QCheck.(int_range 0 1_000_000)
    Testkit.Oracle.eig_exact

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_eig_trace; prop_eig_frobenius; prop_hsvec_norm ]
  @ [ QCheck_alcotest.to_alcotest ~rand:(Testkit.Config.rand ()) prop_eig_exact ]

let () =
  Alcotest.run "linalg"
    [
      ( "cx",
        [
          Alcotest.test_case "basic" `Quick test_cx_basic;
          Alcotest.test_case "arith" `Quick test_cx_arith;
        ] );
      ( "cvec",
        [
          Alcotest.test_case "basic" `Quick test_cvec_basic;
          Alcotest.test_case "kron" `Quick test_cvec_kron;
        ] );
      ( "cmat",
        [
          Alcotest.test_case "mul identity" `Quick test_cmat_mul_identity;
          Alcotest.test_case "adjoint" `Quick test_cmat_adjoint;
          Alcotest.test_case "trace cyclic" `Quick test_cmat_trace_cyclic;
          Alcotest.test_case "kron mixed product" `Quick test_cmat_kron_mixed_product;
          Alcotest.test_case "hs inner" `Quick test_cmat_hs_inner;
          Alcotest.test_case "outer/apply" `Quick test_cmat_outer_apply;
        ] );
      ( "eig",
        [
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruction;
          Alcotest.test_case "known spectrum" `Quick test_eig_known;
          Alcotest.test_case "sqrtm" `Quick test_eig_sqrtm;
          Alcotest.test_case "project psd" `Quick test_project_psd;
        ] );
      ( "rmat",
        [
          Alcotest.test_case "solve 2x2" `Quick test_rmat_solve;
          Alcotest.test_case "solve random" `Quick test_rmat_solve_random;
          Alcotest.test_case "cholesky" `Quick test_rmat_cholesky;
          Alcotest.test_case "lstsq" `Quick test_rmat_lstsq;
        ] );
      ( "hsvec",
        [
          Alcotest.test_case "roundtrip" `Quick test_hsvec_roundtrip;
          Alcotest.test_case "isometry" `Quick test_hsvec_isometry;
        ] );
      ("properties", qcheck_tests);
    ]
