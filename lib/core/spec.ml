(* Textual predicate and shot-budget specs, shared by the CLI and the
   server through [Pipeline], so both front ends parse one grammar.

   Predicate specs (tracepoint 0 = the program input):
     pure:T                 the state at tracepoint T is pure
     equals:A,B             states at tracepoints A and B are equal
     equals-basis:T,K       state at T equals |K><K|
     diag:T,K,LO,HI         diagonal entry K of T's state lies in [LO, HI]
     expect-ge:T,PAULI,V    Pauli expectation at T is >= V  (e.g. ZII)
     expect-le:T,PAULI,V    Pauli expectation at T is <= V
     purity-ge:T,V          purity at T is >= V

   Budget specs: fixed:N | seq:ALPHA,BETA,MAX *)

let qubits_of_tracepoint circuit tp =
  if tp = 0 then None
  else
    match List.assoc_opt tp (Circuit.tracepoints circuit) with
    | Some qs -> Some (List.length qs)
    | None -> None

let parse_predicate circuit n_in spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  (* range checks against the program, so a spec it cannot evaluate is
     rejected here rather than failing inside the solver *)
  let width tp =
    match qubits_of_tracepoint circuit tp with
    | Some k -> Ok k
    | None when tp = 0 -> Ok n_in
    | None -> fail "unknown tracepoint %d" tp
  in
  let basis_index tp k =
    let* w = width tp in
    if k >= 0 && k < 1 lsl w then Ok w
    else
      fail "predicate spec %S: basis index %d out of range for tracepoint %d \
            (%d qubits)"
        spec k tp w
  in
  (* [float_of_string] also reads nan, inf and 1e999; a NaN bound makes
     every comparison false, so the objective could never exceed the
     tolerance *)
  let finite v =
    let x = float_of_string v in
    if Float.is_finite x then Ok x
    else fail "predicate spec %S: %s is not a finite number" spec v
  in
  let pauli tp p =
    let* w = width tp in
    let p = Qstate.Pauli.of_string p in
    if Array.length p = w then Ok p
    else
      fail "predicate spec %S: Pauli string has %d qubits, tracepoint %d has %d"
        spec (Array.length p) tp w
  in
  try
    match String.split_on_char ':' spec with
    | [ "pure"; t ] ->
        let t = int_of_string t in
        let* _ = width t in
        Ok (Predicate.Is_pure t)
    | [ "equals"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ a; b ] ->
            let a = int_of_string a and b = int_of_string b in
            let* wa = width a in
            let* wb = width b in
            if wa = wb then Ok (Predicate.Equals (a, b))
            else
              fail
                "predicate spec %S: tracepoints %d and %d differ in width (%d \
                 vs %d qubits)"
                spec a b wa wb
        | _ -> fail "equals expects A,B")
    | [ "equals-basis"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ t; k ] ->
            let tp = int_of_string t and k = int_of_string k in
            let* nq = basis_index tp k in
            let v = Qstate.Statevec.to_cvec (Qstate.Statevec.basis nq k) in
            Ok (Predicate.Equals_const (tp, Linalg.Cmat.outer v v))
        | _ -> fail "equals-basis expects T,K")
    | [ "diag"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ t; k; lo; hi ] ->
            let t = int_of_string t and k = int_of_string k in
            let* lo = finite lo in
            let* hi = finite hi in
            let* _ = basis_index t k in
            Ok (Predicate.Diag_in_range (t, k, lo, hi))
        | _ -> fail "diag expects T,K,LO,HI")
    | [ (("expect-ge" | "expect-le") as form); rest ] -> (
        match String.split_on_char ',' rest with
        | [ t; p; v ] ->
            let t = int_of_string t in
            let* v = finite v in
            let* p = pauli t p in
            Ok
              (if form = "expect-ge" then Predicate.Expect_ge (t, p, v)
               else Predicate.Expect_le (t, p, v))
        | _ -> fail "%s expects T,PAULI,V" form)
    | [ "purity-ge"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ t; v ] ->
            let t = int_of_string t in
            let* v = finite v in
            let* _ = width t in
            Ok (Predicate.Purity_ge (t, v))
        | _ -> fail "purity-ge expects T,V")
    | _ -> fail "unknown predicate spec %S" spec
  with Failure _ | Invalid_argument _ ->
    fail "malformed predicate spec %S" spec

let parse_budget s =
  let fail () =
    Error
      (Printf.sprintf
         "bad budget %S (expected fixed:N or seq:ALPHA,BETA,MAX)" s)
  in
  match String.split_on_char ':' (String.trim s) with
  | [ "fixed"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (`Fixed n)
      | _ -> fail ())
  | [ "seq"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ a; b; m ] -> (
          match
            (float_of_string_opt a, float_of_string_opt b, int_of_string_opt m)
          with
          | Some alpha, Some beta, Some max_shots
            when alpha > 0. && alpha < 1. && beta > 0. && beta < 1.
                 && max_shots > 0 ->
              Ok (`Sequential { Stats.Tests.alpha; beta; max_shots })
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()

(* characterization-mode spec: exact | tomo:SHOTS | probs:SHOTS *)
let parse_mode s =
  match String.split_on_char ':' (String.trim s) with
  | [ "exact" ] | [ "" ] -> Ok Characterize.Exact
  | [ "tomo"; n ] -> (
      match int_of_string_opt n with
      | Some shots when shots > 0 ->
          Ok (Characterize.Tomography { shots; project = true })
      | _ -> Error (Printf.sprintf "bad mode %S (tomo:SHOTS)" s))
  | [ "probs"; n ] -> (
      match int_of_string_opt n with
      | Some shots when shots > 0 -> Ok (Characterize.Probs_only { shots })
      | _ -> Error (Printf.sprintf "bad mode %S (probs:SHOTS)" s))
  | _ -> Error (Printf.sprintf "bad mode %S (exact | tomo:SHOTS | probs:SHOTS)" s)

let parse_solver s =
  match String.trim s with
  | "qp" -> Ok `Qp
  | "sgd" -> Ok `Adam
  | "anneal" -> Ok `Anneal
  | "genetic" -> Ok `Genetic
  | _ -> Error (Printf.sprintf "bad solver %S (qp | sgd | anneal | genetic)" s)
