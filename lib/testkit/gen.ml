type spec =
  | One of string * float list * int
  | Ctl of string * float list * int * int
  | Swap of int * int
  | Toffoli of int * int * int
  | Trace of int list
  | Meas of int * int
  | Reset of int
  | Feedback of int * int * string * float list * int
  | Barrier of int list

type circ = { qubits : int; specs : spec list }

(* ------------------------------------------------------------------ *)
(* Realization: any sketch denotes a valid circuit.                    *)
(* ------------------------------------------------------------------ *)

let wire n q = abs q mod n

(* Pick a wire distinct from those in [avoid], starting the scan at the
   sketch's own index so shrinking an index actually moves the wire. *)
let distinct n avoid q =
  let q = wire n q in
  let rec scan k = if List.mem k avoid then scan ((k + 1) mod n) else k in
  if List.mem q avoid then scan q else q

let dedup_wires n qs =
  let qs = List.map (wire n) qs in
  let qs = List.sort_uniq compare qs in
  if qs = [] then [ 0 ] else qs

let has_classical specs =
  List.exists (function Meas _ | Feedback _ -> true | _ -> false) specs

let build { qubits; specs } =
  let n = max 1 qubits in
  let clbits = if has_classical specs then 2 else 0 in
  let trace_id = ref 0 in
  let add_spec c spec =
    match spec with
    | One (name, params, q) -> Circuit.gate ~params name [ wire n q ] c
    | Ctl (name, params, ctl, tgt) ->
        let tgt = wire n tgt in
        if n = 1 then Circuit.gate ~params name [ tgt ] c
        else
          let ctl = distinct n [ tgt ] ctl in
          Circuit.gate ~params ~controls:[ ctl ] name [ tgt ] c
    | Swap (a, b) ->
        if n = 1 then c
        else
          let a = wire n a in
          let b = distinct n [ a ] b in
          Circuit.swap a b c
    | Toffoli (c1, c2, t) ->
        let t = wire n t in
        if n = 1 then Circuit.x t c
        else
          let c1 = distinct n [ t ] c1 in
          if n = 2 then Circuit.cx c1 t c
          else
            let c2 = distinct n [ t; c1 ] c2 in
            Circuit.ccx c1 c2 t c
    | Trace qs ->
        incr trace_id;
        Circuit.tracepoint !trace_id (dedup_wires n qs) c
    | Meas (q, cb) -> Circuit.measure (wire n q) (abs cb mod 2) c
    | Reset q -> Circuit.reset (wire n q) c
    | Feedback (cb, v, name, params, tgt) ->
        let g = Circuit.Gate.make ~params name [ wire n tgt ] in
        Circuit.if_gate [ abs cb mod 2 ] (abs v mod 2) g c
    | Barrier qs -> Circuit.barrier (dedup_wires n qs) c
  in
  List.fold_left add_spec (Circuit.empty ~clbits n) specs

let print_circ c =
  Printf.sprintf "qubits=%d specs=%d\n%s-- replay: %s <test name>\n" c.qubits
    (List.length c.specs)
    (Qasm.to_string (build c))
    (Config.repro ~exe:(Config.exe () ^ " --"))

(* ------------------------------------------------------------------ *)
(* Gate pools.                                                         *)
(* ------------------------------------------------------------------ *)

(* "sw" has no inverse and "u2x2" is fuser-internal: both excluded. *)
let fixed_1q = [ "h"; "x"; "y"; "z"; "s"; "sdg"; "t"; "tdg"; "sx"; "id" ]
let rot_1q = [ "rx"; "ry"; "rz"; "p" ]
let clifford_1q = [ "h"; "x"; "y"; "z"; "s"; "sdg" ]

open QCheck.Gen

let angle = float_range (-4.0) 4.0

let gen_gate_1q =
  frequency
    [
      (3, oneofl fixed_1q >|= fun name -> (name, []));
      ( 2,
        oneofl rot_1q >>= fun name ->
        angle >|= fun a -> (name, [ a ]) );
      ( 1,
        map3 (fun a b c -> ("u3", [ a; b; c ])) angle angle angle );
    ]

let gen_clifford_1q = oneofl clifford_1q >|= fun name -> (name, [])
let gen_qubit = int_bound 7

let gen_spec_pure =
  frequency
    [
      ( 6,
        gen_gate_1q >>= fun (name, ps) ->
        gen_qubit >|= fun q -> One (name, ps, q) );
      ( 3,
        gen_gate_1q >>= fun (name, ps) ->
        map2 (fun c t -> Ctl (name, ps, c, t)) gen_qubit gen_qubit );
      (1, map2 (fun a b -> Swap (a, b)) gen_qubit gen_qubit);
      (1, map3 (fun a b c -> Toffoli (a, b, c)) gen_qubit gen_qubit gen_qubit);
      (1, list_size (int_range 1 3) gen_qubit >|= fun qs -> Trace qs);
      (1, list_size (int_range 1 3) gen_qubit >|= fun qs -> Barrier qs);
    ]

let gen_spec_clifford =
  frequency
    [
      ( 6,
        gen_clifford_1q >>= fun (name, ps) ->
        gen_qubit >|= fun q -> One (name, ps, q) );
      ( 3,
        oneofl [ "x"; "z" ] >>= fun name ->
        map2 (fun c t -> Ctl (name, [], c, t)) gen_qubit gen_qubit );
      (1, map2 (fun a b -> Swap (a, b)) gen_qubit gen_qubit);
      (1, list_size (int_range 1 3) gen_qubit >|= fun qs -> Trace qs);
    ]

(* near-Clifford: the Clifford pool plus occasional uncontrolled
   non-Clifford 1q gates — exactly the shape the sum-over-stabilizers
   engine decomposes (each non-Clifford gate splits into two weighted
   Pauli branches) *)
let gen_spec_near_clifford =
  frequency
    [
      (8, gen_spec_clifford);
      ( 2,
        frequency
          [
            (2, oneofl [ "t"; "tdg"; "sx" ] >|= fun name -> (name, []));
            ( 2,
              oneofl [ "rx"; "ry"; "rz"; "p" ] >>= fun name ->
              angle >|= fun a -> (name, [ a ]) );
          ]
        >>= fun (name, ps) ->
        gen_qubit >|= fun q -> One (name, ps, q) );
    ]

let gen_spec_program =
  frequency
    [
      (8, gen_spec_pure);
      (2, map2 (fun q cb -> Meas (q, cb)) gen_qubit (int_bound 1));
      (1, gen_qubit >|= fun q -> Reset q);
      ( 2,
        gen_gate_1q >>= fun (name, ps) ->
        map3
          (fun cb v t -> Feedback (cb, v, name, ps, t))
          (int_bound 1) (int_bound 1) gen_qubit );
    ]

let gen_circ ?(min_qubits = 1) ?(max_qubits = 4) gen_spec =
  int_range min_qubits max_qubits >>= fun qubits ->
  list_size (int_range 1 18) gen_spec >|= fun specs -> { qubits; specs }

let gen_pure ?min_qubits ?max_qubits () =
  gen_circ ?min_qubits ?max_qubits gen_spec_pure

let gen_clifford ?min_qubits ?max_qubits () =
  gen_circ ?min_qubits ?max_qubits gen_spec_clifford

let gen_near_clifford ?min_qubits ?max_qubits () =
  gen_circ ?min_qubits ?max_qubits gen_spec_near_clifford

let gen_program ?min_qubits ?max_qubits () =
  gen_circ ?min_qubits ?max_qubits gen_spec_program

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck

(* Zero one parameter at a time (keeps the list length, which the gate
   constructor validates). *)
let shrink_params ps yield =
  List.iteri
    (fun i x ->
      if x <> 0.0 then
        yield (List.mapi (fun j y -> if i = j then 0.0 else y) ps))
    ps

let shrink_spec spec yield =
  match spec with
  | One (name, ps, q) ->
      Shrink.int q (fun q -> yield (One (name, ps, q)));
      shrink_params ps (fun ps -> yield (One (name, ps, q)))
  | Ctl (name, ps, c, t) ->
      yield (One (name, ps, t));
      Shrink.int c (fun c -> yield (Ctl (name, ps, c, t)));
      Shrink.int t (fun t -> yield (Ctl (name, ps, c, t)));
      shrink_params ps (fun ps -> yield (Ctl (name, ps, c, t)))
  | Swap (a, b) ->
      Shrink.int a (fun a -> yield (Swap (a, b)));
      Shrink.int b (fun b -> yield (Swap (a, b)))
  | Toffoli (a, b, t) ->
      yield (Ctl ("x", [], a, t));
      Shrink.int a (fun a -> yield (Toffoli (a, b, t)));
      Shrink.int b (fun b -> yield (Toffoli (a, b, t)));
      Shrink.int t (fun t -> yield (Toffoli (a, b, t)))
  | Trace qs -> Shrink.list ~shrink:Shrink.int qs (fun qs -> yield (Trace qs))
  | Meas (q, cb) ->
      Shrink.int q (fun q -> yield (Meas (q, cb)));
      Shrink.int cb (fun cb -> yield (Meas (q, cb)))
  | Reset q -> Shrink.int q (fun q -> yield (Reset q))
  | Feedback (cb, v, name, ps, t) ->
      yield (One (name, ps, t));
      Shrink.int t (fun t -> yield (Feedback (cb, v, name, ps, t)));
      shrink_params ps (fun ps -> yield (Feedback (cb, v, name, ps, t)))
  | Barrier qs ->
      Shrink.list ~shrink:Shrink.int qs (fun qs -> yield (Barrier qs))

let shrink_circ c yield =
  if c.qubits > 1 then yield { c with qubits = c.qubits - 1 };
  Shrink.list ~shrink:shrink_spec c.specs (fun specs -> yield { c with specs })

let arbitrary gen =
  QCheck.make ~print:print_circ ~shrink:shrink_circ gen

let pure ?min_qubits ?max_qubits () =
  arbitrary (gen_pure ?min_qubits ?max_qubits ())

let clifford ?min_qubits ?max_qubits () =
  arbitrary (gen_clifford ?min_qubits ?max_qubits ())

let near_clifford ?min_qubits ?max_qubits () =
  arbitrary (gen_near_clifford ?min_qubits ?max_qubits ())

let program ?min_qubits ?max_qubits () =
  arbitrary (gen_program ?min_qubits ?max_qubits ())

let noise =
  let gen =
    let prob hi = Gen.float_range 0.0 hi in
    Gen.map3
      (fun p1 p2 readout -> Sim.Noise.make ~p1 ~p2 ~readout ())
      (prob 0.05) (prob 0.1) (prob 0.1)
  in
  let print (m : Sim.Noise.t) =
    Printf.sprintf "noise{p1=%g; p2=%g; readout=%g}" m.p1 m.p2 m.readout
  in
  let shrink (m : Sim.Noise.t) yield =
    if m.p1 <> 0.0 then yield { m with Sim.Noise.p1 = 0.0 };
    if m.p2 <> 0.0 then yield { m with Sim.Noise.p2 = 0.0 };
    if m.readout <> 0.0 then yield { m with Sim.Noise.readout = 0.0 }
  in
  QCheck.make ~print ~shrink gen
