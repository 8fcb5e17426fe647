module Gate = Gate
module Instr = Instr

type error = Cerror.info = {
  code : string;
  message : string;
  loc : (int * int) option;
}

exception Error = Cerror.Circuit_error

type t = { num_qubits : int; num_clbits : int; rev_instrs : Instr.t list }

let empty ?(clbits = 0) n =
  if n <= 0 then
    Cerror.error "MQ016" "Circuit.empty: need at least one qubit (got %d)" n;
  if clbits < 0 then
    Cerror.error "MQ016" "Circuit.empty: negative clbit count %d" clbits;
  { num_qubits = n; num_clbits = clbits; rev_instrs = [] }

let num_qubits c = c.num_qubits
let num_clbits c = c.num_clbits
let instrs c = List.rev c.rev_instrs

let check_qubit c q =
  if q < 0 || q >= c.num_qubits then
    Cerror.error "MQ001" "Circuit: qubit %d out of range (register has %d)" q
      c.num_qubits

let check_clbit c b =
  if b < 0 || b >= c.num_clbits then
    Cerror.error "MQ002" "Circuit: clbit %d out of range (register has %d)" b
      c.num_clbits

let add i c =
  List.iter (check_qubit c) (Instr.qubits i);
  (match i with
  | Instr.Measure { clbit; _ } -> check_clbit c clbit
  | Instr.If_gate { clbits; _ } -> List.iter (check_clbit c) clbits
  | Instr.Tracepoint { id; qubits } ->
      (* a repeated qubit would make the recorded state a matrix that is
         not the density of any register *)
      if List.length (List.sort_uniq compare qubits) <> List.length qubits then
        Cerror.error "MQ003" "Circuit: duplicate qubit in tracepoint %d" id
  | _ -> ());
  { c with rev_instrs = i :: c.rev_instrs }

let append a b =
  if a.num_qubits <> b.num_qubits || a.num_clbits <> b.num_clbits then
    Cerror.error "MQ013"
      "Circuit.append: register mismatch (%dq+%dc vs %dq+%dc)" a.num_qubits
      a.num_clbits b.num_qubits b.num_clbits;
  { a with rev_instrs = b.rev_instrs @ a.rev_instrs }

let gate ?params ?controls name targets c =
  add (Instr.Gate (Gate.make ?params ?controls name targets)) c

let g1 name q c = gate name [ q ] c
let h = g1 "h"
let x = g1 "x"
let y = g1 "y"
let z = g1 "z"
let s = g1 "s"
let sdg = g1 "sdg"
let t_gate = g1 "t"
let tdg = g1 "tdg"
let sx = g1 "sx"
let rx th q c = gate ~params:[ th ] "rx" [ q ] c
let ry th q c = gate ~params:[ th ] "ry" [ q ] c
let rz th q c = gate ~params:[ th ] "rz" [ q ] c
let p l q c = gate ~params:[ l ] "p" [ q ] c
let u3 th ph l q c = gate ~params:[ th; ph; l ] "u3" [ q ] c
let cx ctl tgt c = gate ~controls:[ ctl ] "x" [ tgt ] c
let cy ctl tgt c = gate ~controls:[ ctl ] "y" [ tgt ] c
let cz ctl tgt c = gate ~controls:[ ctl ] "z" [ tgt ] c
let cp l ctl tgt c = gate ~params:[ l ] ~controls:[ ctl ] "p" [ tgt ] c
let crx th ctl tgt c = gate ~params:[ th ] ~controls:[ ctl ] "rx" [ tgt ] c
let cry th ctl tgt c = gate ~params:[ th ] ~controls:[ ctl ] "ry" [ tgt ] c
let crz th ctl tgt c = gate ~params:[ th ] ~controls:[ ctl ] "rz" [ tgt ] c
let swap a b c = gate "swap" [ a; b ] c
let ccx c1 c2 tgt c = gate ~controls:[ c1; c2 ] "x" [ tgt ] c
let mcx controls tgt c = gate ~controls "x" [ tgt ] c

let mcz qubits c =
  match List.rev qubits with
  | [] -> Cerror.error "MQ015" "Circuit.mcz: empty qubit list"
  | tgt :: rev_controls -> gate ~controls:(List.rev rev_controls) "z" [ tgt ] c

let mcry th controls tgt c = gate ~params:[ th ] ~controls "ry" [ tgt ] c
let tracepoint id qubits c = add (Instr.Tracepoint { id; qubits }) c
let measure qubit clbit c = add (Instr.Measure { qubit; clbit }) c
let reset q c = add (Instr.Reset q) c
let if_gate clbits value g c = add (Instr.If_gate { clbits; value; gate = g }) c
let barrier qs c = add (Instr.Barrier qs) c

let gate_count c =
  List.fold_left
    (fun acc i ->
      match i with Instr.Gate _ | Instr.If_gate _ -> acc + 1 | _ -> acc)
    0 (instrs c)

let two_qubit_count c =
  List.fold_left
    (fun acc i ->
      match i with
      | Instr.Gate g when Gate.is_two_qubit_or_more g -> acc + 1
      | Instr.If_gate { gate; _ } when Gate.is_two_qubit_or_more gate -> acc + 1
      | _ -> acc)
    0 (instrs c)

let depth c =
  let levels = Array.make c.num_qubits 0 in
  List.iter
    (fun i ->
      match i with
      | Instr.Gate _ | Instr.If_gate _ | Instr.Measure _ | Instr.Reset _ ->
          let qs = Instr.qubits i in
          let level = 1 + List.fold_left (fun m q -> max m levels.(q)) 0 qs in
          List.iter (fun q -> levels.(q) <- level) qs
      | Instr.Tracepoint _ | Instr.Barrier _ -> ())
    (instrs c);
  Array.fold_left max 0 levels

let tracepoints c =
  List.filter_map
    (function Instr.Tracepoint { id; qubits } -> Some (id, qubits) | _ -> None)
    (instrs c)

let has_measurement_before c ~tracepoint_id =
  let rec go seen_measure = function
    | [] -> false
    | Instr.Tracepoint { id; _ } :: _ when id = tracepoint_id -> seen_measure
    | Instr.Measure _ :: rest -> go true rest
    | _ :: rest -> go seen_measure rest
  in
  go false (instrs c)

let adjoint c =
  let rev_gates =
    List.map
      (function
        | Instr.Gate g -> Instr.Gate (Gate.inverse g)
        | Instr.Barrier qs -> Instr.Barrier qs
        | Instr.Tracepoint _ as tp -> tp
        | (Instr.Measure _ | Instr.Reset _ | Instr.If_gate _) as i ->
            Cerror.error "MQ014"
              "Circuit.adjoint: non-unitary instruction (%s)"
              (Format.asprintf "%a" Instr.pp i))
      c.rev_instrs
  in
  { c with rev_instrs = List.rev rev_gates }

let map_gates f c =
  let mapped =
    List.filter_map
      (function
        | Instr.Gate g -> Option.map (fun g' -> Instr.Gate g') (f g)
        | i -> Some i)
      (instrs c)
  in
  { c with rev_instrs = List.rev mapped }

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %d qubits, %d clbits@," c.num_qubits
    c.num_clbits;
  List.iter (fun i -> Format.fprintf ppf "%a@," Instr.pp i) (instrs c);
  Format.fprintf ppf "@]"
