type t = {
  mutable executions : int;
  mutable shots : int;
  mutable gate_ops : int;
  mutable one_qubit_gates : int;
  mutable two_qubit_gates : int;
  mutable measurements : int;
}

let create () =
  {
    executions = 0;
    shots = 0;
    gate_ops = 0;
    one_qubit_gates = 0;
    two_qubit_gates = 0;
    measurements = 0;
  }

let reset t =
  t.executions <- 0;
  t.shots <- 0;
  t.gate_ops <- 0;
  t.one_qubit_gates <- 0;
  t.two_qubit_gates <- 0;
  t.measurements <- 0

type shape = { gates : int; two_qubit : int; measures : int }

(* the one place the meter counts a circuit's instructions: callers take
   the shape once and record it per execution *)
let shape circuit =
  {
    gates = Circuit.gate_count circuit;
    two_qubit = Circuit.two_qubit_count circuit;
    measures =
      List.fold_left
        (fun acc i ->
          match i with Circuit.Instr.Measure _ -> acc + 1 | _ -> acc)
        0 (Circuit.instrs circuit);
  }

let record_circuit t shape ~shots =
  t.executions <- t.executions + 1;
  t.shots <- t.shots + shots;
  t.gate_ops <- t.gate_ops + (shots * shape.gates);
  t.one_qubit_gates <-
    t.one_qubit_gates + (shots * (shape.gates - shape.two_qubit));
  t.two_qubit_gates <- t.two_qubit_gates + (shots * shape.two_qubit);
  t.measurements <- t.measurements + (shots * max 1 shape.measures)

(* an exact shot total rather than a per-execution count — sequential
   shot budgets spend unequal shots per execution *)
let record_total t shape ~executions ~total_shots =
  t.executions <- t.executions + executions;
  t.shots <- t.shots + total_shots;
  t.gate_ops <- t.gate_ops + (total_shots * shape.gates);
  t.one_qubit_gates <-
    t.one_qubit_gates + (total_shots * (shape.gates - shape.two_qubit));
  t.two_qubit_gates <- t.two_qubit_gates + (total_shots * shape.two_qubit);
  t.measurements <- t.measurements + total_shots

let add t other =
  t.executions <- t.executions + other.executions;
  t.shots <- t.shots + other.shots;
  t.gate_ops <- t.gate_ops + other.gate_ops;
  t.one_qubit_gates <- t.one_qubit_gates + other.one_qubit_gates;
  t.two_qubit_gates <- t.two_qubit_gates + other.two_qubit_gates;
  t.measurements <- t.measurements + other.measurements

(* Static estimate of what characterizing [c] would cost on a device: one
   full tomography pass per tracepoint, 3^k measurement settings for a
   k-qubit tracepoint, [shots] shots per setting. The 3^k is saturated so
   wide tracepoints can never wrap the meter's int fields — the estimate
   only ever feeds a threshold comparison, where "absurdly large" is as
   actionable as the exact value. *)
let estimate_characterization ?(shots = 256) c =
  let t = create () in
  let shape = shape c in
  let gates = max 1 shape.gates in
  (* keep total_shots * gates comfortably inside int range *)
  let cap = max 1 (max_int / (max 1 shots * gates * 4)) in
  let pow3_sat k =
    let rec go acc k =
      if k <= 0 then acc else if acc >= cap / 3 then cap else go (acc * 3) (k - 1)
    in
    go 1 k
  in
  List.iter
    (function
      | Circuit.Instr.Tracepoint { qubits; _ } ->
          let settings = pow3_sat (List.length qubits) in
          record_total t shape ~executions:settings ~total_shots:(settings * shots)
      | _ -> ())
    (Circuit.instrs c);
  t

(* --- static simulation-cost estimators (floats: immune to overflow) --- *)

(* amplitude-updates of one dense statevector pass: 2^n per gate, plus
   one 2^n allocation/initialization *)
let dense_sim_ops c =
  let n = Circuit.num_qubits c in
  float_of_int (Circuit.gate_count c + 1) *. Float.ldexp 1. n

(* per-tracepoint cone runs on the sparse engine: the static support
   bound times the cone's gate count (the engine touches only occupied
   pairs, so the bound is also a per-gate work bound) *)
let sparse_sim_ops c =
  List.fold_left
    (fun acc cone ->
      let sub, _ = Analysis.Lightcone.restrict c cone in
      let bound = Analysis.Classify.support_bound ~cap:(1 lsl 30) sub in
      acc
      +. (float_of_int bound *. float_of_int (Circuit.gate_count sub + 1)))
    0. (Analysis.Lightcone.cones c)

(* per-tracepoint cone runs on the stabilizer-rank engine: 2^k Pauli
   frames, each Clifford gate costs an O(n^2)-ish tableau update plus a
   per-frame conjugation *)
let rank_sim_ops c =
  List.fold_left
    (fun acc cone ->
      let sub, _ = Analysis.Lightcone.restrict c cone in
      let n = Circuit.num_qubits sub in
      let k = min 30 (Analysis.Classify.non_clifford_count sub) in
      acc
      +. Float.ldexp 1. k
         *. float_of_int (Circuit.gate_count sub + 1)
         *. float_of_int (n * n))
    0. (Analysis.Lightcone.cones c)

let hardware_seconds t =
  (60e-9 *. float_of_int t.one_qubit_gates)
  +. (340e-9 *. float_of_int t.two_qubit_gates)
  +. (732e-9 *. float_of_int t.measurements)

let pp ppf t =
  Format.fprintf ppf
    "executions=%d shots=%d ops=%d (1q=%d 2q=%d meas=%d) est-hw=%.3gs"
    t.executions t.shots t.gate_ops t.one_qubit_gates t.two_qubit_gates
    t.measurements (hardware_seconds t)
