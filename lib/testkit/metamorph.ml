(* Keep only unitary gate instructions ([Circuit.adjoint] rejects
   measurement/reset/feedback, and duplicate tracepoint ids after an append
   would be ambiguous). *)
let gates_only c =
  List.fold_left
    (fun acc i ->
      match i with Circuit.Instr.Gate _ -> Circuit.add i acc | _ -> acc)
    (Circuit.empty (Circuit.num_qubits c))
    (Circuit.instrs c)

let adjoint_cancels circ =
  let c = gates_only (Gen.build circ) in
  let round_trip = Circuit.append c (Circuit.adjoint c) in
  let final = (Sim.Engine.run round_trip).Sim.Engine.state in
  let zero = Qstate.Statevec.zero (Circuit.num_qubits c) in
  Qstate.Statevec.fidelity_pure final zero >= 1.0 -. Oracle.eps

let global_phase_invariant circ =
  let c = Gen.build circ in
  let gadget =
    Circuit.(empty (num_qubits c) |> z 0 |> x 0 |> z 0 |> x 0)
  in
  let phased = Circuit.append gadget c in
  let a = Sim.Engine.run c and b = Sim.Engine.run phased in
  Float.abs
    (Qstate.Statevec.fidelity_pure a.Sim.Engine.state b.Sim.Engine.state
    -. 1.0)
  <= Oracle.eps
  && Oracle.traces_match a.Sim.Engine.traces b.Sim.Engine.traces

let confidence_monotone ~n_in ~samples =
  let samples =
    List.sort_uniq compare (List.map (fun s -> max 1 (abs s)) samples)
  in
  let confidences =
    List.map
      (fun n_sample ->
        (Morphcore.Confidence.estimate ~n_in ~n_sample [||]).confidence)
      samples
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
        b -. a >= -.1e-12 && nondecreasing rest
    | _ -> true
  in
  nondecreasing confidences

let with_pool domains f =
  let pool = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

let traces_domain_invariant ?noise ~trajectories ~domains circ =
  let c = Gen.build circ in
  let run d =
    with_pool d (fun pool ->
        let rng = Stats.Rng.make (Config.seed ()) in
        Sim.Engine.tracepoint_states ~pool ~rng ?noise ~trajectories c)
  in
  match List.map run domains with
  | [] -> true
  | reference :: rest ->
      List.for_all (Oracle.traces_match ~eps:0.0 reference) rest
