open Qstate

type t = { circuit : Circuit.t; input_qubits : int list }

let make ?input_qubits circuit =
  let n = Circuit.num_qubits circuit in
  let input_qubits =
    match input_qubits with
    | Some qs ->
        List.iter
          (fun q ->
            if q < 0 || q >= n then
              invalid_arg "Program.make: input qubit out of range")
          qs;
        qs
    | None -> List.init n (fun q -> q)
  in
  { circuit; input_qubits }

let num_input_qubits p = List.length p.input_qubits

let embed p input =
  let n = Circuit.num_qubits p.circuit in
  let k = num_input_qubits p in
  if Statevec.num_qubits input <> k then
    invalid_arg "Program.embed: input size mismatch";
  if k = n && p.input_qubits = List.init n (fun q -> q) then Statevec.copy input
  else Statevec.embed n (Array.of_list p.input_qubits) input

let run_traces ?pool ?rng ?noise ?trajectories p ~input =
  let initial = embed p input in
  let traces =
    Sim.Engine.tracepoint_states ?pool ?rng ?noise ?trajectories ~initial
      p.circuit
  in
  let v = Statevec.to_cvec input in
  (0, Linalg.Cmat.outer v v) :: traces

let tracepoint_ids p = List.map fst (Circuit.tracepoints p.circuit)
