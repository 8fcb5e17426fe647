open Morphcore
open Linalg

type state_kind = Classical | General

let discrimination_gates ~kind ~n_t =
  match kind with
  | Classical -> 2
  | General ->
      let rec pow acc k = if k = 0 then acc else pow (acc * 4) (k - 1) in
      18 * pow 1 n_t

let tracepoint_state ?rng program ~tracepoint st =
  List.assoc tracepoint (Program.run_traces ?rng program ~input:st)

(* detection metric: Frobenius distance. Equivalent to a fidelity test for
   bug detection but avoids two eigendecompositions per comparison, which
   matters for full-register tracepoints. *)
let distance_dm a b = Cmat.frob_norm (Cmat.sub a b)

let check ?rng ?(shots = 1000) ?(tol = 0.05) ?inputs ~tests ~kind ~tracepoint
    ~reference ~candidate () =
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 37 in
  let k = Program.num_input_qubits candidate in
  let meter = Sim.Cost.create () in
  let inputs =
    match inputs with
    | Some states -> states
    | None ->
        List.map (Qstate.Statevec.basis k)
          (Verifier.basis_inputs rng ~k ~count:tests)
  in
  let shape = Sim.Cost.shape candidate.Program.circuit in
  let (bug_found, tests_used), seconds =
    Verifier.timed (fun () ->
        let rec go used = function
          | [] -> (false, used)
          | input :: rest ->
              let s_ref = tracepoint_state ~rng reference ~tracepoint input in
              let s_cand = tracepoint_state ~rng candidate ~tracepoint input in
              (* account program execution + discrimination overhead *)
              let n_t = Cmat.num_qubits s_cand in
              Sim.Cost.record_circuit meter shape ~shots;
              meter.Sim.Cost.gate_ops <-
                meter.Sim.Cost.gate_ops
                + (shots * discrimination_gates ~kind ~n_t);
              if distance_dm s_ref s_cand > tol then (true, used + 1)
              else go (used + 1) rest
        in
        go 0 inputs)
  in
  { Verifier.bug_found; tests_used; cost = meter; seconds }

let executions_to_find ?rng ?(limit = max_int) ~tracepoint ~reference
    ~candidate () =
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 37 in
  let k = Program.num_input_qubits candidate in
  let d = 1 lsl k in
  let inputs = Verifier.basis_inputs rng ~k ~count:(min limit d) in
  let rec go used = function
    | [] -> None
    | i :: rest ->
        let input = Qstate.Statevec.basis k i in
        let s_ref = tracepoint_state ~rng reference ~tracepoint input in
        let s_cand = tracepoint_state ~rng candidate ~tracepoint input in
        if distance_dm s_ref s_cand > 0.1 then Some (used + 1)
        else go (used + 1) rest
  in
  go 0 inputs
