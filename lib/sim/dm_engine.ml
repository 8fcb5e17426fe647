open Qstate

type branch = { weight : float; rho : Density.t; clbits : int array }

type outcome = {
  branches : branch list;
  traces : (int * Linalg.Cmat.t) list;
}

let apply_gate_dm noise (g : Circuit.Gate.t) rho =
  if Obs.enabled () then
    Obs.Metrics.counter_add
      ~labels:[ ("kind", g.Circuit.Gate.name) ]
      "dm_gate_applied_total" 1;
  let rho =
    match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
    | "swap", [ a; b ] ->
        if g.Circuit.Gate.controls <> [] then
          invalid_arg "Dm_engine: controlled swap unsupported";
        rho
        |> Density.apply_controlled ~controls:[ a ] Gates.x b
        |> Density.apply_controlled ~controls:[ b ] Gates.x a
        |> Density.apply_controlled ~controls:[ a ] Gates.x b
    | name, [ tgt ] ->
        let u = Gates.by_name name g.Circuit.Gate.params in
        Density.apply_controlled ~controls:g.Circuit.Gate.controls u tgt rho
    | _ -> invalid_arg "Dm_engine: malformed gate"
  in
  let qs = Circuit.Gate.qubits g in
  let p = if List.length qs >= 2 then noise.Noise.p2 else noise.Noise.p1 in
  if p > 0. then
    List.fold_left (fun r q -> Density.apply_kraus (Noise.kraus1 p) q r) rho qs
  else rho

let run ?(noise = Noise.ideal) ?initial c =
  Obs.Span.with_ ~name:"dm_engine.run" @@ fun () ->
  let n = Circuit.num_qubits c in
  let init =
    match initial with
    | Some rho ->
        if Density.num_qubits rho <> n then
          invalid_arg "Dm_engine.run: initial state qubit mismatch";
        rho
    | None -> Density.basis n 0
  in
  let branches =
    ref [ { weight = 1.; rho = init; clbits = Array.make (Circuit.num_clbits c) 0 } ]
  in
  let traces = ref [] in
  List.iter
    (fun instr ->
      match instr with
      | Circuit.Instr.Gate g ->
          branches :=
            List.map (fun b -> { b with rho = apply_gate_dm noise g b.rho }) !branches
      | Circuit.Instr.Tracepoint { id; qubits } ->
          let avg = ref None in
          List.iter
            (fun b ->
              let reduced =
                Density.mat (Density.partial_trace ~keep:qubits b.rho)
              in
              let weighted = Linalg.Cmat.rscale b.weight reduced in
              avg :=
                Some
                  (match !avg with
                  | None -> weighted
                  | Some acc -> Linalg.Cmat.add acc weighted))
            !branches;
          (match !avg with
          | Some m -> traces := (id, m) :: !traces
          | None -> ())
      | Circuit.Instr.Measure { qubit; clbit } ->
          let ro = noise.Noise.readout in
          branches :=
            List.concat_map
              (fun b ->
                let (p0, r0), (p1, r1) = Density.measure_qubit b.rho qubit in
                let mk outcome p rho =
                  if p <= 1e-12 then []
                  else
                    let flip_p = ro in
                    let record bit prob =
                      if prob <= 1e-12 then []
                      else begin
                        let clbits = Array.copy b.clbits in
                        clbits.(clbit) <- bit;
                        [ { weight = b.weight *. p *. prob; rho; clbits } ]
                      end
                    in
                    record outcome (1. -. flip_p) @ record (1 - outcome) flip_p
                in
                mk 0 p0 r0 @ mk 1 p1 r1)
              !branches
      | Circuit.Instr.Reset q ->
          branches :=
            List.map
              (fun b ->
                let (p0, r0), (p1, r1) = Density.measure_qubit b.rho q in
                let fixed1 = Density.apply1 Gates.x q r1 in
                let parts =
                  (if p0 > 0. then [ (p0, r0) ] else [])
                  @ if p1 > 0. then [ (p1, fixed1) ] else []
                in
                { b with rho = Density.mix parts })
              !branches
      | Circuit.Instr.If_gate { clbits = cbs; value; gate } ->
          branches :=
            List.map
              (fun b ->
                let read =
                  List.fold_left
                    (fun (acc, k) bit -> (acc lor (b.clbits.(bit) lsl k), k + 1))
                    (0, 0) cbs
                  |> fst
                in
                if read = value then
                  { b with rho = apply_gate_dm noise gate b.rho }
                else b)
              !branches
      | Circuit.Instr.Barrier _ -> ())
    (Circuit.instrs c);
  { branches = !branches; traces = List.rev !traces }

let final_density o =
  Density.mix (List.map (fun b -> (b.weight, b.rho)) o.branches)

let probs ?noise ?initial c =
  let o = run ?noise ?initial c in
  Density.probs (final_density o)
