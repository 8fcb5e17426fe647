open Morphcore

let embed_input program input =
  (* Sim.Sparse works on basis indices over the full register: shift the
     basis input into the program's input-qubit positions *)
  let qs = program.Program.input_qubits in
  List.fold_left
    (fun (acc, bit) q ->
      ((if (input lsr bit) land 1 = 1 then acc lor (1 lsl q) else acc), bit + 1))
    (0, 0) qs
  |> fst

let strip_tracepoints c =
  (* sparse runs only need the unitary body *)
  Circuit.map_gates (fun g -> Some g) c

(* prepend an input-preparation circuit (over the program's input qubits)
   to the program body, remapping prep qubits onto the input positions *)
let with_prep program prep =
  let n = Circuit.num_qubits program.Program.circuit in
  let qs = Array.of_list program.Program.input_qubits in
  let remapped =
    List.map (Circuit.Instr.remap (fun q -> qs.(q))) (Circuit.instrs prep)
  in
  let c = ref (Circuit.empty ~clbits:(Circuit.num_clbits program.Program.circuit) n) in
  List.iter (fun i -> c := Circuit.add i !c) remapped;
  List.iter (fun i -> c := Circuit.add i !c) (Circuit.instrs program.Program.circuit);
  !c

let check ?rng ?input_preps ~tests ~reference ~candidate () =
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 47 in
  let k = Program.num_input_qubits candidate in
  let meter = Sim.Cost.create () in
  let cases =
    match input_preps with
    | Some preps -> List.map (fun p -> `Prep p) preps
    | None ->
        List.map (fun i -> `Basis i) (Verifier.basis_inputs rng ~k ~count:tests)
  in
  let (bug_found, tests_used), seconds =
    Verifier.timed (fun () ->
        let rec go used = function
          | [] -> (false, used)
          | case :: rest ->
              let run program =
                match case with
                | `Basis input ->
                    Sim.Sparse.run
                      (strip_tracepoints program.Program.circuit)
                      ~input:(embed_input program input)
                | `Prep prep ->
                    Sim.Sparse.run (strip_tracepoints (with_prep program prep)) ~input:0
              in
              let s_ref = run reference and s_cand = run candidate in
              if not (Sim.Sparse.equal s_ref s_cand) then (true, used + 1)
              else go (used + 1) rest
        in
        go 0 cases)
  in
  { Verifier.bug_found; tests_used; cost = meter; seconds }

let continuous_rotation (g : Circuit.Gate.t) =
  List.mem g.Circuit.Gate.name [ "rx"; "ry"; "u3" ]

let supports program =
  List.for_all
    (function
      | Circuit.Instr.Gate g -> not (continuous_rotation g)
      | Circuit.Instr.If_gate _ | Circuit.Instr.Measure _ | Circuit.Instr.Reset _
        ->
          false
      | _ -> true)
    (Circuit.instrs program.Program.circuit)
