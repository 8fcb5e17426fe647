open Linalg

let average_dm dataset =
  match dataset with
  | [] -> invalid_arg "Prune.strategy_adapt: empty dataset"
  | first :: _ ->
      let d, _ = Cmat.dims first in
      let acc = ref (Cmat.create d d) in
      List.iter (fun m -> acc := Cmat.add !acc m) dataset;
      Cmat.rscale (1. /. float_of_int (List.length dataset)) !acc

let eigvecs_desc dataset =
  let avg = average_dm dataset in
  let w, v = Eig.hermitian avg in
  let n = Array.length w in
  let n_qubits = Cmat.num_qubits avg in
  (* eigenvalues ascend; walk from the top *)
  List.init n (fun i ->
      let idx = n - 1 - i in
      (w.(idx), Qstate.Statevec.of_cvec n_qubits (Cvec.normalize (Cmat.col v idx))))

let strategy_adapt ?(energy = 0.95) dataset =
  let pairs = eigvecs_desc dataset in
  let total = List.fold_left (fun acc (w, _) -> acc +. Float.max 0. w) 0. pairs in
  let acc = ref 0. and keep = ref [] and done_ = ref false in
  List.iter
    (fun (w, v) ->
      if not !done_ then begin
        keep := v :: !keep;
        acc := !acc +. Float.max 0. w;
        if !acc >= energy *. total then done_ := true
      end)
    pairs;
  List.rev !keep

let strategy_adapt_top ~keep dataset =
  let pairs = eigvecs_desc dataset in
  List.filteri (fun i _ -> i < keep) (List.map snd pairs)

let strategy_const program ~variable_qubits =
  List.iter
    (fun q ->
      if not (List.mem q program.Program.input_qubits) then
        invalid_arg "Prune.strategy_const: qubit not in the current input")
    variable_qubits;
  Program.make ~input_qubits:variable_qubits program.Program.circuit

let prop_shot_reduction ~n_t =
  let rec pow acc k = if k = 0 then acc else pow (acc * 3) (k - 1) in
  pow 1 n_t
