open Qstate

type kind = Basis | Clifford | Haar

let one_qubit_cliffords = [ []; [ "h" ]; [ "s" ]; [ "h"; "s" ]; [ "s"; "h" ]; [ "h"; "s"; "h" ] ]

let entangling_layer rng n c =
  if n < 2 then c
  else begin
    let order = Array.init n (fun i -> i) in
    Stats.Rng.shuffle rng order;
    let c = ref c in
    let i = ref 0 in
    while !i + 1 < n do
      if Stats.Rng.bool rng then c := Circuit.cx order.(!i) order.(!i + 1) !c;
      i := !i + 2
    done;
    !c
  end

let clifford_circuit rng n =
  (* phase stage, entangling stage, Hadamard stage - repeated; shallow depth
     linear in n per Bravyi-Maslov *)
  let depth = max 2 ((n / 2) + 1) in
  let c = ref (Circuit.empty n) in
  for _ = 1 to depth do
    for q = 0 to n - 1 do
      let names =
        List.nth one_qubit_cliffords (Stats.Rng.int rng (List.length one_qubit_cliffords))
      in
      List.iter (fun name -> c := Circuit.gate name [ q ] !c) names
    done;
    c := entangling_layer rng n !c
  done;
  !c

let haar_like_circuit rng n =
  let depth = n + 1 in
  let c = ref (Circuit.empty n) in
  for _ = 1 to depth do
    for q = 0 to n - 1 do
      let th = Stats.Rng.uniform rng 0. Float.pi in
      let ph = Stats.Rng.uniform rng 0. (2. *. Float.pi) in
      let l = Stats.Rng.uniform rng 0. (2. *. Float.pi) in
      c := Circuit.u3 th ph l q !c
    done;
    c := entangling_layer rng n !c
  done;
  !c

let basis_index n ~index =
  let d = 1 lsl n in
  ((index mod d) + d) mod d

let basis_circuit n ~index =
  let k = basis_index n ~index in
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    if (k lsr q) land 1 = 1 then c := Circuit.x q !c
  done;
  !c

let prep_circuit rng kind n ~index =
  match kind with
  | Basis -> basis_circuit n ~index
  | Clifford -> clifford_circuit rng n
  | Haar -> haar_like_circuit rng n

(* the [index]-th input, prepared by [c]; a basis input is built
   directly, since its X-only circuit draws nothing *)
let prepare rng kind n ~index c =
  match kind with
  | Basis -> Statevec.basis n (basis_index n ~index)
  | Clifford | Haar -> (Sim.Engine.run ~rng c).Sim.Engine.state

let state rng kind n ~index =
  prepare rng kind n ~index (prep_circuit rng kind n ~index)

let sample_set rng kind n ~count =
  List.init count (fun index ->
      let c = prep_circuit rng kind n ~index in
      (c, prepare rng kind n ~index c))

let haar_state rng n =
  let d = 1 lsl n in
  let v =
    Linalg.Cvec.init d (fun _ ->
        Linalg.Cx.make
          (Stats.Rng.gaussian rng ~mu:0. ~sigma:1.)
          (Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
  in
  Statevec.of_cvec n (Linalg.Cvec.normalize v)

let random_mixture rng states =
  match states with
  | [] -> invalid_arg "Sampling.random_mixture: empty list"
  | first :: _ ->
      let d = Statevec.dim first in
      let weights = List.map (fun _ -> Stats.Rng.float rng 1.) states in
      let total = List.fold_left ( +. ) 0. weights in
      let acc = ref (Linalg.Cmat.create d d) in
      List.iter2
        (fun w st ->
          let v = Statevec.to_cvec st in
          acc := Linalg.Cmat.add !acc (Linalg.Cmat.rscale (w /. total) (Linalg.Cmat.outer v v)))
        weights states;
      !acc
