open Linalg

type recovery = [ `Least_squares | `Expectation ]

type t = {
  n_in : int;
  inputs : Cmat.t array;
  outputs : (int * Cmat.t array) list;
  basis : Rmat.t Lazy.t;
  solver : Rmat.lstsq Lazy.t;
  lstsq_map : Rmat.t Lazy.t;
}

let build_basis ~n_in inputs =
  lazy
    (let d = 1 lsl n_in in
     let rows = Hsvec.dim d in
     let cols = Array.length inputs in
     let b = Rmat.create rows cols in
     Array.iteri
       (fun j input ->
         let v = Hsvec.encode input in
         Array.iteri (fun i x -> Rmat.set b i j x) v)
       inputs;
     b)

(* column k is the factor's solve of the k-th HS unit vector: the very
   map [decompose_into] applies, ridge and LU fallback included *)
let build_lstsq_map ~n_in ~n solver =
  lazy
    (let rows = Hsvec.dim (1 lsl n_in) in
     let factor = Lazy.force solver in
     let g = Rmat.create n rows in
     let unit = Array.make rows 0. and col = Array.make n 0. in
     for k = 0 to rows - 1 do
       unit.(k) <- 1.;
       Rmat.lstsq_solve_into factor unit ~dst:col;
       unit.(k) <- 0.;
       Array.iteri (fun i x -> Rmat.set g i k x) col
     done;
     g)

let make ~n_in ~inputs ~outputs =
  if Array.length inputs = 0 then invalid_arg "Approx.make: no samples";
  List.iter
    (fun (_, states) ->
      if Array.length states <> Array.length inputs then
        invalid_arg "Approx.make: sample count mismatch")
    outputs;
  let basis = build_basis ~n_in inputs in
  let solver = lazy (Rmat.lstsq_factor ~ridge:1e-9 (Lazy.force basis)) in
  let lstsq_map = build_lstsq_map ~n_in ~n:(Array.length inputs) solver in
  { n_in; inputs; outputs; basis; solver; lstsq_map }

let of_characterization (c : Characterize.t) =
  let n_in = Program.num_input_qubits c.Characterize.program in
  let samples = c.Characterize.samples in
  if Array.length samples = 0 then
    invalid_arg "Approx.of_characterization: no samples";
  let inputs = Array.map (fun s -> s.Characterize.input_dm) samples in
  let ids = List.map fst samples.(0).Characterize.traces in
  let outputs =
    List.map
      (fun id ->
        ( id,
          Array.map
            (fun s -> List.assoc id s.Characterize.traces)
            samples ))
      ids
  in
  make ~n_in ~inputs ~outputs

let n_sample t = Array.length t.inputs
let tracepoint_ids t = List.map fst t.outputs

type workspace = { herm : Cmat.t; hs : float array; factor : Rmat.lstsq }

let workspace t =
  let d = 1 lsl t.n_in in
  {
    herm = Cmat.create d d;
    hs = Array.make (Hsvec.dim d) 0.;
    factor = Lazy.force t.solver;
  }

let decompose_into w rho ~dst =
  Hsvec.encode_into ~herm:w.herm rho ~dst:w.hs;
  Rmat.lstsq_solve_into w.factor w.hs ~dst

let decompose ?(mode = `Least_squares) t rho =
  let d = 1 lsl t.n_in in
  let rd, cd = Cmat.dims rho in
  if rd <> d || cd <> d then invalid_arg "Approx.decompose: dimension mismatch";
  match mode with
  | `Expectation ->
      Array.map (fun sigma -> Cx.re (Cmat.hs_inner sigma rho)) t.inputs
  | `Least_squares ->
      let dst = Array.make (n_sample t) 0. in
      decompose_into (workspace t) rho ~dst;
      dst

let check_count states alpha =
  if Array.length states <> Array.length alpha then
    invalid_arg "Approx: coefficient count mismatch"

(* sum_i alpha_i states_i in ascending i, skipping exact zeros; each term
   is scaled before it is added, entry by entry *)
let combine_into states alpha ~dst =
  check_count states alpha;
  let re = dst.Cmat.re and im = dst.Cmat.im in
  Array.fill re 0 (Array.length re) 0.;
  Array.fill im 0 (Array.length im) 0.;
  for i = 0 to Array.length alpha - 1 do
    let a = alpha.(i) in
    if a <> 0. then begin
      let s = states.(i) in
      if s.Cmat.rows <> dst.Cmat.rows || s.Cmat.cols <> dst.Cmat.cols then
        invalid_arg "Cmat: dimension mismatch";
      for k = 0 to Array.length re - 1 do
        re.(k) <- re.(k) +. (a *. s.Cmat.re.(k));
        im.(k) <- im.(k) +. (a *. s.Cmat.im.(k))
      done
    end
  done

let combine states alpha =
  check_count states alpha;
  let d, _ = Cmat.dims states.(0) in
  let dst = Cmat.create d d in
  combine_into states alpha ~dst;
  dst

let input_of_alpha t alpha = combine t.inputs alpha

let tracepoint_of_alpha t ~tracepoint alpha =
  match List.assoc_opt tracepoint t.outputs with
  | Some states -> combine states alpha
  | None -> raise Not_found

let state_at ?mode ?(physical = true) t ~tracepoint rho_in =
  let alpha = decompose ?mode t rho_in in
  let raw = tracepoint_of_alpha t ~tracepoint alpha in
  if physical then Eig.project_psd raw else raw

let accuracy approx truth =
  let n = Cmat.num_qubits truth in
  Qstate.Density.fidelity
    (Qstate.Density.of_cmat n (Eig.project_psd approx))
    (Qstate.Density.of_cmat n (Eig.project_psd truth))

let theoretical_accuracy ~n_in ~n_sample =
  Float.min 1. (float_of_int n_sample /. float_of_int (1 lsl (n_in + 1)))

let samples_for_full_accuracy ~n_in = 1 lsl (n_in + 1)

let chain fs rho = List.fold_left (fun acc f -> f acc) rho fs
