open Linalg

type recovery = [ `Least_squares | `Expectation ]

(* The sampled inputs in the coordinates the least squares runs in. When
   the inputs leave part of the 2^n_in-dimensional input space
   unreached, [iso] holds an isometry Q (2^n_in x r) onto their joint
   range and its adjoint, and [coords] the r x r matrices
   Q^dag sigma_i Q; otherwise [iso] is [None] and [coords] are the inputs
   themselves. Q Q^dag sigma_i = sigma_i, so Hilbert-Schmidt inner
   products, the normal equations and the coefficients of every matrix
   are those of the full space. *)
type range = {
  iso : (Cmat.t * Cmat.t) option;
  coords : Cmat.t array;
  factor : Rmat.lstsq;
}

type t = {
  n_in : int;
  inputs : Cmat.t array;
  outputs : (int * Cmat.t array) list;
  range : range Lazy.t;
  lstsq_map : Rmat.t Lazy.t;
}

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

(* an eigenvalue of sum_i sigma_i at most this fraction of the largest is
   rounding: its eigenvector is off the range of every input *)
let rank_tol = 1e-12

(* Q, the eigenvectors of sum_i sigma_i above [rank_tol]: the range of a
   sum of PSD matrices is their joint range. Only fewer than 2^n_in
   inputs can miss part of the space (characterized inputs are pure). *)
let isometry ~d inputs =
  if Array.length inputs >= d then None
  else begin
    let w, v = Eig.hermitian (combine inputs (Array.map (fun _ -> 1.) inputs)) in
    (* eigenvalues ascend, so the kept ones are the last [r] *)
    let lo = ref 0 in
    while !lo < d && w.(!lo) <= rank_tol *. w.(d - 1) do
      incr lo
    done;
    let r = d - !lo in
    if r = 0 || r = d then None
    else
      let q = Cmat.init d r (fun i c -> Cmat.get v i (!lo + c)) in
      Some (q, Cmat.adjoint q)
  end

let restrict (q, qa) m = Cmat.mul qa (Cmat.mul m q)

let build_range ~n_in inputs =
  lazy
    (let iso = isometry ~d:(1 lsl n_in) inputs in
     let coords =
       match iso with None -> inputs | Some iso -> Array.map (restrict iso) inputs
     in
     let r, _ = Cmat.dims coords.(0) in
     let b = Rmat.create (Hsvec.dim r) (Array.length coords) in
     Array.iteri
       (fun j s -> Array.iteri (fun i x -> Rmat.set b i j x) (Hsvec.encode s))
       coords;
     { iso; coords; factor = Rmat.lstsq_factor ~ridge:1e-9 b })

(* column k is the factor's solve of the k-th HS unit vector of the range
   coordinates: the very map [physical_into] applies, ridge and LU
   fallback included *)
let build_lstsq_map range =
  lazy
    (let { coords; factor; _ } = Lazy.force range in
     let n = Array.length coords in
     let rows = Hsvec.dim (fst (Cmat.dims coords.(0))) in
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
  let range = build_range ~n_in inputs in
  { n_in; inputs; outputs; range; lstsq_map = build_lstsq_map range }

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

type workspace = {
  range : range;
  mixed : float;  (** 1 / 2^n_in *)
  rho : Cmat.t;
  eig : Eig.workspace;
  projected : Cmat.t;
  herm : Cmat.t;
  hs : float array;
}

let workspace (t : t) =
  let range = Lazy.force t.range in
  let r, _ = Cmat.dims range.coords.(0) in
  {
    range;
    mixed = 1. /. float_of_int (1 lsl t.n_in);
    rho = Cmat.create r r;
    eig = Eig.workspace r;
    projected = Cmat.create r r;
    herm = Cmat.create r r;
    hs = Array.make (Hsvec.dim r) 0.;
  }

let physical_into w alpha ~dst =
  combine_into w.range.coords alpha ~dst:w.rho;
  if Eig.project_psd_into w.eig w.rho ~dst:w.projected then begin
    (* fully clipped: the maximally mixed state of the whole input space,
       I / 2^n_in, whose coefficients are tr sigma_i / 2^n_in. In range
       coordinates that is I_r / 2^n_in, not the projection's I_r / r. *)
    let r = w.projected.Cmat.rows in
    for i = 0 to r - 1 do
      w.projected.Cmat.re.((i * r) + i) <- w.mixed
    done
  end;
  Hsvec.encode_into ~herm:w.herm w.projected ~dst:w.hs;
  Rmat.lstsq_solve_into w.range.factor w.hs ~dst

let decompose ?(mode = `Least_squares) t rho =
  let d = 1 lsl t.n_in in
  let rd, cd = Cmat.dims rho in
  if rd <> d || cd <> d then invalid_arg "Approx.decompose: dimension mismatch";
  match mode with
  | `Expectation ->
      Array.map (fun sigma -> Cx.re (Cmat.hs_inner sigma rho)) t.inputs
  | `Least_squares ->
      (* the part of rho off the inputs' range is HS-orthogonal to every
         input, so restricting first leaves the solution unchanged *)
      let { iso; factor; _ } = Lazy.force t.range in
      let rho = match iso with None -> rho | Some iso -> restrict iso rho in
      let dst = Array.make (n_sample t) 0. in
      Rmat.lstsq_solve_into factor (Hsvec.encode rho) ~dst;
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
