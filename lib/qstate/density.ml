open Linalg

type t = { n : int; m : Cmat.t }

let of_cmat n m =
  let r, c = Cmat.dims m in
  if r <> 1 lsl n || c <> 1 lsl n then invalid_arg "Density.of_cmat: bad shape";
  { n; m }

let of_statevec st =
  let v = Statevec.to_cvec st in
  { n = Statevec.num_qubits st; m = Cmat.outer v v }

let pure n v =
  if Cvec.dim v <> 1 lsl n then invalid_arg "Density.pure: bad dimension";
  let v = Cvec.normalize v in
  { n; m = Cmat.outer v v }

let basis n k = of_statevec (Statevec.basis n k)

let maximally_mixed n =
  let d = 1 lsl n in
  { n; m = Cmat.rscale (1. /. float_of_int d) (Cmat.identity d) }

let mix parts =
  match parts with
  | [] -> invalid_arg "Density.mix: empty mixture"
  | (_, first) :: _ ->
      let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. parts in
      if total <= 0. then invalid_arg "Density.mix: non-positive weight";
      let d = 1 lsl first.n in
      let acc = ref (Cmat.create d d) in
      List.iter
        (fun (p, rho) ->
          if rho.n <> first.n then invalid_arg "Density.mix: qubit mismatch";
          acc := Cmat.add !acc (Cmat.rscale (p /. total) rho.m))
        parts;
      { n = first.n; m = !acc }

let num_qubits rho = rho.n
let mat rho = rho.m

(* Left-multiply by (K on qubit q): mixes row pairs for every column. *)
let op_rows k q rho_m dim =
  let k00 = Cmat.get k 0 0 and k01 = Cmat.get k 0 1 in
  let k10 = Cmat.get k 1 0 and k11 = Cmat.get k 1 1 in
  let out = Cmat.copy rho_m in
  let bit = 1 lsl q in
  for i = 0 to dim - 1 do
    if i land bit = 0 then begin
      let j = i lor bit in
      for c = 0 to dim - 1 do
        let a = Cmat.get rho_m i c and b = Cmat.get rho_m j c in
        Cmat.set out i c (Cx.add (Cx.mul k00 a) (Cx.mul k01 b));
        Cmat.set out j c (Cx.add (Cx.mul k10 a) (Cx.mul k11 b))
      done
    end
  done;
  out

(* Right-multiply by (K on qubit q)^dagger: mixes column pairs per row. *)
let op_cols k q rho_m dim =
  let k00 = Cx.conj (Cmat.get k 0 0) and k01 = Cx.conj (Cmat.get k 0 1) in
  let k10 = Cx.conj (Cmat.get k 1 0) and k11 = Cx.conj (Cmat.get k 1 1) in
  let out = Cmat.copy rho_m in
  let bit = 1 lsl q in
  for i = 0 to dim - 1 do
    if i land bit = 0 then begin
      let j = i lor bit in
      for r = 0 to dim - 1 do
        let a = Cmat.get rho_m r i and b = Cmat.get rho_m r j in
        Cmat.set out r i (Cx.add (Cx.mul k00 a) (Cx.mul k01 b));
        Cmat.set out r j (Cx.add (Cx.mul k10 a) (Cx.mul k11 b))
      done
    end
  done;
  out

let apply1 u q rho =
  if q < 0 || q >= rho.n then invalid_arg "Density.apply1: qubit out of range";
  let d = 1 lsl rho.n in
  { rho with m = op_cols u q (op_rows u q rho.m d) d }

let apply_controlled ~controls u q rho =
  match controls with
  | [] -> apply1 u q rho
  | _ ->
      (* build the controlled 2x2-on-subspace as row/col mixing restricted to
         control-satisfying indices *)
      let cmask = List.fold_left (fun m c -> m lor (1 lsl c)) 0 controls in
      if cmask land (1 lsl q) <> 0 then
        invalid_arg "Density.apply_controlled: target among controls";
      let d = 1 lsl rho.n in
      let bit = 1 lsl q in
      let u00 = Cmat.get u 0 0 and u01 = Cmat.get u 0 1 in
      let u10 = Cmat.get u 1 0 and u11 = Cmat.get u 1 1 in
      let rows_done = Cmat.copy rho.m in
      for i = 0 to d - 1 do
        if i land bit = 0 && i land cmask = cmask then begin
          let j = i lor bit in
          for c = 0 to d - 1 do
            let a = Cmat.get rho.m i c and b = Cmat.get rho.m j c in
            Cmat.set rows_done i c (Cx.add (Cx.mul u00 a) (Cx.mul u01 b));
            Cmat.set rows_done j c (Cx.add (Cx.mul u10 a) (Cx.mul u11 b))
          done
        end
      done;
      let out = Cmat.copy rows_done in
      let c00 = Cx.conj u00 and c01 = Cx.conj u01 in
      let c10 = Cx.conj u10 and c11 = Cx.conj u11 in
      for i = 0 to d - 1 do
        if i land bit = 0 && i land cmask = cmask then begin
          let j = i lor bit in
          for r = 0 to d - 1 do
            let a = Cmat.get rows_done r i and b = Cmat.get rows_done r j in
            Cmat.set out r i (Cx.add (Cx.mul c00 a) (Cx.mul c01 b));
            Cmat.set out r j (Cx.add (Cx.mul c10 a) (Cx.mul c11 b))
          done
        end
      done;
      { rho with m = out }

let apply_kraus ks q rho =
  let d = 1 lsl rho.n in
  let acc = ref (Cmat.create d d) in
  List.iter
    (fun k -> acc := Cmat.add !acc (op_cols k q (op_rows k q rho.m d) d))
    ks;
  { rho with m = !acc }

let prob1 rho q =
  let d = 1 lsl rho.n in
  let bit = 1 lsl q in
  let p = ref 0. in
  for i = 0 to d - 1 do
    if i land bit <> 0 then p := !p +. Cx.re (Cmat.get rho.m i i)
  done;
  !p

let measure_qubit rho q =
  let d = 1 lsl rho.n in
  let bit = 1 lsl q in
  let p1 = prob1 rho q in
  let p0 = 1. -. p1 in
  let branch outcome p =
    if p <= 1e-15 then (0., maximally_mixed rho.n)
    else begin
      let m = Cmat.create d d in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          let keep_i =
            if outcome = 1 then i land bit <> 0 else i land bit = 0
          in
          let keep_j =
            if outcome = 1 then j land bit <> 0 else j land bit = 0
          in
          if keep_i && keep_j then
            Cmat.set m i j (Cx.scale (1. /. p) (Cmat.get rho.m i j))
        done
      done;
      (p, { rho with m })
    end
  in
  (branch 0 p0, branch 1 p1)

(* the environment sum runs in ascending base order for every entry, as
   [Statevec.reduced_density] does *)
let partial_trace ~keep rho =
  let keep_arr = Array.of_list keep in
  let keep_mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 keep_arr in
  let dk = 1 lsl Array.length keep_arr and d = 1 lsl rho.n in
  let offset = Array.init dk (Statevec.embed_index keep_arr) in
  let out = Cmat.create dk dk in
  let ore = out.Cmat.re and oim = out.Cmat.im in
  let mre = rho.m.Cmat.re and mim = rho.m.Cmat.im in
  Statevec.iter_env_bases rho.n keep_mask (fun base ->
      for a = 0 to dk - 1 do
        let row = (base lor offset.(a)) * d in
        for b = 0 to dk - 1 do
          let src = row + (base lor offset.(b)) in
          ore.((a * dk) + b) <- ore.((a * dk) + b) +. mre.(src);
          oim.((a * dk) + b) <- oim.((a * dk) + b) +. mim.(src)
        done
      done);
  { n = Array.length keep_arr; m = out }

let trace rho = Cx.re (Cmat.trace rho.m)

let purity rho =
  let f = Cmat.frob_norm rho.m in
  f *. f

let probs rho =
  let d = 1 lsl rho.n in
  Array.init d (fun i -> Cx.re (Cmat.get rho.m i i))

let expectation_pauli p rho = Pauli.expectation_dm p rho.m

let fidelity a b =
  if a.n <> b.n then invalid_arg "Density.fidelity: qubit mismatch";
  let sqa = Eig.sqrtm_psd a.m in
  let inner = Cmat.mul3 sqa b.m sqa in
  let w, _ = Eig.hermitian inner in
  let s = Array.fold_left (fun acc x -> acc +. sqrt (Float.max 0. x)) 0. w in
  s *. s

let is_valid ?(eps = 1e-8) rho =
  Cmat.is_hermitian ~eps rho.m
  && Float.abs (trace rho -. 1.) < eps
  &&
  let w, _ = Eig.hermitian rho.m in
  Array.for_all (fun x -> x > -.eps) w

let equal ?(eps = 1e-12) a b = a.n = b.n && Cmat.equal ~eps a.m b.m
let pp ppf rho = Format.fprintf ppf "Density(%d qubits)@.%a" rho.n Cmat.pp rho.m
