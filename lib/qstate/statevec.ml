open Linalg

type t = { n : int; re : float array; im : float array }

let basis n k =
  if n < 0 || n > 26 then invalid_arg "Statevec.basis: unsupported qubit count";
  let d = 1 lsl n in
  if k < 0 || k >= d then invalid_arg "Statevec.basis: index out of range";
  let st = { n; re = Array.make d 0.; im = Array.make d 0. } in
  st.re.(k) <- 1.;
  st

let zero n = basis n 0

let of_cvec n v =
  if Cvec.dim v <> 1 lsl n then invalid_arg "Statevec.of_cvec: bad dimension";
  { n; re = Array.copy v.Cvec.re; im = Array.copy v.Cvec.im }

let to_cvec st = Cvec.of_arrays st.re st.im
let num_qubits st = st.n
let dim st = 1 lsl st.n
let copy st = { st with re = Array.copy st.re; im = Array.copy st.im }
let amplitude st k = Cx.make st.re.(k) st.im.(k)

let set_amplitude st k z =
  st.re.(k) <- Cx.re z;
  st.im.(k) <- Cx.im z

let embed_index positions a =
  let idx = ref 0 in
  Array.iteri
    (fun j q -> if (a lsr j) land 1 = 1 then idx := !idx lor (1 lsl q))
    positions;
  !idx

let embed n positions input =
  let st = zero n in
  for a = 0 to dim input - 1 do
    set_amplitude st (embed_index positions a) (amplitude input a)
  done;
  st

let norm st =
  let s = ref 0. in
  for k = 0 to dim st - 1 do
    s := !s +. (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k))
  done;
  sqrt !s

let normalize st =
  let nv = norm st in
  if nv <= 0. then invalid_arg "Statevec.normalize: zero state";
  let f = 1. /. nv in
  for k = 0 to dim st - 1 do
    st.re.(k) <- f *. st.re.(k);
    st.im.(k) <- f *. st.im.(k)
  done

let inner a b =
  if a.n <> b.n then invalid_arg "Statevec.inner: qubit mismatch";
  let re = ref 0. and im = ref 0. in
  for k = 0 to dim a - 1 do
    re := !re +. (a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k));
    im := !im +. (a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k))
  done;
  Cx.make !re !im

let fidelity_pure a b = Cx.norm2 (inner a b)

let kron a b =
  let n = a.n + b.n in
  let db = dim b in
  let st = { n; re = Array.make (1 lsl n) 0.; im = Array.make (1 lsl n) 0. } in
  for ia = 0 to dim a - 1 do
    for ib = 0 to db - 1 do
      let k = (ia * db) + ib in
      st.re.(k) <- (a.re.(ia) *. b.re.(ib)) -. (a.im.(ia) *. b.im.(ib));
      st.im.(k) <- (a.re.(ia) *. b.im.(ib)) +. (a.im.(ia) *. b.re.(ib))
    done
  done;
  st

let check_u2 u =
  let r, c = Cmat.dims u in
  if r <> 2 || c <> 2 then invalid_arg "Statevec: expected 2x2 matrix"

(* Gate kernels fan out over the global domain pool once the state reaches
   [parallel_threshold] qubits; below it the sequential path avoids all
   synchronization. Parallel chunks write disjoint amplitude pairs and
   perform no reductions, so results are bit-identical for any domain count
   and any chunking. *)
let parallel_threshold = ref 14

let kernel_chunk = 1 lsl 11

let run_kernel st n body =
  if st.n >= !parallel_threshold then
    Parallel.Pool.parallel_for_chunks ~chunk:kernel_chunk
      (Parallel.Pool.global ()) ~n body
  else body 0 n

let apply1 u q st =
  check_u2 u;
  if q < 0 || q >= st.n then invalid_arg "Statevec.apply1: qubit out of range";
  let u00r = u.Cmat.re.(0) and u00i = u.Cmat.im.(0) in
  let u01r = u.Cmat.re.(1) and u01i = u.Cmat.im.(1) in
  let u10r = u.Cmat.re.(2) and u10i = u.Cmat.im.(2) in
  let u11r = u.Cmat.re.(3) and u11i = u.Cmat.im.(3) in
  let bit = 1 lsl q in
  let lowmask = bit - 1 in
  (* iterate the d/2 pairs directly: m encodes the index with qubit q removed *)
  run_kernel st (dim st lsr 1) (fun lo hi ->
      for m = lo to hi - 1 do
        let i = ((m land lnot lowmask) lsl 1) lor (m land lowmask) in
        let j = i lor bit in
        let ar = st.re.(i) and ai = st.im.(i) in
        let br = st.re.(j) and bi = st.im.(j) in
        st.re.(i) <- (u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi);
        st.im.(i) <- (u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br);
        st.re.(j) <- (u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi);
        st.im.(j) <- (u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br)
      done)

let apply_controlled ~controls u q st =
  check_u2 u;
  if q < 0 || q >= st.n then
    invalid_arg "Statevec.apply_controlled: qubit out of range";
  List.iter
    (fun c ->
      if c < 0 || c >= st.n || c = q then
        invalid_arg "Statevec.apply_controlled: bad control")
    controls;
  let cmask = List.fold_left (fun m c -> m lor (1 lsl c)) 0 controls in
  let u00r = u.Cmat.re.(0) and u00i = u.Cmat.im.(0) in
  let u01r = u.Cmat.re.(1) and u01i = u.Cmat.im.(1) in
  let u10r = u.Cmat.re.(2) and u10i = u.Cmat.im.(2) in
  let u11r = u.Cmat.re.(3) and u11i = u.Cmat.im.(3) in
  let bit = 1 lsl q in
  (* each pair (i, i|bit) is owned by the chunk containing i, so chunked
     writes never overlap even when j lands in another chunk *)
  run_kernel st (dim st) (fun lo hi ->
      for i = lo to hi - 1 do
        if i land bit = 0 && i land cmask = cmask then begin
          let j = i lor bit in
          let ar = st.re.(i) and ai = st.im.(i) in
          let br = st.re.(j) and bi = st.im.(j) in
          st.re.(i) <-
            (u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi);
          st.im.(i) <-
            (u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br);
          st.re.(j) <-
            (u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi);
          st.im.(j) <-
            (u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br)
        end
      done)

let apply2 u q0 q1 st =
  let r, c = Cmat.dims u in
  if r <> 4 || c <> 4 then invalid_arg "Statevec.apply2: expected 4x4 matrix";
  if q0 = q1 || q0 < 0 || q1 < 0 || q0 >= st.n || q1 >= st.n then
    invalid_arg "Statevec.apply2: bad qubits";
  let b0 = 1 lsl q0 and b1 = 1 lsl q1 in
  run_kernel st (dim st) (fun lo hi ->
      let tmp_re = Array.make 4 0. and tmp_im = Array.make 4 0. in
      for i = lo to hi - 1 do
        if i land b0 = 0 && i land b1 = 0 then begin
          let idx = [| i; i lor b0; i lor b1; i lor b0 lor b1 |] in
          for a = 0 to 3 do
            tmp_re.(a) <- 0.;
            tmp_im.(a) <- 0.;
            for b = 0 to 3 do
              let ur = u.Cmat.re.((a * 4) + b) and ui = u.Cmat.im.((a * 4) + b) in
              let vr = st.re.(idx.(b)) and vi = st.im.(idx.(b)) in
              tmp_re.(a) <- tmp_re.(a) +. (ur *. vr) -. (ui *. vi);
              tmp_im.(a) <- tmp_im.(a) +. (ur *. vi) +. (ui *. vr)
            done
          done;
          for a = 0 to 3 do
            st.re.(idx.(a)) <- tmp_re.(a);
            st.im.(idx.(a)) <- tmp_im.(a)
          done
        end
      done)

let prob1 st q =
  if q < 0 || q >= st.n then invalid_arg "Statevec.prob1: qubit out of range";
  let bit = 1 lsl q in
  let p = ref 0. in
  for k = 0 to dim st - 1 do
    if k land bit <> 0 then
      p := !p +. (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k))
  done;
  !p

let probs st =
  Array.init (dim st) (fun k ->
      (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k)))

let project st q outcome =
  if outcome <> 0 && outcome <> 1 then
    invalid_arg "Statevec.project: outcome must be 0 or 1";
  let bit = 1 lsl q in
  let p = if outcome = 1 then prob1 st q else 1. -. prob1 st q in
  if p <= 1e-15 then 0.
  else begin
    let f = 1. /. sqrt p in
    for k = 0 to dim st - 1 do
      let keep = if outcome = 1 then k land bit <> 0 else k land bit = 0 in
      if keep then begin
        st.re.(k) <- f *. st.re.(k);
        st.im.(k) <- f *. st.im.(k)
      end
      else begin
        st.re.(k) <- 0.;
        st.im.(k) <- 0.
      end
    done;
    p
  end

let measure rng st q =
  let p1 = prob1 st q in
  let outcome = if Stats.Rng.float rng 1. < p1 then 1 else 0 in
  ignore (project st q outcome);
  outcome

let sample rng st =
  let r = ref (Stats.Rng.float rng 1.) in
  let d = dim st in
  let result = ref (d - 1) in
  (try
     for k = 0 to d - 1 do
       let p = (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k)) in
       r := !r -. p;
       if !r < 0. then begin
         result := k;
         raise Exit
       end
     done
   with Exit -> ());
  !result

(* cumulative Born distribution; cdf.(k) = sum of probabilities up to k *)
let cdf st =
  let d = dim st in
  let c = Array.make d 0. in
  let acc = ref 0. in
  for k = 0 to d - 1 do
    acc := !acc +. (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k));
    c.(k) <- !acc
  done;
  c

(* smallest k with c.(k) > r (falls back to the last index when rounding
   leaves the total below r, matching [sample]'s behaviour) *)
let search_cdf c r =
  let d = Array.length c in
  if r >= c.(d - 1) then d - 1
  else begin
    let lo = ref 0 and hi = ref (d - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if c.(mid) > r then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* Sampling is O(shots log d) over the cumulative distribution instead of an
   O(d) scan per shot. With a pool, shots are drawn in fixed 4096-shot blocks
   with one split child generator each, so the drawn indices are independent
   of the pool's domain count. *)
let counts ?pool rng st ~shots =
  let c = cdf st in
  let tbl = Hashtbl.create 64 in
  let bump k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  (match pool with
  | None ->
      for _ = 1 to shots do
        bump (search_cdf c (Stats.Rng.float rng 1.)) 1
      done
  | Some pool ->
      let block = 4096 in
      let blocks = (shots + block - 1) / block in
      let rngs = Array.init blocks (Stats.Rng.split rng) in
      let drawn = Array.make shots 0 in
      Parallel.Pool.parallel_for pool ~n:blocks (fun b ->
          let r = rngs.(b) in
          for s = b * block to min shots ((b + 1) * block) - 1 do
            drawn.(s) <- search_cdf c (Stats.Rng.float r 1.)
          done);
      Array.iter (fun k -> bump k 1) drawn);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let expectation_pauli p st =
  let n = Array.length p in
  if n <> st.n then invalid_arg "Statevec.expectation_pauli: qubit mismatch";
  (* <psi| P |psi> = sum_r conj(psi_r) * phase(r) * psi_{r xor flip} *)
  let flipmask = ref 0 in
  Array.iteri
    (fun q o -> if o = Pauli.X || o = Pauli.Y then flipmask := !flipmask lor (1 lsl q))
    p;
  let total_re = ref 0. in
  let d = dim st in
  for r = 0 to d - 1 do
    let c = r lxor !flipmask in
    (* phase of P_{r,c} *)
    let ph = ref Cx.one in
    Array.iteri
      (fun q o ->
        let bit = (r lsr q) land 1 in
        match o with
        | Pauli.I | Pauli.X -> ()
        | Pauli.Z -> if bit = 1 then ph := Cx.neg !ph
        | Pauli.Y ->
            ph := if bit = 1 then Cx.mul !ph Cx.i else Cx.mul !ph (Cx.neg Cx.i))
      p;
    (* conj(psi_r) * phase * psi_c, real part *)
    let pr = Cx.re !ph and pi = Cx.im !ph in
    let cr = (pr *. st.re.(c)) -. (pi *. st.im.(c)) in
    let ci = (pr *. st.im.(c)) +. (pi *. st.re.(c)) in
    total_re := !total_re +. (st.re.(r) *. cr) +. (st.im.(r) *. ci)
  done;
  !total_re

let iter_env_bases n keep_mask f =
  let d = 1 lsl n and rest = lnot keep_mask in
  let base = ref 0 in
  while !base < d do
    f !base;
    (* the next subset of [rest]: carry through the kept bits *)
    base := ((!base lor keep_mask) + 1) land rest
  done

let reduced_density st keep =
  List.iter
    (fun q ->
      if q < 0 || q >= st.n then
        invalid_arg "Statevec.reduced_density: qubit out of range")
    keep;
  let keep_arr = Array.of_list keep in
  let keep_mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 keep_arr in
  let dk = 1 lsl Array.length keep_arr in
  (* offset.(a): index bits of kept sub-index [a]; a full index is an
     environment base or'ed with one offset *)
  let offset = Array.init dk (embed_index keep_arr) in
  let rho = Cmat.create dk dk in
  let rre = rho.Cmat.re and rim = rho.Cmat.im in
  iter_env_bases st.n keep_mask (fun base ->
      for a = 0 to dk - 1 do
        let ia = base lor offset.(a) in
        let ar = st.re.(ia) and ai = st.im.(ia) in
        if ar <> 0. || ai <> 0. then begin
          let row = a * dk in
          for b = 0 to dk - 1 do
            let ib = base lor offset.(b) in
            (* psi_a * conj(psi_b) *)
            let br = st.re.(ib) and bi = st.im.(ib) in
            rre.(row + b) <- rre.(row + b) +. (ar *. br) +. (ai *. bi);
            rim.(row + b) <- rim.(row + b) +. (ai *. br) -. (ar *. bi)
          done
        end
      done);
  rho

let density st = reduced_density st (List.init st.n (fun q -> q))

let equal ?(eps = 1e-12) a b =
  a.n = b.n
  &&
  let ok = ref true in
  for k = 0 to dim a - 1 do
    if
      Float.abs (a.re.(k) -. b.re.(k)) > eps
      || Float.abs (a.im.(k) -. b.im.(k)) > eps
    then ok := false
  done;
  !ok

let bits n k = String.init n (fun j -> if (k lsr (n - 1 - j)) land 1 = 1 then '1' else '0')

let pp ppf st =
  Format.fprintf ppf "@[<v>";
  for k = 0 to dim st - 1 do
    let p = (st.re.(k) *. st.re.(k)) +. (st.im.(k) *. st.im.(k)) in
    if p > 1e-12 then
      Format.fprintf ppf "|%s> %a@," (bits st.n k) Cx.pp (amplitude st k)
  done;
  Format.fprintf ppf "@]"
