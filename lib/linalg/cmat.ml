type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Cmat.create: non-positive dims";
  let n = rows * cols in
  { rows; cols; re = Array.make n 0.; im = Array.make n 0. }

let idx a i j = (i * a.cols) + j

let init rows cols f =
  let a = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let z = f i j in
      a.re.(idx a i j) <- Cx.re z;
      a.im.(idx a i j) <- Cx.im z
    done
  done;
  a

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_lists rows =
  match rows with
  | [] -> invalid_arg "Cmat.of_lists: empty"
  | r0 :: _ ->
      let nr = List.length rows and nc = List.length r0 in
      let arr = Array.of_list (List.map Array.of_list rows) in
      Array.iter
        (fun r ->
          if Array.length r <> nc then invalid_arg "Cmat.of_lists: ragged rows")
        arr;
      init nr nc (fun i j -> arr.(i).(j))

let diag v =
  let n = Cvec.dim v in
  init n n (fun i j -> if i = j then Cvec.get v i else Cx.zero)

let dims a = (a.rows, a.cols)

let num_qubits a =
  let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
  log2 0 a.rows
let get a i j = Cx.make a.re.(idx a i j) a.im.(idx a i j)

let set a i j z =
  a.re.(idx a i j) <- Cx.re z;
  a.im.(idx a i j) <- Cx.im z

let copy a = { a with re = Array.copy a.re; im = Array.copy a.im }
let map f a = init a.rows a.cols (fun i j -> f (get a i j))

(* Entrywise arithmetic runs as direct loops over the split component
   arrays: these ops sit on the per-gate hot path of the simulators, where
   the previous [Array.init]-with-closure formulation paid an indirect call
   per element. *)

let check_same_dims a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmat: dimension mismatch"

let add a b =
  check_same_dims a b;
  let n = Array.length a.re in
  let re = Array.make n 0. and im = Array.make n 0. in
  for k = 0 to n - 1 do
    re.(k) <- a.re.(k) +. b.re.(k);
    im.(k) <- a.im.(k) +. b.im.(k)
  done;
  { rows = a.rows; cols = a.cols; re; im }

let sub a b =
  check_same_dims a b;
  let n = Array.length a.re in
  let re = Array.make n 0. and im = Array.make n 0. in
  for k = 0 to n - 1 do
    re.(k) <- a.re.(k) -. b.re.(k);
    im.(k) <- a.im.(k) -. b.im.(k)
  done;
  { rows = a.rows; cols = a.cols; re; im }

let scale c a =
  let cr = Cx.re c and ci = Cx.im c in
  let n = Array.length a.re in
  let re = Array.make n 0. and im = Array.make n 0. in
  for k = 0 to n - 1 do
    re.(k) <- (cr *. a.re.(k)) -. (ci *. a.im.(k));
    im.(k) <- (cr *. a.im.(k)) +. (ci *. a.re.(k))
  done;
  { a with re; im }

let rscale c a =
  let n = Array.length a.re in
  let re = Array.make n 0. and im = Array.make n 0. in
  for k = 0 to n - 1 do
    re.(k) <- c *. a.re.(k);
    im.(k) <- c *. a.im.(k)
  done;
  { a with re; im }

(* i-k-j product with the j loop tiled so a tile of [dst] and [b] rows stays
   cache-resident while [a]'s row is consumed; entries of [a] that are
   exactly zero are skipped (block operators of controlled gates are mostly
   zero). For every (i, j) the k-accumulation order is unchanged by the
   tiling, so results are identical to the untiled product. *)
let mul_tile = 256

let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Cmat.mul_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Cmat.mul_into: bad destination dimensions";
  if dst == a || dst == b then
    invalid_arg "Cmat.mul_into: destination aliases an operand";
  if Obs.enabled () then begin
    (* the kernel below skips exact zeros of [a], so the useful-MAC count
       is nnz(a) * cols(b) *)
    let nnz = ref 0 in
    for idx = 0 to Array.length a.re - 1 do
      if a.re.(idx) <> 0. || a.im.(idx) <> 0. then incr nnz
    done;
    Obs.Metrics.counter_add "gemm_macs_total" (!nnz * b.cols)
  end;
  Array.fill dst.re 0 (Array.length dst.re) 0.;
  Array.fill dst.im 0 (Array.length dst.im) 0.;
  let cols = b.cols in
  let j0 = ref 0 in
  while !j0 < cols do
    let jhi = min cols (!j0 + mul_tile) in
    for i = 0 to a.rows - 1 do
      let drow = i * cols in
      for k = 0 to a.cols - 1 do
        let ar = a.re.((i * a.cols) + k) and ai = a.im.((i * a.cols) + k) in
        if ar <> 0. || ai <> 0. then begin
          let brow = k * cols in
          for j = !j0 to jhi - 1 do
            let br = b.re.(brow + j) and bi = b.im.(brow + j) in
            dst.re.(drow + j) <- dst.re.(drow + j) +. (ar *. br) -. (ai *. bi);
            dst.im.(drow + j) <- dst.im.(drow + j) +. (ar *. bi) +. (ai *. br)
          done
        end
      done
    done;
    j0 := jhi
  done

let mul a b =
  if a.cols <> b.rows then invalid_arg "Cmat.mul: dimension mismatch";
  let c = create a.rows b.cols in
  mul_into ~dst:c a b;
  c

let mul3 a b c = mul (mul a b) c
let transpose a = init a.cols a.rows (fun i j -> get a j i)
let conj a = { a with im = Array.map (fun x -> -.x) a.im }

let adjoint_into ~dst a =
  if dst.rows <> a.cols || dst.cols <> a.rows then
    invalid_arg "Cmat.adjoint_into: bad destination dimensions";
  if dst == a then invalid_arg "Cmat.adjoint_into: destination aliases the operand";
  for i = 0 to dst.rows - 1 do
    for j = 0 to dst.cols - 1 do
      dst.re.((i * dst.cols) + j) <- a.re.((j * a.cols) + i);
      dst.im.((i * dst.cols) + j) <- -.a.im.((j * a.cols) + i)
    done
  done

let adjoint a =
  let dst = create a.cols a.rows in
  adjoint_into ~dst a;
  dst

let trace a =
  if a.rows <> a.cols then invalid_arg "Cmat.trace: non-square";
  let re = ref 0. and im = ref 0. in
  for i = 0 to a.rows - 1 do
    re := !re +. a.re.(idx a i i);
    im := !im +. a.im.(idx a i i)
  done;
  Cx.make !re !im

let frob_norm a =
  let s = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    s := !s +. (a.re.(k) *. a.re.(k)) +. (a.im.(k) *. a.im.(k))
  done;
  sqrt !s

let hs_inner a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmat.hs_inner: dimension mismatch";
  let re = ref 0. and im = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    (* conj(a_k) * b_k summed entrywise equals tr(adjoint a * b) *)
    re := !re +. (a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k));
    im := !im +. (a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k))
  done;
  Cx.make !re !im

let kron a b =
  let rows = a.rows * b.rows and cols = a.cols * b.cols in
  let c = create rows cols in
  for ia = 0 to a.rows - 1 do
    for ja = 0 to a.cols - 1 do
      let ar = a.re.(idx a ia ja) and ai = a.im.(idx a ia ja) in
      if ar <> 0. || ai <> 0. then
        for ib = 0 to b.rows - 1 do
          for jb = 0 to b.cols - 1 do
            let br = b.re.(idx b ib jb) and bi = b.im.(idx b ib jb) in
            let p = (((ia * b.rows) + ib) * cols) + (ja * b.cols) + jb in
            c.re.(p) <- (ar *. br) -. (ai *. bi);
            c.im.(p) <- (ar *. bi) +. (ai *. br)
          done
        done
    done
  done;
  c

let outer u v =
  init (Cvec.dim u) (Cvec.dim v) (fun i j ->
      Cx.mul (Cvec.get u i) (Cx.conj (Cvec.get v j)))

let apply a v =
  if a.cols <> Cvec.dim v then invalid_arg "Cmat.apply: dimension mismatch";
  Cvec.init a.rows (fun i ->
      let re = ref 0. and im = ref 0. in
      for j = 0 to a.cols - 1 do
        let ar = a.re.(idx a i j) and ai = a.im.(idx a i j) in
        let vr = (Cvec.get v j).Complex.re and vi = (Cvec.get v j).Complex.im in
        re := !re +. (ar *. vr) -. (ai *. vi);
        im := !im +. (ar *. vi) +. (ai *. vr)
      done;
      Cx.make !re !im)

let col a j = Cvec.init a.rows (fun i -> get a i j)
let row a i = Cvec.init a.cols (fun j -> get a i j)

let set_col a j v =
  if Cvec.dim v <> a.rows then invalid_arg "Cmat.set_col: dimension mismatch";
  for i = 0 to a.rows - 1 do
    set a i j (Cvec.get v i)
  done

let equal ?(eps = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to Array.length a.re - 1 do
    if
      Float.abs (a.re.(k) -. b.re.(k)) > eps
      || Float.abs (a.im.(k) -. b.im.(k)) > eps
    then ok := false
  done;
  !ok

let is_hermitian ?(eps = 1e-10) a = a.rows = a.cols && equal ~eps a (adjoint a)

let is_unitary ?(eps = 1e-10) a =
  a.rows = a.cols && equal ~eps (mul (adjoint a) a) (identity a.rows)

(* entry (i, j) is 0.5 (a_ij + conj a_ji), the sum taken in that order *)
let hermitize_into ~dst a =
  if a.rows <> a.cols then invalid_arg "Cmat: dimension mismatch";
  check_same_dims dst a;
  if dst == a then invalid_arg "Cmat.hermitize_into: destination aliases the operand";
  let n = a.rows in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let ij = (i * n) + j and ji = (j * n) + i in
      dst.re.(ij) <- 0.5 *. (a.re.(ij) +. a.re.(ji));
      dst.im.(ij) <- 0.5 *. (a.im.(ij) +. (-.a.im.(ji)))
    done
  done

let hermitize a =
  let dst = create a.rows a.cols in
  hermitize_into ~dst a;
  dst

let pp ppf a =
  Format.fprintf ppf "@[<v>";
  for i = 0 to a.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf ppf "  ";
      Cx.pp ppf (get a i j)
    done;
    Format.fprintf ppf "@]";
    if i < a.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
