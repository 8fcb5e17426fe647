type t = { rows : int; cols : int; a : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Rmat.create: non-positive dims";
  { rows; cols; a = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.a.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_lists rows =
  match rows with
  | [] -> invalid_arg "Rmat.of_lists: empty"
  | r0 :: _ ->
      let nr = List.length rows and nc = List.length r0 in
      let arr = Array.of_list (List.map Array.of_list rows) in
      Array.iter
        (fun r ->
          if Array.length r <> nc then invalid_arg "Rmat.of_lists: ragged rows")
        arr;
      init nr nc (fun i j -> arr.(i).(j))

let dims m = (m.rows, m.cols)
let get m i j = m.a.((i * m.cols) + j)
let set m i j x = m.a.((i * m.cols) + j) <- x
let copy m = { m with a = Array.copy m.a }

let map2 f x y =
  if x.rows <> y.rows || x.cols <> y.cols then
    invalid_arg "Rmat: dimension mismatch";
  { x with a = Array.init (Array.length x.a) (fun k -> f x.a.(k) y.a.(k)) }

let add = map2 ( +. )
let sub = map2 ( -. )
let scale c m = { m with a = Array.map (( *. ) c) m.a }

let mul x y =
  if x.cols <> y.rows then invalid_arg "Rmat.mul: dimension mismatch";
  let z = create x.rows y.cols in
  for i = 0 to x.rows - 1 do
    for k = 0 to x.cols - 1 do
      let xv = x.a.((i * x.cols) + k) in
      if xv <> 0. then
        for j = 0 to y.cols - 1 do
          z.a.((i * z.cols) + j) <-
            z.a.((i * z.cols) + j) +. (xv *. y.a.((k * y.cols) + j))
        done
    done
  done;
  z

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let apply_into m x ~dst =
  if Array.length x <> m.cols then invalid_arg "Rmat.apply: dimension mismatch";
  for i = 0 to m.rows - 1 do
    let s = ref 0. in
    for j = 0 to m.cols - 1 do
      s := !s +. (m.a.((i * m.cols) + j) *. x.(j))
    done;
    dst.(i) <- !s
  done

let apply m x =
  let dst = Array.make m.rows 0. in
  apply_into m x ~dst;
  dst

let solve m b =
  if m.rows <> m.cols then invalid_arg "Rmat.solve: non-square";
  if Array.length b <> m.rows then invalid_arg "Rmat.solve: dimension mismatch";
  let n = m.rows in
  let a = copy m in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    (* partial pivot *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get a i k) > Float.abs (get a !piv k) then piv := i
    done;
    if Float.abs (get a !piv k) < 1e-300 then failwith "Rmat.solve: singular matrix";
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = get a k j in
        set a k j (get a !piv j);
        set a !piv j t
      done;
      let t = x.(k) in
      x.(k) <- x.(!piv);
      x.(!piv) <- t
    end;
    for i = k + 1 to n - 1 do
      let f = get a i k /. get a k k in
      if f <> 0. then begin
        for j = k to n - 1 do
          set a i j (get a i j -. (f *. get a k j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (get a i j *. x.(j))
    done;
    x.(i) <- !s /. get a i i
  done;
  x

let cholesky m =
  if m.rows <> m.cols then invalid_arg "Rmat.cholesky: non-square";
  let n = m.rows in
  let l = create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (get m i j) in
      for k = 0 to j - 1 do
        s := !s -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !s <= 0. then failwith "Rmat.cholesky: not positive definite";
        set l i i (sqrt !s)
      end
      else set l i j (!s /. get l j j)
    done
  done;
  l

(* forward then back substitution against the factor [l] of [l l^T],
   overwriting [x] (the right-hand side) with the solution: each step reads
   only entries it has not yet overwritten *)
let cholesky_solve_into l x =
  let n = l.rows and l = l.a in
  for i = 0 to n - 1 do
    let s = ref x.(i) in
    for k = 0 to i - 1 do
      s := !s -. (l.((i * n) + k) *. x.(k))
    done;
    x.(i) <- !s /. l.((i * n) + i)
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (l.((k * n) + i) *. x.(k))
    done;
    x.(i) <- !s /. l.((i * n) + i)
  done

type lstsq = { at : t; ata : t; factor : t option }

let lstsq_factor ?(ridge = 1e-10) m =
  let at = transpose m in
  let ata = mul at m in
  for i = 0 to ata.rows - 1 do
    set ata i i (get ata i i +. ridge)
  done;
  let factor = try Some (cholesky ata) with Failure _ -> None in
  { at; ata; factor }

let lstsq_solve_into f b ~dst =
  match f.factor with
  | Some l ->
      apply_into f.at b ~dst;
      cholesky_solve_into l dst
  | None ->
      (* not positive definite: LU on the normal equations *)
      let x = solve f.ata (apply f.at b) in
      Array.blit x 0 dst 0 (Array.length x)

let lstsq ?ridge m b =
  let f = lstsq_factor ?ridge m in
  let x = Array.make m.cols 0. in
  lstsq_solve_into f b ~dst:x;
  x

let equal ?(eps = 1e-12) x y =
  x.rows = y.rows && x.cols = y.cols
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= eps) x.a y.a

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf "  ";
      Format.fprintf ppf "%g" (get m i j)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
