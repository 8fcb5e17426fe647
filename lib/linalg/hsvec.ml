let dim n = n * n

let sqrt2 = sqrt 2.

let encode_into ~herm a ~dst =
  let n = a.Cmat.rows in
  if n <> a.Cmat.cols then invalid_arg "Hsvec.encode: non-square";
  Cmat.hermitize_into ~dst:herm a;
  let re = herm.Cmat.re and im = herm.Cmat.im in
  let k = ref 0 in
  for i = 0 to n - 1 do
    dst.(!k) <- re.((i * n) + i);
    incr k
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      dst.(!k) <- sqrt2 *. re.((i * n) + j);
      dst.(!k + 1) <- sqrt2 *. im.((i * n) + j);
      k := !k + 2
    done
  done

let encode a =
  let n, _ = Cmat.dims a in
  let v = Array.make (dim n) 0. in
  encode_into ~herm:(Cmat.create n n) a ~dst:v;
  v

let decode n v =
  if Array.length v <> dim n then invalid_arg "Hsvec.decode: bad length";
  let a = Cmat.create n n in
  for i = 0 to n - 1 do
    Cmat.set a i i (Cx.of_float v.(i))
  done;
  let k = ref n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let re = v.(!k) /. sqrt2 and im = v.(!k + 1) /. sqrt2 in
      Cmat.set a i j (Cx.make re im);
      Cmat.set a j i (Cx.make re (-.im));
      k := !k + 2
    done
  done;
  a
