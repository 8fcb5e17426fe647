open Linalg

type op = I | X | Y | Z
type t = op array

let single n q o =
  if q < 0 || q >= n then invalid_arg "Pauli.single: qubit out of range";
  let p = Array.make n I in
  p.(q) <- o;
  p

let identity n = Array.make n I
let weight p = Array.fold_left (fun acc o -> if o = I then acc else acc + 1) 0 p

let matrix1 = function
  | I -> Cmat.identity 2
  | X -> Cmat.of_lists [ [ Cx.zero; Cx.one ]; [ Cx.one; Cx.zero ] ]
  | Y ->
      Cmat.of_lists
        [ [ Cx.zero; Cx.neg Cx.i ]; [ Cx.i; Cx.zero ] ]
  | Z ->
      Cmat.of_lists [ [ Cx.one; Cx.zero ]; [ Cx.zero; Cx.of_float (-1.) ] ]

let matrix p =
  let n = Array.length p in
  if n = 0 then invalid_arg "Pauli.matrix: empty string";
  (* qubit n-1 is the leftmost tensor factor *)
  let acc = ref (matrix1 p.(n - 1)) in
  for q = n - 2 downto 0 do
    acc := Cmat.kron !acc (matrix1 p.(q))
  done;
  !acc

let all n =
  let ops = [ I; X; Y; Z ] in
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun o -> List.map (fun r -> o :: r) rest) ops
  in
  List.map Array.of_list (go n)

let rec parity v = if v = 0 then 0 else 1 lxor parity (v land (v - 1))

(* rho = 2^-k sum_P <P> P. Row r of a string has its one nonzero at column
   r xor (X/Y letters), with phase (-i)^#Y (-1)^|r & (Y/Z letters)|, a
   power of i: each nonzero string adds exactly +-w to one component of
   dk entries, starting from +0, so no entry is ever -0. *)
let density_of_expectations keep expectation =
  let keep = Array.of_list keep in
  let k = Array.length keep in
  let dk = 1 lsl k in
  let rho = Cmat.create dk dk in
  let rre = rho.Cmat.re and rim = rho.Cmat.im in
  for sigma = 0 to (1 lsl (2 * k)) - 1 do
    (* register masks for [expectation]; local masks for the matrix *)
    let x = ref 0 and z = ref 0 and lx = ref 0 and lz = ref 0 and ys = ref 0 in
    for j = 0 to k - 1 do
      let bit = 1 lsl keep.(j) and local = 1 lsl j in
      match (sigma lsr (2 * j)) land 3 with
      | 1 ->
          x := !x lor bit;
          lx := !lx lor local
      | 2 ->
          x := !x lor bit;
          z := !z lor bit;
          lx := !lx lor local;
          lz := !lz lor local;
          incr ys
      | 3 ->
          z := !z lor bit;
          lz := !lz lor local
      | _ -> ()
    done;
    let e = expectation ~x:!x ~z:!z in
    if Float.abs e > 0. then begin
      let w = e /. float_of_int dk in
      for r = 0 to dk - 1 do
        let p = (r * dk) + (r lxor !lx) in
        match ((3 * !ys) + (2 * parity (r land !lz))) land 3 with
        | 0 -> rre.(p) <- rre.(p) +. w
        | 1 -> rim.(p) <- rim.(p) +. w
        | 2 -> rre.(p) <- rre.(p) -. w
        | _ -> rim.(p) <- rim.(p) -. w
      done
    end
  done;
  rho

(* tr(P rho): a Pauli string has exactly one nonzero entry per row r, at
   column r XOR flipmask, with a phase that is a product of per-qubit factors
   (Z contributes (-1)^bit, Y contributes +/- i). *)
let expectation_dm p rho =
  let n = Array.length p in
  let dim = 1 lsl n in
  let rows, cols = Cmat.dims rho in
  if rows <> dim || cols <> dim then
    invalid_arg "Pauli.expectation_dm: dimension mismatch";
  let flipmask = ref 0 in
  Array.iteri (fun q o -> if o = X || o = Y then flipmask := !flipmask lor (1 lsl q)) p;
  let total = ref Cx.zero in
  for r = 0 to dim - 1 do
    let c = r lxor !flipmask in
    let phase = ref Cx.one in
    Array.iteri
      (fun q o ->
        let bit = (r lsr q) land 1 in
        match o with
        | I | X -> ()
        | Z -> if bit = 1 then phase := Cx.neg !phase
        | Y ->
            phase :=
              if bit = 1 then Cx.mul !phase Cx.i
              else Cx.mul !phase (Cx.neg Cx.i))
      p;
    total := Cx.add !total (Cx.mul !phase (Cmat.get rho c r))
  done;
  Cx.re !total

(* single-qubit products: (a, b) -> (exponent of i, result) under the
   Hermitian convention (XY = iZ, YZ = iX, ZX = iY) *)
let mul1 a b =
  match (a, b) with
  | I, o | o, I -> (0, o)
  | X, X | Y, Y | Z, Z -> (0, I)
  | X, Y -> (1, Z)
  | Y, X -> (3, Z)
  | Y, Z -> (1, X)
  | Z, Y -> (3, X)
  | Z, X -> (1, Y)
  | X, Z -> (3, Y)

let mul a b =
  if Array.length a <> Array.length b then
    invalid_arg "Pauli.mul: length mismatch";
  let phase = ref 0 in
  let result =
    Array.init (Array.length a) (fun q ->
        let ph, o = mul1 a.(q) b.(q) in
        phase := (!phase + ph) mod 4;
        o)
  in
  (!phase, result)

let commute a b =
  let pab, _ = mul a b and pba, _ = mul b a in
  pab = pba

let of_string s =
  let n = String.length s in
  Array.init n (fun q ->
      match s.[n - 1 - q] with
      | 'I' | 'i' -> I
      | 'X' | 'x' -> X
      | 'Y' | 'y' -> Y
      | 'Z' | 'z' -> Z
      | c -> invalid_arg (Printf.sprintf "Pauli.of_string: bad char %c" c))

let to_string p =
  let n = Array.length p in
  String.init n (fun k ->
      match p.(n - 1 - k) with I -> 'I' | X -> 'X' | Y -> 'Y' | Z -> 'Z')

let pp ppf p = Format.pp_print_string ppf (to_string p)
