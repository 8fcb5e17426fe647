type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let make re im : t = { Complex.re; im }
let re (z : t) = z.Complex.re
let im (z : t) = z.Complex.im
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let conj = Complex.conj
let scale c (z : t) : t = { Complex.re = c *. z.Complex.re; im = c *. z.Complex.im }
let norm = Complex.norm
let norm2 = Complex.norm2
let arg = Complex.arg
let exp_i theta : t = { Complex.re = cos theta; im = sin theta }
let of_float x : t = { Complex.re = x; im = 0. }

let equal ?(eps = 1e-12) (a : t) (b : t) =
  Float.abs (a.Complex.re -. b.Complex.re) <= eps
  && Float.abs (a.Complex.im -. b.Complex.im) <= eps

let pp ppf (z : t) =
  if z.Complex.im >= 0. then Format.fprintf ppf "%g+%gi" z.Complex.re z.Complex.im
  else Format.fprintf ppf "%g-%gi" z.Complex.re (-.z.Complex.im)
