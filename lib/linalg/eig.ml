(* Cyclic Jacobi for complex Hermitian matrices. Each rotation first removes
   the phase of the pivot entry a_pq (a diagonal unitary touching column q),
   then applies the classical real Jacobi rotation that annihilates the now
   real pivot. Eigenvectors are accumulated in [v].

   This is the numerical hot path of the whole library: the validation
   objective projects a candidate input to the PSD cone on every
   evaluation. So the kernels below work directly on the split re/im
   arrays rather than through boxed complex accessors, and the rotation
   helpers are inlined so that no call boxes its float arguments.

   Every computation has an [_into] form that writes into a caller-owned
   [workspace]. It allocates nothing but the sort's closures and one
   boxed norm (41 words at dimension 4). The allocating entry points
   are thin wrappers over these kernels, so there is one copy of the
   arithmetic: a workspace evaluation is bit-identical to a wrapper call,
   down to the order of every sum. That includes the second
   hermitization [project_psd] gets from [hermitian], and both products
   of the spectral recomposition going through [Cmat.mul_into]. *)

type workspace = {
  n : int;
  h : Cmat.t;  (** hermitized input; the sweeps run on its re/im arrays *)
  vre : float array;  (** accumulated rotations, unsorted *)
  vim : float array;
  diag : float array;  (** eigenvalues in sweep order *)
  order : int array;
  values : float array;  (** eigenvalues, ascending *)
  vectors : Cmat.t;  (** matching eigenvectors, as columns *)
  spectrum : Cmat.t;  (** diag (f values) for the recomposition *)
  vd : Cmat.t;  (** vectors * spectrum *)
  vadj : Cmat.t;  (** adjoint vectors *)
  sym : Cmat.t;  (** [project_psd]'s own hermitization of its input *)
}

let workspace n =
  {
    n;
    h = Cmat.create n n;
    vre = Array.make (n * n) 0.;
    vim = Array.make (n * n) 0.;
    diag = Array.make n 0.;
    order = Array.make n 0;
    values = Array.make n 0.;
    vectors = Cmat.create n n;
    spectrum = Cmat.create n n;
    vd = Cmat.create n n;
    vadj = Cmat.create n n;
    sym = Cmat.create n n;
  }

let[@inline] off_diagonal_norm2 re im n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let k = (i * n) + j in
        s := !s +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
      end
    done
  done;
  !s

(* column q *= (pr + i pi); operating on an n x n row-major matrix *)
let[@inline] scale_col re im n q pr pi =
  for k = 0 to n - 1 do
    let idx = (k * n) + q in
    let r = re.(idx) and i = im.(idx) in
    re.(idx) <- (r *. pr) -. (i *. pi);
    im.(idx) <- (r *. pi) +. (i *. pr)
  done

let[@inline] scale_row re im n q pr pi =
  let base = q * n in
  for k = 0 to n - 1 do
    let idx = base + k in
    let r = re.(idx) and i = im.(idx) in
    re.(idx) <- (r *. pr) -. (i *. pi);
    im.(idx) <- (r *. pi) +. (i *. pr)
  done

(* real Givens rotation on columns (p, q): col_p' = c col_p - s col_q,
   col_q' = s col_p + c col_q *)
let[@inline] rotate_cols re im n p q c s =
  for k = 0 to n - 1 do
    let ip = (k * n) + p and iq = (k * n) + q in
    let pr = re.(ip) and pi = im.(ip) in
    let qr = re.(iq) and qi = im.(iq) in
    re.(ip) <- (c *. pr) -. (s *. qr);
    im.(ip) <- (c *. pi) -. (s *. qi);
    re.(iq) <- (s *. pr) +. (c *. qr);
    im.(iq) <- (s *. pi) +. (c *. qi)
  done

let[@inline] rotate_rows re im n p q c s =
  let bp = p * n and bq = q * n in
  for k = 0 to n - 1 do
    let ip = bp + k and iq = bq + k in
    let pr = re.(ip) and pi = im.(ip) in
    let qr = re.(iq) and qi = im.(iq) in
    re.(ip) <- (c *. pr) -. (s *. qr);
    im.(ip) <- (c *. pi) -. (s *. qi);
    re.(iq) <- (s *. pr) +. (c *. qr);
    im.(iq) <- (s *. pi) +. (c *. qi)
  done

let hermitian_into ws a0 =
  let n = a0.Cmat.rows in
  if n <> a0.Cmat.cols then invalid_arg "Eig.hermitian: non-square";
  if n <> ws.n then invalid_arg "Eig.hermitian_into: workspace dimension mismatch";
  Cmat.hermitize_into ~dst:ws.h a0;
  let are = ws.h.Cmat.re and aim = ws.h.Cmat.im in
  let vre = ws.vre and vim = ws.vim in
  Array.fill vre 0 (n * n) 0.;
  Array.fill vim 0 (n * n) 0.;
  for i = 0 to n - 1 do
    vre.((i * n) + i) <- 1.
  done;
  (* read before the sweeps overwrite [h] *)
  let scale = Cmat.frob_norm ws.h +. 1e-300 in
  let tol2 = 1e-13 *. scale *. (1e-13 *. scale) in
  let max_sweeps = 100 in
  let sweep = ref 0 in
  while off_diagonal_norm2 are aim n > tol2 && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let idx_pq = (p * n) + q in
        let rr = are.(idx_pq) and ri = aim.(idx_pq) in
        let r = sqrt ((rr *. rr) +. (ri *. ri)) in
        if r > 1e-300 then begin
          (* remove the phase: col q *= conj(alpha), row q *= alpha *)
          let pr = rr /. r and pi = ri /. r in
          scale_col are aim n q pr (-.pi);
          scale_row are aim n q pr pi;
          scale_col vre vim n q pr (-.pi);
          (* now a_pq is real = r; classical Jacobi angle *)
          let app = are.((p * n) + p) and aqq = are.((q * n) + q) in
          let tau = (aqq -. app) /. (2. *. r) in
          let t =
            if tau >= 0. then 1. /. (tau +. sqrt ((tau *. tau) +. 1.))
            else -1. /. (-.tau +. sqrt ((tau *. tau) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          rotate_cols are aim n p q c s;
          rotate_rows are aim n p q c s;
          rotate_cols vre vim n p q c s
        end
      done
    done
  done;
  for i = 0 to n - 1 do
    ws.diag.(i) <- are.((i * n) + i);
    ws.order.(i) <- i
  done;
  let w = ws.diag in
  Array.sort (fun i j -> compare w.(i) w.(j)) ws.order;
  let vs = ws.vectors in
  for j = 0 to n - 1 do
    ws.values.(j) <- ws.diag.(ws.order.(j))
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let src = (i * n) + ws.order.(j) in
      vs.Cmat.re.((i * n) + j) <- vre.(src);
      vs.Cmat.im.((i * n) + j) <- vim.(src)
    done
  done

let hermitian a0 =
  let ws = workspace (fst (Cmat.dims a0)) in
  hermitian_into ws a0;
  (ws.values, ws.vectors)

(* vectors * diag values * adjoint vectors, from the workspace's eigenpairs
   once their values are mapped *)
let recompose ws ~dst =
  let n = ws.n in
  for i = 0 to n - 1 do
    ws.spectrum.Cmat.re.((i * n) + i) <- ws.values.(i)
  done;
  Cmat.adjoint_into ~dst:ws.vadj ws.vectors;
  Cmat.mul_into ~dst:ws.vd ws.vectors ws.spectrum;
  Cmat.mul_into ~dst ws.vd ws.vadj

let funm_into ws f a ~dst =
  hermitian_into ws a;
  for i = 0 to ws.n - 1 do
    ws.values.(i) <- f ws.values.(i)
  done;
  recompose ws ~dst

let funm f a =
  let n = fst (Cmat.dims a) in
  let dst = Cmat.create n n in
  funm_into (workspace n) f a ~dst;
  dst

let sqrtm_psd a = funm (fun x -> sqrt (Float.max x 0.)) a

(* [funm_into] with the clip inlined, so no eigenvalue is boxed through a
   closure call *)
let project_psd_into ws a ~dst =
  Cmat.hermitize_into ~dst:ws.sym a;
  hermitian_into ws ws.sym;
  for i = 0 to ws.n - 1 do
    ws.values.(i) <- Float.max ws.values.(i) 0.
  done;
  recompose ws ~dst;
  let n = ws.n in
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t +. dst.Cmat.re.((i * n) + i)
  done;
  if !t <= 1e-14 then begin
    (* fully clipped: fall back to the maximally mixed state *)
    Array.fill dst.Cmat.re 0 (n * n) 0.;
    Array.fill dst.Cmat.im 0 (n * n) 0.;
    let c = 1. /. float_of_int n in
    for i = 0 to n - 1 do
      dst.Cmat.re.((i * n) + i) <- c
    done;
    true
  end
  else begin
    let c = 1. /. !t in
    for k = 0 to (n * n) - 1 do
      dst.Cmat.re.(k) <- c *. dst.Cmat.re.(k);
      dst.Cmat.im.(k) <- c *. dst.Cmat.im.(k)
    done;
    false
  end

let project_psd a =
  let n = fst (Cmat.dims a) in
  let dst = Cmat.create n n in
  ignore (project_psd_into (workspace n) a ~dst);
  dst
