(* Sparse statevector engine: sorted-coordinate (index, amplitude) runs.

   The state is kept as three parallel arrays (idx, re, im) sorted by
   basis index with unique entries; amplitudes with |a|^2 <= cutoff are
   pruned eagerly, so [size] is the occupied support. Gate kernels touch
   only occupied pairs:
   - diagonal gates (z/s/t/rz/p/...) rotate phases in place — the index
     set, and hence the sort order, is unchanged;
   - x/y/swap and general 1q gates pair each occupied index with its
     partner (found by binary search), emit the new amplitudes into a
     scratch buffer and re-sort once per gate;
   - controls gate the kernel per entry (an entry with unsatisfied
     controls passes through).

   Memory and time scale with the occupied support, not 2^n, so
   low-occupancy programs (Bernstein-Vazirani, QRAM reads, lock
   circuits) run at 28+ qubits where the dense engine cannot even
   allocate. Indices are OCaml ints: up to 62 qubits. *)

open Linalg

type t = {
  n : int;
  mutable size : int;
  mutable idx : int array;
  mutable re : float array;
  mutable im : float array;
  mutable peak : int;  (* largest support since [basis] *)
}

let cutoff = 1e-12
let max_qubits = 62

let basis n k =
  if n <= 0 || n > max_qubits then
    invalid_arg "Sparse.basis: unsupported qubit count";
  if k < 0 || (n < max_qubits && k lsr n <> 0) then
    invalid_arg "Sparse.basis: index out of range";
  { n; size = 1; idx = [| k |]; re = [| 1. |]; im = [| 0. |]; peak = 1 }

let support t = t.size
let peak_support t = t.peak

(* position of basis index [k] among the occupied entries, or -1 *)
let find t k =
  let lo = ref 0 and hi = ref (t.size - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.idx.(mid) in
    if v = k then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < k then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let amplitude t k =
  let p = find t k in
  if p < 0 then Cx.zero else Cx.make t.re.(p) t.im.(p)

let entries t =
  List.init t.size (fun p -> (t.idx.(p), Cx.make t.re.(p) t.im.(p)))

let to_statevec t =
  let st = Qstate.Statevec.zero t.n in
  Qstate.Statevec.set_amplitude st 0 Cx.zero;
  for p = 0 to t.size - 1 do
    Qstate.Statevec.set_amplitude st t.idx.(p) (Cx.make t.re.(p) t.im.(p))
  done;
  st

(* scratch output buffer: entries are emitted pair-by-pair (unsorted),
   pruned at the cutoff, then sorted back into coordinate order *)
type buf = {
  mutable bsize : int;
  mutable bidx : int array;
  mutable bre : float array;
  mutable bim : float array;
}

let buf_make cap =
  let cap = max cap 4 in
  { bsize = 0; bidx = Array.make cap 0; bre = Array.make cap 0.; bim = Array.make cap 0. }

let buf_push b k r i =
  if (r *. r) +. (i *. i) > cutoff then begin
    if b.bsize = Array.length b.bidx then begin
      let cap = 2 * b.bsize in
      let idx = Array.make cap 0 and re = Array.make cap 0. and im = Array.make cap 0. in
      Array.blit b.bidx 0 idx 0 b.bsize;
      Array.blit b.bre 0 re 0 b.bsize;
      Array.blit b.bim 0 im 0 b.bsize;
      b.bidx <- idx;
      b.bre <- re;
      b.bim <- im
    end;
    b.bidx.(b.bsize) <- k;
    b.bre.(b.bsize) <- r;
    b.bim.(b.bsize) <- i;
    b.bsize <- b.bsize + 1
  end

(* install the (unique-index) buffer contents as the new state, sorted *)
let buf_commit b t =
  let m = b.bsize in
  let order = Array.init m Fun.id in
  Array.sort (fun a c -> compare b.bidx.(a) b.bidx.(c)) order;
  if Array.length t.idx < m then begin
    t.idx <- Array.make m 0;
    t.re <- Array.make m 0.;
    t.im <- Array.make m 0.
  end;
  for p = 0 to m - 1 do
    let s = order.(p) in
    t.idx.(p) <- b.bidx.(s);
    t.re.(p) <- b.bre.(s);
    t.im.(p) <- b.bim.(s)
  done;
  t.size <- m

let control_mask controls = List.fold_left (fun m c -> m lor (1 lsl c)) 0 controls

let check_q t q =
  if q < 0 || q >= t.n then invalid_arg "Sparse: qubit out of range"

(* diagonal gate: multiply each gated entry by u00 or u11 in place; the
   index set is untouched so no re-sort (or prune: |d| = 1) is needed *)
let apply_diagonal ~controls u q t =
  check_q t q;
  let cmask = control_mask controls in
  let d0r = Cmat.get u 0 0 |> Cx.re and d0i = Cmat.get u 0 0 |> Cx.im in
  let d1r = Cmat.get u 1 1 |> Cx.re and d1i = Cmat.get u 1 1 |> Cx.im in
  let bit = 1 lsl q in
  for p = 0 to t.size - 1 do
    let k = t.idx.(p) in
    if k land cmask = cmask then begin
      let dr, di = if k land bit = 0 then (d0r, d0i) else (d1r, d1i) in
      let ar = t.re.(p) and ai = t.im.(p) in
      t.re.(p) <- (dr *. ar) -. (di *. ai);
      t.im.(p) <- (dr *. ai) +. (di *. ar)
    end
  done

(* general (controlled) 1q gate: each gated entry is paired with its
   partner at index^bit; the pair is processed once, with explicit
   zeros for an unoccupied partner *)
let apply1 ~controls u q t =
  check_q t q;
  List.iter
    (fun c ->
      if c < 0 || c >= t.n || c = q then invalid_arg "Sparse.apply1: bad control")
    controls;
  let cmask = control_mask controls in
  let u00r = Cmat.get u 0 0 |> Cx.re and u00i = Cmat.get u 0 0 |> Cx.im in
  let u01r = Cmat.get u 0 1 |> Cx.re and u01i = Cmat.get u 0 1 |> Cx.im in
  let u10r = Cmat.get u 1 0 |> Cx.re and u10i = Cmat.get u 1 0 |> Cx.im in
  let u11r = Cmat.get u 1 1 |> Cx.re and u11i = Cmat.get u 1 1 |> Cx.im in
  let bit = 1 lsl q in
  let out = buf_make ((2 * t.size) + 4) in
  let consumed = Array.make (max t.size 1) false in
  for p = 0 to t.size - 1 do
    if not consumed.(p) then begin
      let k = t.idx.(p) in
      if k land cmask <> cmask then buf_push out k t.re.(p) t.im.(p)
      else begin
        let i = k land lnot bit in
        let j = i lor bit in
        let ar, ai, br, bi =
          if k land bit = 0 then begin
            (* partner j > k, if occupied it lies ahead of p *)
            let pj = find t j in
            if pj >= 0 then begin
              consumed.(pj) <- true;
              (t.re.(p), t.im.(p), t.re.(pj), t.im.(pj))
            end
            else (t.re.(p), t.im.(p), 0., 0.)
          end
          else
            (* partner i < k would already have consumed us *)
            (0., 0., t.re.(p), t.im.(p))
        in
        buf_push out i
          ((u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi))
          ((u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br));
        buf_push out j
          ((u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi))
          ((u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br))
      end
    end
  done;
  buf_commit out t

let apply_swap a b t =
  check_q t a;
  check_q t b;
  if a = b then invalid_arg "Sparse.apply_swap: identical qubits";
  let ba = 1 lsl a and bb = 1 lsl b in
  let out = buf_make t.size in
  for p = 0 to t.size - 1 do
    let k = t.idx.(p) in
    let va = (k lsr a) land 1 and vb = (k lsr b) land 1 in
    let k' = k land lnot ba land lnot bb lor (vb lsl a) lor (va lsl b) in
    buf_push out k' t.re.(p) t.im.(p)
  done;
  buf_commit out t

let apply_gate (g : Circuit.Gate.t) t =
  if Obs.enabled () then
    Obs.Metrics.counter_add
      ~labels:[ ("kind", g.Circuit.Gate.name) ]
      "sparse_gates_total" 1;
  (match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
  | "swap", [ a; b ] ->
      if g.Circuit.Gate.controls <> [] then
        invalid_arg "Sparse: controlled swap unsupported";
      apply_swap a b t
  | name, [ tgt ] ->
      let u = Qstate.Gates.by_name name g.Circuit.Gate.params in
      if Analysis.Classify.gate_is_diagonal g then
        apply_diagonal ~controls:g.Circuit.Gate.controls u tgt t
      else apply1 ~controls:g.Circuit.Gate.controls u tgt t
  | _ -> invalid_arg "Sparse: malformed gate");
  t.peak <- max t.peak t.size

let run c ~input =
  let t = basis (Circuit.num_qubits c) input in
  List.iter
    (function
      | Circuit.Instr.Gate g -> apply_gate g t
      | Circuit.Instr.Tracepoint _ | Circuit.Instr.Barrier _ -> ()
      | _ -> invalid_arg "Sparse.run: non-unitary instruction")
    (Circuit.instrs c);
  t

(* phase factor taken from the largest amplitude of [a], then every
   entry of either state compared under it *)
let equal ?(eps = 1e-9) a b =
  a.n = b.n
  &&
  let best = ref None in
  List.iter
    (fun (k, v) ->
      match !best with
      | Some (_, bv) when Cx.norm2 bv >= Cx.norm2 v -> ()
      | _ -> best := Some (k, v))
    (entries a);
  match !best with
  | None -> b.size = 0
  | Some (k, va) ->
      let vb = amplitude b k in
      Cx.norm vb > eps
      &&
      let phase = Cx.div va vb in
      Float.abs (Cx.norm phase -. 1.) < 1e-6
      && List.for_all
           (fun (k, va) -> Cx.equal ~eps va (Cx.mul phase (amplitude b k)))
           (entries a)
      && List.for_all
           (fun (k, vb) -> Cx.equal ~eps (amplitude a k) (Cx.mul phase vb))
           (entries b)

(* ------------------------- reduced densities -------------------------- *)

(* rho[a,b] = sum over environment keys e of psi_{a,e} conj(psi_{b,e}):
   sort the occupied entries by (environment bits, kept sub-index) and
   accumulate one outer product per contiguous environment group. Cost
   is sum of group sizes squared — at most support^2, independent of n.
   Bit j of the reduced index corresponds to keep[j], matching
   [Statevec.reduced_density]. *)
let reduced_density t keep =
  List.iter
    (fun q ->
      if q < 0 || q >= t.n then
        invalid_arg "Sparse.reduced_density: qubit out of range")
    keep;
  let keep_arr = Array.of_list keep in
  let nk = Array.length keep_arr in
  let dk = 1 lsl nk in
  let keep_mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 keep_arr in
  let m = t.size in
  let env = Array.make (max m 1) 0 and red = Array.make (max m 1) 0 in
  for p = 0 to m - 1 do
    let k = t.idx.(p) in
    env.(p) <- k land lnot keep_mask;
    let a = ref 0 in
    Array.iteri
      (fun j q -> if (k lsr q) land 1 = 1 then a := !a lor (1 lsl j))
      keep_arr;
    red.(p) <- !a
  done;
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      if env.(a) <> env.(b) then compare env.(a) env.(b)
      else compare red.(a) red.(b))
    order;
  let rho = Cmat.create dk dk in
  let rre = rho.Cmat.re and rim = rho.Cmat.im in
  let i = ref 0 in
  while !i < m do
    let e = env.(order.(!i)) in
    let j = ref !i in
    while !j < m && env.(order.(!j)) = e do
      incr j
    done;
    for a = !i to !j - 1 do
      let pa = order.(a) in
      let ar = t.re.(pa) and ai = t.im.(pa) in
      let base = red.(pa) * dk in
      for b = !i to !j - 1 do
        let pb = order.(b) in
        let br = t.re.(pb) and bi = t.im.(pb) in
        (* psi_a * conj(psi_b) *)
        rre.(base + red.(pb)) <- rre.(base + red.(pb)) +. (ar *. br) +. (ai *. bi);
        rim.(base + red.(pb)) <- rim.(base + red.(pb)) +. (ai *. br) -. (ar *. bi)
      done
    done;
    i := !j
  done;
  rho
