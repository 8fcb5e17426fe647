(* Sum-over-stabilizers (stabilizer-rank) engine for near-Clifford
   circuits.

   The state is kept as  |psi> = sum_i c_i X^{x_i} Z^{z_i} |phi>  with
   ONE shared stabilizer tableau |phi> and a list of weighted Pauli
   frames (c_i, x_i, z_i) — bitmask X/Z words in the *product*
   convention (all i-phases folded into c_i):

   - a Clifford gate U updates the tableau (U|phi>) and conjugates each
     frame Pauli (P_i <- U P_i U+), a few bit operations per branch;
   - a non-Clifford gate that splits as  g = alpha I + beta Q  (Q a
     single-qubit Pauli: t/tdg/p/u1/rz about Z, rx about X, ry about Y,
     sx/sy) doubles the branch list by left-multiplying Q onto each
     frame, then merges duplicate (x, z) words.

   k rank-decomposable non-Clifford gates therefore cost at most 2^k
   weighted frames, and every tracepoint expectation is recovered
   *exactly* (no sampling): for a Hermitian Pauli M,

     <psi| M |psi> = sum_{j,i} conj(c_j) c_i <phi| P_j^+ M P_i |phi>

   where each <phi| . |phi> is a +1/-1/0 stabilizer expectation
   ([Stabilizer.Tableau.expectation_pauli]), memoized per tracepoint.
   Reduced densities come from the Pauli expansion
   rho = 2^{-s} sum_sigma <M_sigma> M_sigma over the 4^s Pauli words on
   the kept qubits. Registers are capped at 62 qubits (bitmask-bound). *)

open Linalg

let max_qubits = 62
let prune = 1e-24
let branch_cap = 4096

type t = {
  n : int;
  tab : Stabilizer.Tableau.t;
  mutable branches : (Cx.t * int * int) array;
      (* (coefficient, X word, Z word), sorted by (x, z) *)
}

let make n input =
  if n <= 0 || n > max_qubits then
    invalid_arg "Rank.make: unsupported qubit count";
  if input < 0 || (n < max_qubits && input lsr n <> 0) then
    invalid_arg "Rank.make: index out of range";
  let tab = Stabilizer.Tableau.make n in
  for q = 0 to n - 1 do
    if (input lsr q) land 1 = 1 then Stabilizer.Tableau.x tab q
  done;
  { n; tab; branches = [| (Cx.one, 0, 0) |] }

let num_qubits t = t.n
let branch_count t = Array.length t.branches

(* ------------------------ Clifford conjugation ------------------------ *)

(* P <- U P U+ for a frame P = X^x Z^z: the X word and Z word are
   conjugated letter-by-letter; the only subtlety is the sign picked up
   re-sorting the result back into X-then-Z form. Rules verified against
   the 2x2/4x4 matrices in [Qstate.Gates]. *)
let conj_gate (g : Circuit.Gate.t) (c, x, z) =
  let name = g.Circuit.Gate.name in
  match (name, g.Circuit.Gate.controls, g.Circuit.Gate.targets) with
  | "id", [], [ _ ] -> (c, x, z)
  | "h", [], [ q ] ->
      let bit = 1 lsl q in
      let xq = x land bit <> 0 and zq = z land bit <> 0 in
      let c = if xq && zq then Cx.neg c else c in
      let x = if zq then x lor bit else x land lnot bit in
      let z = if xq then z lor bit else z land lnot bit in
      (c, x, z)
  | "s", [], [ q ] ->
      let bit = 1 lsl q in
      if x land bit <> 0 then (Cx.mul c Cx.i, x, z lxor bit) else (c, x, z)
  | "sdg", [], [ q ] ->
      let bit = 1 lsl q in
      if x land bit <> 0 then (Cx.mul c (Cx.neg Cx.i), x, z lxor bit)
      else (c, x, z)
  | "x", [], [ q ] ->
      let bit = 1 lsl q in
      ((if z land bit <> 0 then Cx.neg c else c), x, z)
  | "y", [], [ q ] ->
      let bit = 1 lsl q in
      let flips = (x land bit <> 0) <> (z land bit <> 0) in
      ((if flips then Cx.neg c else c), x, z)
  | "z", [], [ q ] ->
      let bit = 1 lsl q in
      ((if x land bit <> 0 then Cx.neg c else c), x, z)
  | "x", [ ctl ], [ tgt ] ->
      (* CX: X_c -> X_c X_t, Z_t -> Z_c Z_t, no sign *)
      let bc = 1 lsl ctl and bt = 1 lsl tgt in
      let x = if x land bc <> 0 then x lxor bt else x in
      let z = if z land bt <> 0 then z lxor bc else z in
      (c, x, z)
  | "z", [ a ], [ b ] ->
      (* CZ: X_a -> X_a Z_b, X_b -> Z_a X_b; sign when both X's present *)
      let ba = 1 lsl a and bb = 1 lsl b in
      let xa = x land ba <> 0 and xb = x land bb <> 0 in
      let z = if xa then z lxor bb else z in
      let z = if xb then z lxor ba else z in
      ((if xa && xb then Cx.neg c else c), x, z)
  | "swap", [], [ a; b ] ->
      let ba = 1 lsl a and bb = 1 lsl b in
      let swap_bits w =
        let va = w land ba <> 0 and vb = w land bb <> 0 in
        let w = if vb then w lor ba else w land lnot ba in
        if va then w lor bb else w land lnot bb
      in
      (c, swap_bits x, swap_bits z)
  | _ -> invalid_arg ("Rank: non-Clifford conjugation of " ^ name)

(* ------------------------- non-Clifford splits ------------------------ *)

type axis = AX | AY | AZ

(* g = alpha I + beta Q on the target qubit; matches the matrices in
   [Qstate.Gates] exactly *)
let decompose name params =
  let half_phase lam =
    (* diag(1, e^{i lam}) *)
    let e = Cx.exp_i lam in
    ( Cx.scale 0.5 (Cx.add Cx.one e),
      Cx.scale 0.5 (Cx.sub Cx.one e),
      AZ )
  in
  match (name, params) with
  | "t", [] -> half_phase (Float.pi /. 4.)
  | "tdg", [] -> half_phase (-.Float.pi /. 4.)
  | ("p" | "u1"), [ lam ] -> half_phase lam
  | "rz", [ th ] ->
      (Cx.make (cos (th /. 2.)) 0., Cx.make 0. (-.sin (th /. 2.)), AZ)
  | "rx", [ th ] ->
      (Cx.make (cos (th /. 2.)) 0., Cx.make 0. (-.sin (th /. 2.)), AX)
  | "ry", [ th ] ->
      (Cx.make (cos (th /. 2.)) 0., Cx.make 0. (-.sin (th /. 2.)), AY)
  | "sx", [] -> (Cx.make 0.5 0.5, Cx.make 0.5 (-0.5), AX)
  | "sy", [] -> (Cx.make 0.5 0.5, Cx.make 0.5 (-0.5), AY)
  | name, _ -> invalid_arg ("Rank: gate not rank-decomposable: " ^ name)

(* left-multiply the axis Pauli on qubit q onto the frame X^x Z^z *)
let left_mul axis q (c, x, z) =
  let bit = 1 lsl q in
  match axis with
  | AZ ->
      (* Z X^x = (-1)^{x_q} X^x Z *)
      (((if x land bit <> 0 then Cx.neg c else c), x, z lxor bit) : Cx.t * int * int)
  | AX -> (c, x lxor bit, z)
  | AY ->
      (* Y = i X Z: apply Z first (sign from x_q), then X, phase i *)
      let c = Cx.mul c Cx.i in
      let c = if x land bit <> 0 then Cx.neg c else c in
      (c, x lxor bit, z lxor bit)

let merge_branches branches =
  let arr = Array.of_list branches in
  Array.sort
    (fun (_, x1, z1) (_, x2, z2) ->
      if x1 <> x2 then compare x1 x2 else compare z1 z2)
    arr;
  let out = ref [] in
  let i = ref 0 in
  let m = Array.length arr in
  while !i < m do
    let _, x, z = arr.(!i) in
    let acc = ref Cx.zero in
    while
      !i < m
      && (let _, x', z' = arr.(!i) in
          x' = x && z' = z)
    do
      let c, _, _ = arr.(!i) in
      acc := Cx.add !acc c;
      incr i
    done;
    if Cx.norm2 !acc > prune then out := (!acc, x, z) :: !out
  done;
  let out = Array.of_list (List.rev !out) in
  if Array.length out > branch_cap then
    invalid_arg "Rank: branch cap exceeded";
  out

let apply_gate (g : Circuit.Gate.t) t =
  if Analysis.Classify.gate_is_clifford g then begin
    t.branches <- Array.map (conj_gate g) t.branches;
    Stabilizer.Tableau.apply_gate g t.tab
  end
  else begin
    match (g.Circuit.Gate.controls, g.Circuit.Gate.targets) with
    | [], [ q ] ->
        let alpha, beta, axis = decompose g.Circuit.Gate.name g.Circuit.Gate.params in
        if Obs.enabled () then Obs.Metrics.counter_add "rank_splits_total" 1;
        let split =
          Array.fold_left
            (fun acc ((c, x, z) as br) ->
              let c', x', z' = left_mul axis q br in
              (Cx.mul beta c', x', z') :: (Cx.mul alpha c, x, z) :: acc)
            [] t.branches
        in
        t.branches <- merge_branches (List.rev split)
    | _ ->
        invalid_arg
          ("Rank: gate not rank-decomposable: " ^ g.Circuit.Gate.name)
  end

(* --------------------- expectations & densities ----------------------- *)

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

(* <psi| M |psi> for the Hermitian Pauli M = i^{#Y} X^{mx} Z^{mz}
   (letter masks: Y sets both bits). [memo] caches the tableau
   expectation per resulting (x, z) word. *)
let expectation_masks t memo ~mx ~mz =
  let nb = Array.length t.branches in
  let ys = popcount (mx land mz) in
  let total = ref Cx.zero in
  for j = 0 to nb - 1 do
    let cj, xj, zj = t.branches.(j) in
    (* P_j^+ = (-1)^{|x_j & z_j|} X^{x_j} Z^{z_j} *)
    let sign_j = popcount (xj land zj) land 1 in
    for i = 0 to nb - 1 do
      let ci, xi, zi = t.branches.(i) in
      (* W = P_j^+ M P_i, accumulated left to right in the product
         convention: X^{x1}Z^{z1} X^{x2}Z^{z2}
                    = (-1)^{|z1 & x2|} X^{x1+x2} Z^{z1+z2} *)
      let signs = ref (sign_j + popcount (zj land mx)) in
      let xw = xj lxor mx and zw = zj lxor mz in
      signs := !signs + popcount (zw land xi);
      let xw = xw lxor xi and zw = zw lxor zi in
      (* convert back to the Hermitian letter word L(xw, zw):
         X^x Z^z = i^{-|x & z|} L *)
      let lw = popcount (xw land zw) in
      let e =
        match Hashtbl.find_opt memo (xw, zw) with
        | Some e -> e
        | None ->
            let e = Stabilizer.Tableau.expectation_pauli t.tab ~x:xw ~z:zw in
            Hashtbl.add memo (xw, zw) e;
            e
      in
      if e <> 0 then begin
        (* phase = (-1)^{signs} * i^{#Y of M} * i^{-lw} *)
        let quarter = ((ys - lw) mod 4) + 4 in
        let quarter = (quarter + if !signs land 1 = 1 then 2 else 0) land 3 in
        let ph =
          match quarter with
          | 0 -> Cx.one
          | 1 -> Cx.i
          | 2 -> Cx.neg Cx.one
          | _ -> Cx.neg Cx.i
        in
        let term = Cx.mul (Cx.mul (Cx.conj cj) ci) ph in
        total := Cx.add !total (if e = 1 then term else Cx.neg term)
      end
    done
  done;
  Cx.re !total

(* rho on [keep] via the Pauli expansion: bit j of the reduced index is
   [List.nth keep j], matching [Statevec.reduced_density] *)
let reduced_density t keep =
  List.iter
    (fun q ->
      if q < 0 || q >= t.n then
        invalid_arg "Rank.reduced_density: qubit out of range")
    keep;
  let memo = Hashtbl.create 64 in
  Qstate.Pauli.density_of_expectations keep (fun ~x ~z ->
      expectation_masks t memo ~mx:x ~mz:z)
