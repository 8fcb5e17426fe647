(* Aaronson & Gottesman, "Improved simulation of stabilizer circuits"
   (PRA 70, 052328). Rows 0..n-1 are destabilizers, n..2n-1 stabilizers,
   plus one scratch row for deterministic measurements. Row i represents
   the Pauli (-1)^r(i) * prod_j (X_j^x(i,j) Z_j^z(i,j)) under the XZ product
   convention tracked by the g-function below. *)

type t = {
  n : int;
  xs : bool array array;  (* (2n+1) x n *)
  zs : bool array array;
  rs : bool array;  (* 2n+1 *)
}

let make n =
  if n <= 0 then invalid_arg "Tableau.make: need at least one qubit";
  let rows = (2 * n) + 1 in
  let t =
    {
      n;
      xs = Array.init rows (fun _ -> Array.make n false);
      zs = Array.init rows (fun _ -> Array.make n false);
      rs = Array.make rows false;
    }
  in
  for i = 0 to n - 1 do
    t.xs.(i).(i) <- true;
    (* destabilizer X_i *)
    t.zs.(n + i).(i) <- true (* stabilizer Z_i *)
  done;
  t

let num_qubits t = t.n

let copy t =
  {
    n = t.n;
    xs = Array.map Array.copy t.xs;
    zs = Array.map Array.copy t.zs;
    rs = Array.copy t.rs;
  }

let check_q t q =
  if q < 0 || q >= t.n then invalid_arg "Tableau: qubit out of range"

let h t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    let xi = t.xs.(i).(q) and zi = t.zs.(i).(q) in
    if xi && zi then t.rs.(i) <- not t.rs.(i);
    t.xs.(i).(q) <- zi;
    t.zs.(i).(q) <- xi
  done

let s t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    let xi = t.xs.(i).(q) and zi = t.zs.(i).(q) in
    if xi && zi then t.rs.(i) <- not t.rs.(i);
    t.zs.(i).(q) <- zi <> xi
  done

let sdg t q =
  (* S^3 = S† *)
  s t q;
  s t q;
  s t q

let z t q =
  (* Z = S S *)
  s t q;
  s t q

let x t q =
  check_q t q;
  (* X flips the sign of rows containing Z on q *)
  for i = 0 to (2 * t.n) - 1 do
    if t.zs.(i).(q) then t.rs.(i) <- not t.rs.(i)
  done

let y t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    if t.zs.(i).(q) <> t.xs.(i).(q) then t.rs.(i) <- not t.rs.(i)
  done

let cx t a b =
  check_q t a;
  check_q t b;
  if a = b then invalid_arg "Tableau.cx: identical qubits";
  for i = 0 to (2 * t.n) - 1 do
    let xa = t.xs.(i).(a) and za = t.zs.(i).(a) in
    let xb = t.xs.(i).(b) and zb = t.zs.(i).(b) in
    (* r ^= x_a z_b (x_b XOR z_a XOR 1) *)
    if xa && zb && xb = za then t.rs.(i) <- not t.rs.(i);
    t.xs.(i).(b) <- xb <> xa;
    t.zs.(i).(a) <- za <> zb
  done

let cz t a b =
  h t b;
  cx t a b;
  h t b

let swap t a b =
  cx t a b;
  cx t b a;
  cx t a b

(* exponent of i (mod 4) when multiplying single-qubit Paulis
   (x1,z1) * (x2,z2) in the XZ convention *)
let g x1 z1 x2 z2 =
  match (x1, z1) with
  | false, false -> 0
  | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
  | true, false -> if z2 then (if x2 then 1 else -1) else 0
  | false, true -> if x2 then (if z2 then -1 else 1) else 0

(* row h := row h * row i *)
let rowsum t hrow irow =
  let acc = ref 0 in
  for j = 0 to t.n - 1 do
    acc := !acc + g t.xs.(irow).(j) t.zs.(irow).(j) t.xs.(hrow).(j) t.zs.(hrow).(j)
  done;
  let total =
    (2 * (if t.rs.(hrow) then 1 else 0)) + (2 * if t.rs.(irow) then 1 else 0) + !acc
  in
  let m = ((total mod 4) + 4) mod 4 in
  (* for valid tableaus m is always 0 or 2 *)
  t.rs.(hrow) <- m = 2;
  for j = 0 to t.n - 1 do
    t.xs.(hrow).(j) <- t.xs.(hrow).(j) <> t.xs.(irow).(j);
    t.zs.(hrow).(j) <- t.zs.(hrow).(j) <> t.zs.(irow).(j)
  done

let measure rng t q =
  check_q t q;
  let n = t.n in
  (* a stabilizer anticommuting with Z_q? *)
  let p = ref (-1) in
  for i = n to (2 * n) - 1 do
    if !p = -1 && t.xs.(i).(q) then p := i
  done;
  if !p >= 0 then begin
    let p = !p in
    for i = 0 to (2 * n) - 1 do
      if i <> p && t.xs.(i).(q) then rowsum t i p
    done;
    (* old stabilizer becomes the destabilizer *)
    let d = p - n in
    Array.blit t.xs.(p) 0 t.xs.(d) 0 n;
    Array.blit t.zs.(p) 0 t.zs.(d) 0 n;
    t.rs.(d) <- t.rs.(p);
    Array.fill t.xs.(p) 0 n false;
    Array.fill t.zs.(p) 0 n false;
    let outcome = Stats.Rng.bool rng in
    t.rs.(p) <- outcome;
    t.zs.(p).(q) <- true;
    if outcome then 1 else 0
  end
  else begin
    (* deterministic: accumulate into the scratch row *)
    let scratch = 2 * n in
    Array.fill t.xs.(scratch) 0 n false;
    Array.fill t.zs.(scratch) 0 n false;
    t.rs.(scratch) <- false;
    for i = 0 to n - 1 do
      if t.xs.(i).(q) then rowsum t scratch (i + n)
    done;
    if t.rs.(scratch) then 1 else 0
  end

let expectation_z t q =
  check_q t q;
  let n = t.n in
  let random = ref false in
  for i = n to (2 * n) - 1 do
    if t.xs.(i).(q) then random := true
  done;
  if !random then 0
  else begin
    let probe = copy t in
    let outcome = measure (Stats.Rng.make 0) probe q in
    if outcome = 0 then 1 else -1
  end

(* <M> for a Hermitian Pauli M given as X/Z bitmasks (bit q of [x]/[z]
   set = letter X/Z on qubit q; both = Y). M anticommuting with any
   stabilizer generator gives 0. Otherwise M lies in +-(stabilizer
   group): writing B = {i : destabilizer D_i anticommutes with M}, the
   product prod_{i in B} S_i has the same X/Z bits as M, and
   accumulating those rows into the zeroed scratch row (the same trick
   as the deterministic branch of [measure]) recovers its sign. *)
let expectation_pauli t ~x ~z =
  let n = t.n in
  if n > 62 then invalid_arg "Tableau.expectation_pauli: more than 62 qubits";
  let anticommutes row =
    let p = ref false in
    for j = 0 to n - 1 do
      let xm = (x lsr j) land 1 = 1 and zm = (z lsr j) land 1 = 1 in
      if (t.xs.(row).(j) && zm) <> (t.zs.(row).(j) && xm) then p := not !p
    done;
    !p
  in
  (* one anticommuting stabilizer makes the outcome random *)
  let rec random i = i < 2 * n && (anticommutes i || random (i + 1)) in
  if random n then 0
  else begin
    let scratch = 2 * n in
    Array.fill t.xs.(scratch) 0 n false;
    Array.fill t.zs.(scratch) 0 n false;
    t.rs.(scratch) <- false;
    for i = 0 to n - 1 do
      if anticommutes i then rowsum t scratch (i + n)
    done;
    if t.rs.(scratch) then -1 else 1
  end

let reduced_density t keep =
  List.iter
    (fun q ->
      if q < 0 || q >= t.n then
        invalid_arg "Tableau.reduced_density: qubit out of range")
    keep;
  Qstate.Pauli.density_of_expectations keep (fun ~x ~z ->
      float_of_int (expectation_pauli t ~x ~z))

let apply_gate (gate : Circuit.Gate.t) t =
  if Obs.enabled () then
    Obs.Metrics.counter_add
      ~labels:[ ("kind", gate.Circuit.Gate.name) ]
      "tableau_gate_applied_total" 1;
  match
    (gate.Circuit.Gate.name, gate.Circuit.Gate.controls, gate.Circuit.Gate.targets)
  with
  | "h", [], [ q ] -> h t q
  | "s", [], [ q ] -> s t q
  | "sdg", [], [ q ] -> sdg t q
  | "x", [], [ q ] -> x t q
  | "y", [], [ q ] -> y t q
  | "z", [], [ q ] -> z t q
  | "id", [], [ _ ] -> ()
  | "x", [ c ], [ q ] -> cx t c q
  | "z", [ c ], [ q ] -> cz t c q
  | "swap", [], [ a; b ] -> swap t a b
  | name, _, _ ->
      invalid_arg (Printf.sprintf "Tableau.apply_gate: non-Clifford gate %s" name)

let run c =
  let t = make (Circuit.num_qubits c) in
  List.iter
    (function
      | Circuit.Instr.Gate gate -> apply_gate gate t
      | Circuit.Instr.Tracepoint _ | Circuit.Instr.Barrier _ -> ()
      | _ -> invalid_arg "Tableau.run: measurement-free circuits only")
    (Circuit.instrs c);
  t

let stabilizer_strings t =
  List.init t.n (fun i ->
      let row = t.n + i in
      let sign = if t.rs.(row) then "-" else "+" in
      let body =
        String.init t.n (fun k ->
            let j = t.n - 1 - k in
            match (t.xs.(row).(j), t.zs.(row).(j)) with
            | false, false -> 'I'
            | true, false -> 'X'
            | false, true -> 'Z'
            | true, true -> 'Y')
      in
      (sign, body))

let density t =
  let open Linalg in
  let n = t.n in
  let d = 1 lsl n in
  let generator row =
    (* the g-function phase bookkeeping uses the Hermitian convention where
       (x=1, z=1) denotes Y (= i XZ), so the generator is a signed Pauli
       string *)
    let acc = ref (Cmat.identity 1) in
    for k = n - 1 downto 0 do
      let op =
        match (t.xs.(row).(k), t.zs.(row).(k)) with
        | false, false -> Qstate.Pauli.I
        | true, false -> Qstate.Pauli.X
        | false, true -> Qstate.Pauli.Z
        | true, true -> Qstate.Pauli.Y
      in
      acc := Cmat.kron !acc (Qstate.Pauli.matrix1 op)
    done;
    if t.rs.(row) then Cmat.rscale (-1.) !acc else !acc
  in
  let rho = ref (Cmat.identity d) in
  for i = 0 to n - 1 do
    let gmat = generator (n + i) in
    rho := Cmat.rscale 0.5 (Cmat.add !rho (Cmat.mul gmat !rho))
  done;
  !rho

let random ?gates rng n =
  let t = make n in
  let budget = match gates with Some g -> g | None -> (2 * n * n) + 12 in
  for _ = 1 to budget do
    match Stats.Rng.int rng 3 with
    | 0 -> h t (Stats.Rng.int rng n)
    | 1 -> s t (Stats.Rng.int rng n)
    | _ ->
        if n >= 2 then begin
          let a = Stats.Rng.int rng n in
          let b = ref (Stats.Rng.int rng n) in
          while !b = a do
            b := Stats.Rng.int rng n
          done;
          cx t a !b
        end
        else h t 0
  done;
  t
