open Qstate
module Cmat = Linalg.Cmat

(* Batched execution of segment-compiled circuits.

   A [plan] (normally built by [Transpile.Segments.compile]) is a circuit
   whose purely-unitary segments have been fused into block operators,
   interleaved with the fences (tracepoints, measurements, resets,
   classical feedback) that delimited them. [exec] cuts the input columns
   into tiles; each pool task owns one private tile and runs the whole
   plan over every tile it is given with allocation-free kernels that
   stream the tile's rows (row [i] holds amplitude [i] of the tile's
   columns contiguously). Fences run per column through [Engine.step],
   the gate-by-gate engine's instruction semantics, with a per-column
   generator.

   Determinism: every kernel touches each column independently with a
   k-ascending accumulation order that does not depend on how many columns
   sit in the tile or which worker processes them, so a packed run is
   bit-identical to running each column alone through [run_seq] — for any
   batch size, tile width and pool domain count. *)

type block = { qubits : int array; u : Cmat.t }

type item =
  | Block of block
  | Direct of Circuit.Gate.t
  | Fence of Circuit.Instr.t

type plan = {
  num_qubits : int;
  num_clbits : int;
  items : item list;
  source_ops : int;
}

let ops plan =
  List.fold_left
    (fun n item -> match item with Block _ | Direct _ -> n + 1 | Fence _ -> n)
    0 plan.items

let is_deterministic plan =
  List.for_all
    (function
      | Fence
          ( Circuit.Instr.Measure _ | Circuit.Instr.Reset _
          | Circuit.Instr.If_gate _ ) ->
          false
      | _ -> true)
    plan.items

(* ------------------------------------------------------------------ *)
(* A private column tile: [2^n x w] row-major amplitudes (row [i] holds
   amplitude [i] of the tile's columns), a gather workspace with room for
   the widest fused block's rows, and one scratch state vector per column
   for fence runs. A tile belongs to one pool task for the whole run, so
   no two domains ever write into one buffer, and it is reused for every
   column range that task is given. Kernels touch only the first
   [used] columns. *)

type tile = {
  n : int;
  w : int;
  re : float array;
  im : float array;
  gre : float array;
  gim : float array;
  scratch : Statevec.t array;
}

(* ------------------------------------------------------------------ *)
(* Operator kernels, each compiled once per [exec] into a closure over the
   tables it needs. *)

(* Fused block: [offset] and u's nonzero pattern (row [a] holds the
   entries [row_start.(a) .. row_start.(a+1) - 1]) are taken once; each
   group of 2^k rows is gathered into the workspace and u * rows is
   accumulated back, column by column, in k-ascending order over u's
   nonzeros — the same zero-skipping accumulation as [Cmat.mul_into]. *)
let block_kernel (blk : block) =
  let m = 1 lsl Array.length blk.qubits in
  let mask = Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 blk.qubits in
  let offset = Array.init m (Statevec.embed_index blk.qubits) in
  let ure = blk.u.Cmat.re and uim = blk.u.Cmat.im in
  let nz =
    List.init (m * m) Fun.id
    |> List.filter (fun idx -> ure.(idx) <> 0. || uim.(idx) <> 0.)
    |> Array.of_list
  in
  let col = Array.map (fun idx -> idx mod m) nz in
  let cre = Array.map (Array.get ure) nz in
  let cim = Array.map (Array.get uim) nz in
  let row_start = Array.make (m + 1) 0 in
  Array.iter
    (fun idx -> row_start.((idx / m) + 1) <- row_start.((idx / m) + 1) + 1)
    nz;
  for a = 1 to m do
    row_start.(a) <- row_start.(a) + row_start.(a - 1)
  done;
  fun t used ->
    let w = t.w in
    let re = t.re and im = t.im and gre = t.gre and gim = t.gim in
    Statevec.iter_env_bases t.n mask (fun base ->
        for a = 0 to m - 1 do
          let src = (base lor offset.(a)) * w and dst = a * w in
          for j = 0 to used - 1 do
            gre.(dst + j) <- re.(src + j);
            gim.(dst + j) <- im.(src + j)
          done
        done;
        for a = 0 to m - 1 do
          let drow = (base lor offset.(a)) * w in
          for j = drow to drow + used - 1 do
            re.(j) <- 0.;
            im.(j) <- 0.
          done;
          for p = row_start.(a) to row_start.(a + 1) - 1 do
            let ur = cre.(p) and ui = cim.(p) and srow = col.(p) * w in
            for j = 0 to used - 1 do
              let xr = gre.(srow + j) and xi = gim.(srow + j) in
              re.(drow + j) <- re.(drow + j) +. (ur *. xr) -. (ui *. xi);
              im.(drow + j) <- im.(drow + j) +. (ur *. xi) +. (ui *. xr)
            done
          done
        done)

(* controlled single-target gate, with the state-vector kernel's update
   expressions so a plan run agrees with the gate-by-gate engine *)
let cgate_kernel ~controls u tgt t used =
  let d = 1 lsl t.n and w = t.w in
  let re = t.re and im = t.im in
  let cmask = List.fold_left (fun m c -> m lor (1 lsl c)) 0 controls in
  let u00r = u.Cmat.re.(0) and u00i = u.Cmat.im.(0) in
  let u01r = u.Cmat.re.(1) and u01i = u.Cmat.im.(1) in
  let u10r = u.Cmat.re.(2) and u10i = u.Cmat.im.(2) in
  let u11r = u.Cmat.re.(3) and u11i = u.Cmat.im.(3) in
  let bit = 1 lsl tgt in
  for i = 0 to d - 1 do
    if i land bit = 0 && i land cmask = cmask then begin
      let p = i * w and q = (i lor bit) * w in
      for j = 0 to used - 1 do
        let ar = re.(p + j) and ai = im.(p + j) in
        let br = re.(q + j) and bi = im.(q + j) in
        re.(p + j) <- (u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi);
        im.(p + j) <- (u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br);
        re.(q + j) <- (u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi);
        im.(q + j) <- (u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br)
      done
    end
  done

let swap_kernel qa qb t used =
  let d = 1 lsl t.n and w = t.w in
  let re = t.re and im = t.im in
  let ba = 1 lsl qa and bb = 1 lsl qb in
  for i = 0 to d - 1 do
    if i land ba <> 0 && i land bb = 0 then begin
      let p = i * w and q = (i lxor (ba lor bb)) * w in
      for j = 0 to used - 1 do
        let xr = re.(p + j) and xi = im.(p + j) in
        re.(p + j) <- re.(q + j);
        im.(p + j) <- im.(q + j);
        re.(q + j) <- xr;
        im.(q + j) <- xi
      done
    end
  done

let direct_kernel (g : Circuit.Gate.t) =
  match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
  | "swap", [ qa; qb ] ->
      if g.Circuit.Gate.controls <> [] then
        invalid_arg "Batch: controlled swap unsupported";
      swap_kernel qa qb
  | name, [ tgt ] ->
      let u = Gates.by_name name g.Circuit.Gate.params in
      cgate_kernel ~controls:g.Circuit.Gate.controls u tgt
  | _ -> invalid_arg "Batch: malformed gate"

(* ------------------------------------------------------------------ *)
(* Fence interpretation. Per-column access to a tile walks a column with
   a [w]-float stride — one cache line per amplitude — which dominates
   wall time on measurement-heavy circuits. So runs of consecutive fences
   are executed on contiguous copies instead: the tile's columns are
   transposed into its scratch vectors (walking ROWS, which are
   contiguous), each column's fences run on its own [Statevec.t] through
   [Engine.step] — the gate-by-gate engine's own instruction semantics,
   with ideal noise and the column's generator — and the columns are
   transposed back. The copies are exact and the per-column fence order
   is unchanged, so the results are bit-identical to interpreting the
   packed columns in place. *)

(* exact transposes between the tile's first [used] columns and the
   state vectors [sts.(0 .. used - 1)], walking the contiguous rows *)
let columns_to_states t sts used =
  let w = t.w in
  for k = 0 to (1 lsl t.n) - 1 do
    let row = k * w in
    for j = 0 to used - 1 do
      let st = sts.(j) in
      st.Statevec.re.(k) <- t.re.(row + j);
      st.Statevec.im.(k) <- t.im.(row + j)
    done
  done

let states_to_columns t sts used =
  let w = t.w in
  for k = 0 to (1 lsl t.n) - 1 do
    let row = k * w in
    for j = 0 to used - 1 do
      let st = sts.(j) in
      t.re.(row + j) <- st.Statevec.re.(k);
      t.im.(row + j) <- st.Statevec.im.(k)
    done
  done

let exec_fences fences ~mutate t ~col0 ~rngs ~clbits ~traces used =
  columns_to_states t t.scratch used;
  for j = 0 to used - 1 do
    let g = col0 + j in
    traces.(g) <-
      List.fold_left
        (Engine.step ~rng:rngs.(g) ~noise:Noise.ideal t.scratch.(j)
           clbits.(g))
        traces.(g) fences
  done;
  (* a run of read-only fences (tracepoints, barriers) leaves the scratch
     columns untouched, so transposing them back would be an exact no-op *)
  if mutate then states_to_columns t t.scratch used

(* ------------------------------------------------------------------ *)

(* The item list compiled for one [exec]: operators become kernels over a
   tile's first [used] columns, and runs of consecutive fences are grouped
   so each run costs one transpose in and out. *)
type step =
  | Kernel of (tile -> int -> unit)
  | Fences of { fences : Circuit.Instr.t list; mutate : bool }

let fences_step rev_fences =
  let fences = List.rev rev_fences in
  let mutate =
    List.exists
      (function
        | Circuit.Instr.Measure _ | Circuit.Instr.Reset _
        | Circuit.Instr.If_gate _ ->
            true
        | _ -> false)
      fences
  in
  Fences { fences; mutate }

let compile items =
  let flush pending acc =
    if pending = [] then acc else fences_step pending :: acc
  in
  let rec go acc pending = function
    | [] -> List.rev (flush pending acc)
    | Fence (Circuit.Instr.Gate _) :: _ ->
        invalid_arg "Batch: raw gate used as a fence"
    | Fence i :: rest -> go acc (i :: pending) rest
    | Block b :: rest ->
        go (Kernel (block_kernel b) :: flush pending acc) [] rest
    | Direct g :: rest ->
        go (Kernel (direct_kernel g) :: flush pending acc) [] rest
  in
  go [] [] items

(* Tiles bound peak memory: the live tiles never hold more than
   ~[amplitude_budget] amplitudes per component, whatever the sample
   count. Columns are independent, so tiling cannot change any column's
   result. *)
let amplitude_budget = 1 lsl 21
let tile_cols = 16
let ceil_div a b = (a + b - 1) / b

(* a fused block costs one multiply-accumulate per nonzero of [u], per
   group of rows of a [2^num_qubits]-amplitude column *)
let block_macs num_qubits { qubits; u } =
  let nnz = ref 0 in
  Array.iteri
    (fun idx r -> if r <> 0. || u.Cmat.im.(idx) <> 0. then incr nnz)
    u.Cmat.re;
  ((1 lsl num_qubits) lsr Array.length qubits) * !nnz

let column_macs plan =
  List.fold_left
    (fun acc -> function
      | Block b -> acc + block_macs plan.num_qubits b
      | Direct _ | Fence _ -> acc)
    0 plan.items

(* Work counters are a function of the plan and the column count alone,
   never of the tiling or the domain count: an operator counts one
   application per column block of at most [amplitude_budget] amplitudes,
   and a fused block its [block_macs] per column. *)
let record_work plan ~count =
  if Obs.enabled () then begin
    let d = 1 lsl plan.num_qubits in
    let col_blocks = ceil_div count (max 1 (min count (amplitude_budget / d))) in
    List.iter
      (function
        | Block b ->
            Obs.Metrics.counter_add "fused_block_applied_total" col_blocks;
            Obs.Metrics.counter_add "batch_gemm_macs_total"
              (block_macs plan.num_qubits b * count)
        | Direct g ->
            Obs.Metrics.counter_add
              ~labels:[ ("kind", g.Circuit.Gate.name) ]
              "direct_gate_applied_total" col_blocks
        | Fence _ -> ())
      plan.items
  end

let make_tile plan w =
  let n = plan.num_qubits in
  let gather_rows =
    List.fold_left
      (fun acc item ->
        match item with
        | Block b -> max acc (1 lsl Array.length b.qubits)
        | Direct _ | Fence _ -> acc)
      0 plan.items
  in
  let fenced =
    List.exists (function Fence _ -> true | _ -> false) plan.items
  in
  {
    n;
    w;
    re = Array.make ((1 lsl n) * w) 0.;
    im = Array.make ((1 lsl n) * w) 0.;
    gre = Array.make (gather_rows * w) 0.;
    gim = Array.make (gather_rows * w) 0.;
    scratch =
      (if fenced then Array.init w (fun _ -> Statevec.zero n) else [||]);
  }

let exec ?pool ?rngs plan ~count ~init ~want_states =
  Obs.Span.with_ ~name:"batch.exec"
    ~attrs:[ ("columns", string_of_int count) ]
  @@ fun () ->
  let n = plan.num_qubits in
  let d = 1 lsl n in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let col_rngs =
    match rngs with
    | Some a ->
        if Array.length a <> count then
          invalid_arg "Batch: rngs length must equal the column count";
        a
    | None ->
        (* [Engine.run]'s default seed policy: a fresh generator per
           column, never a shared one *)
        Array.init count (fun _ -> Engine.default_rng ())
  in
  let traces = Array.make count [] in
  let clbits = Array.init count (fun _ -> Array.make plan.num_clbits 0) in
  let states = Array.make (if want_states then count else 0) None in
  if count > 0 then begin
    record_work plan ~count;
    let steps = compile plan.items in
    (* tiles of at most [tile_cols] columns, narrow enough that every
       domain gets one and that [tasks] live tiles fit the float budget;
       task [t] runs tiles t, t + tasks, t + 2 tasks, ... on its own tile *)
    let domains = Parallel.Pool.domains pool in
    let w =
      max 1
        (min tile_cols
           (min (ceil_div count domains) (amplitude_budget / (d * domains))))
    in
    let tiles = ceil_div count w in
    let tasks = max 1 (min (min domains tiles) (amplitude_budget / (d * w))) in
    Parallel.Pool.parallel_for pool ~n:tasks (fun task ->
        let t = make_tile plan w in
        let i = ref task in
        while !i < tiles do
          let col0 = !i * w in
          let used = min w (count - col0) in
          let inputs =
            Array.init used (fun j ->
                let st = init (col0 + j) in
                if Statevec.num_qubits st <> n then
                  invalid_arg "Batch: input state qubit count mismatch";
                st)
          in
          states_to_columns t inputs used;
          List.iter
            (function
              | Kernel kernel -> kernel t used
              | Fences { fences; mutate } ->
                  exec_fences fences ~mutate t ~col0 ~rngs:col_rngs ~clbits
                    ~traces used)
            steps;
          if want_states then begin
            let outs = Array.init used (fun _ -> Statevec.zero n) in
            columns_to_states t outs used;
            Array.iteri (fun j st -> states.(col0 + j) <- Some st) outs
          end;
          i := !i + tasks
        done)
  end;
  (traces, clbits, states)

let run ?pool ?rngs plan states =
  let count = Array.length states in
  let traces, clbits, out =
    exec ?pool ?rngs plan ~count ~init:(fun i -> states.(i)) ~want_states:true
  in
  Array.init count (fun i ->
      {
        Engine.state = Option.get out.(i);
        clbits = clbits.(i);
        traces = List.rev traces.(i);
      })

let run_traces ?pool ?rngs plan ~count ~init =
  let traces, _, _ = exec ?pool ?rngs plan ~count ~init ~want_states:false in
  Array.map List.rev traces

let run_seq ?rng plan st =
  let rngs = Option.map (fun r -> [| r |]) rng in
  (run ?rngs plan [| st |]).(0)

(* Segment by segment: the items before each tracepoint run as one
   packed [exec] over every column, whose final states are the columns'
   states at that tracepoint and the next segment's inputs. A
   deterministic plan's other fences (barriers) are no-ops, and items
   after the last tracepoint reach no snapshot, so they are not run. *)
let iter_tracepoints ?pool plan ~count ~init f =
  if not (is_deterministic plan) then
    invalid_arg "Batch.iter_tracepoints: plan measures, resets or feeds back";
  let advance col items =
    if items = [] then Array.init count col
    else
      let _, _, out =
        exec ?pool { plan with items } ~count ~init:col ~want_states:true
      in
      Array.map Option.get out
  in
  let rec go col pending = function
    | [] -> ()
    | Fence (Circuit.Instr.Tracepoint { id; qubits }) :: rest ->
        let states = advance col (List.rev pending) in
        f id qubits states;
        go (Array.get states) [] rest
    | item :: rest -> go col (item :: pending) rest
  in
  go init [] plan.items
