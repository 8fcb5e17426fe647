open Qstate

type outcome = {
  state : Statevec.t;
  clbits : int array;
  traces : (int * Linalg.Cmat.t) list;
}

let swap_matrix =
  Linalg.Cmat.init 4 4 (fun i j ->
      let swapped = ((j land 1) lsl 1) lor ((j lsr 1) land 1) in
      if i = swapped then Linalg.Cx.one else Linalg.Cx.zero)

let inject_noise rng noise (g : Circuit.Gate.t) st =
  let qs = Circuit.Gate.qubits g in
  let p = if List.length qs >= 2 then noise.Noise.p2 else noise.Noise.p1 in
  if p > 0. then
    List.iter
      (fun q ->
        match Noise.sample_pauli rng p with
        | None -> ()
        | Some op -> Statevec.apply1 (Pauli.matrix1 op) q st)
      qs

let apply_gate_ideal (g : Circuit.Gate.t) st =
  if Obs.enabled () then
    Obs.Metrics.counter_add
      ~labels:[ ("kind", g.Circuit.Gate.name) ]
      "gate_applied_total" 1;
  match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
  | "swap", [ a; b ] ->
      if g.Circuit.Gate.controls <> [] then
        invalid_arg "Engine: controlled swap unsupported";
      Statevec.apply2 swap_matrix a b st
  | name, [ tgt ] ->
      let u = Gates.by_name name g.Circuit.Gate.params in
      Statevec.apply_controlled ~controls:g.Circuit.Gate.controls u tgt st
  | _ -> invalid_arg "Engine: malformed gate"

let apply_gate ~rng ~noise g st =
  apply_gate_ideal g st;
  if not (Noise.is_ideal noise) then inject_noise rng noise g st

(* The one definition of what a circuit instruction does to a dense state
   vector, for one trajectory: gates draw their Pauli errors and
   measurements their readout flips from [rng] under a non-ideal [noise];
   a tracepoint conses its snapshot onto [traces] (newest first). [run]
   folds it over a circuit and [Batch] runs its fence columns through
   it. *)
let step ~rng ~noise st clbits traces instr =
  match instr with
  | Circuit.Instr.Gate g ->
      apply_gate ~rng ~noise g st;
      traces
  | Circuit.Instr.Tracepoint { id; qubits } ->
      (id, Statevec.reduced_density st qubits) :: traces
  | Circuit.Instr.Measure { qubit; clbit } ->
      let outcome = Statevec.measure rng st qubit in
      let outcome =
        if noise.Noise.readout > 0. && Stats.Rng.float rng 1. < noise.Noise.readout
        then 1 - outcome
        else outcome
      in
      clbits.(clbit) <- outcome;
      traces
  | Circuit.Instr.Reset q ->
      if Statevec.measure rng st q = 1 then Statevec.apply1 Gates.x q st;
      traces
  | Circuit.Instr.If_gate { clbits = cbs; value; gate } ->
      let read =
        List.fold_left
          (fun (acc, k) b -> (acc lor (clbits.(b) lsl k), k + 1))
          (0, 0) cbs
        |> fst
      in
      if read = value then apply_gate ~rng ~noise gate st;
      traces
  | Circuit.Instr.Barrier _ -> traces

(* A fresh generator per call, NOT one shared global: a single mutable
   generator shared across every no-[?rng] call would make results depend
   on call history and would race when callers fan out over
   [Parallel.Pool] domains. Each call without [?rng] therefore starts from
   the same fixed seed — deterministic, and callers that want independent
   streams pass their own generator (usually a [Stats.Rng.split] child). *)
let default_rng () = Stats.Rng.make 0xC0FFEE

let run ?rng ?(noise = Noise.ideal) ?initial c =
  let rng = match rng with Some r -> r | None -> default_rng () in
  let st =
    match initial with
    | Some s ->
        if Statevec.num_qubits s <> Circuit.num_qubits c then
          invalid_arg "Engine.run: initial state qubit mismatch";
        Statevec.copy s
    | None -> Statevec.zero (Circuit.num_qubits c)
  in
  let clbits = Array.make (Circuit.num_clbits c) 0 in
  let traces =
    List.fold_left (step ~rng ~noise st clbits) [] (Circuit.instrs c)
  in
  { state = st; clbits; traces = List.rev traces }

let is_deterministic c =
  List.for_all
    (function
      | Circuit.Instr.Measure _ | Circuit.Instr.Reset _ | Circuit.Instr.If_gate _
        ->
          false
      | _ -> true)
    (Circuit.instrs c)

let split_children rng count = Array.init count (Stats.Rng.split rng)

let get_pool = function
  | Some p -> p
  | None -> Parallel.Pool.global ()

(* Fan [count] independent jobs over the pool, each with its own split child
   generator and (when metered) its own private cost meter, then merge the
   meters in index order. Child generators are derived sequentially before
   the fan-out and the merge order is fixed, so results are bit-identical
   for any domain count. *)
let fan_out pool rng ~meter ~count job =
  let rngs = split_children rng count in
  let metered = meter <> None in
  let results =
    Parallel.Pool.map_init pool count (fun i ->
        let m = if metered then Some (Cost.create ()) else None in
        (job rngs.(i) m, m))
  in
  (match meter with
  | Some m ->
      Array.iter
        (fun (_, mi) -> match mi with Some mi -> Cost.add m mi | None -> ())
        results
  | None -> ());
  Array.map fst results

(* ------------------ lightcone-restricted cone engines ----------------- *)

type route = [ `Stabilizer | `Sparse | `Rank ]

(* What a scalable engine supplies to the one cone driver below: its
   admission rules and its kernels. The driver owns everything else —
   lightcone restriction, basis preparation, the gate walk, spans and
   routed counters — so a backend is only state plus arithmetic. *)
module type BACKEND = sig
  type t

  (* span suffix and [sim_engine_routed_total] label *)
  val name : string
  val admits_gate : Circuit.Gate.t -> bool

  (* [admits_cone c cone] — the per-cone caps; purely static *)
  val admits_cone : Circuit.t -> Analysis.Lightcone.cone -> bool

  (* [make n prep] is basis state [|prep>] on [n] qubits *)
  val make : int -> int -> t
  val apply_gate : Circuit.Gate.t -> t -> unit
  val reduced_density : t -> int list -> Linalg.Cmat.t

  (* per-cone work counter, read once the cone's gates have run *)
  val work_counter : string
  val work : t -> int
end

let cone_width cone = List.length cone.Analysis.Lightcone.qubits

let cone_tp_width c cone =
  match
    List.find_opt
      (fun (id, _) -> id = cone.Analysis.Lightcone.id)
      (Circuit.tracepoints c)
  with
  | Some (_, qs) -> List.length qs
  | None -> cone_width cone

(* The tableau: Clifford gates only, and a cone of at most 12 qubits. A
   tracepoint reduces through its Pauli expansion ([Tableau.reduced_density]:
   one tableau expectation per Pauli string on the tracepoint's qubits),
   never through the [2^cone] density. *)
module Tableau_backend = struct
  type t = Stabilizer.Tableau.t

  let name = "stabilizer"
  let admits_gate = Analysis.Classify.gate_is_clifford
  let admits_cone _ cone = cone_width cone <= 12

  let make n prep =
    let t = Stabilizer.Tableau.make n in
    for q = 0 to n - 1 do
      if (prep lsr q) land 1 = 1 then Stabilizer.Tableau.x t q
    done;
    t

  let apply_gate = Stabilizer.Tableau.apply_gate

  let reduced_density = Stabilizer.Tableau.reduced_density

  let work_counter = "stabilizer_routed_total"
  let work _ = 1
end

(* Sparse coordinates: single-target gates and plain swaps; the cone's
   static support bound within 2^16 entries (memory and per-gate work)
   and a tracepoint of at most 8 qubits (a [2^tp x 2^tp] density). *)
module Sparse_backend = struct
  include Sparse

  let name = "sparse"

  let admits_gate (g : Circuit.Gate.t) =
    match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
    | "swap", [ _; _ ] -> g.Circuit.Gate.controls = []
    | _, [ _ ] -> true
    | _ -> false

  let support_cap = 1 lsl 16

  let admits_cone c cone =
    cone_tp_width c cone <= 8
    &&
    let sub, _ = Analysis.Lightcone.restrict c cone in
    Analysis.Classify.support_bound ~cap:(support_cap + 1) sub <= support_cap

  let make = basis
  let work_counter = "sparse_amps_peak_total"
  let work = peak_support
end

(* Stabilizer rank: gates that split into at most two Clifford branches;
   at most 8 non-Clifford gates per cone (2^k Pauli frames, and a
   tracepoint costs O(4^tp * 4^k) tableau expectations), a tracepoint
   of at most 4 qubits, and a cone that fits the 62-bit frame masks. *)
module Rank_backend = struct
  include Rank

  let name = "rank"
  let admits_gate = Analysis.Classify.gate_rank_decomposable

  let admits_cone c cone =
    cone_width cone <= 62
    && cone_tp_width c cone <= 4
    &&
    let sub, _ = Analysis.Lightcone.restrict c cone in
    Analysis.Classify.non_clifford_count sub <= 8

  let work_counter = "rank_branches_total"
  let work = branch_count
end

let backend : route -> (module BACKEND) = function
  | `Stabilizer -> (module Tableau_backend)
  | `Sparse -> (module Sparse_backend)
  | `Rank -> (module Rank_backend)

let route_name route =
  let (module B) = backend route in
  B.name

(* [applicable route c] — every tracepoint state of [c] is computable on
   the backend from a computational-basis start: no measurement, reset
   or feedback (one pass is exact), every gate admitted, every
   tracepoint cone within the caps. Purely static, so routing never
   depends on runtime values. *)
let applicable route c =
  let (module B) = backend route in
  is_deterministic c
  && List.for_all
       (function Circuit.Instr.Gate g -> B.admits_gate g | _ -> true)
       (Circuit.instrs c)
  && List.for_all (B.admits_cone c) (Analysis.Lightcone.cones c)

let count_routed engine =
  if Obs.enabled () then
    Obs.Metrics.counter_add
      ~labels:[ ("engine", engine) ]
      "sim_engine_routed_total" 1

(* local prep index for a cone: bit [local] set when the cone's
   [global] qubit is set in [prep] *)
let local_prep prep qubits =
  List.fold_left
    (fun (acc, local) global ->
      ((if (prep lsr global) land 1 = 1 then acc lor (1 lsl local) else acc),
       local + 1))
    (0, 0) qubits
  |> fst

(* The one cone driver: one lightcone-restricted run per tracepoint from
   the basis state [prep] (bit q = X on qubit q — a product state, so
   restricting to the cone is sound). Cost depends on the cone, never on
   the full register width. *)
let cone_traces ?(prep = 0) route c =
  let (module B) = backend route in
  Obs.Span.with_ ~name:("engine." ^ B.name ^ "_traces") @@ fun () ->
  count_routed B.name;
  List.map
    (fun cone ->
      let sub, qubits = Analysis.Lightcone.restrict c cone in
      let st = B.make (Circuit.num_qubits sub) (local_prep prep qubits) in
      let tp_qubits = ref [] in
      List.iter
        (function
          | Circuit.Instr.Gate g -> B.apply_gate g st
          | Circuit.Instr.Tracepoint { qubits; _ } -> tp_qubits := qubits
          | Circuit.Instr.Barrier _ -> ()
          | _ -> invalid_arg "Engine.cone_traces: non-deterministic program")
        (Circuit.instrs sub);
      if Obs.enabled () then Obs.Metrics.counter_add B.work_counter (B.work st);
      (cone.Analysis.Lightcone.id, B.reduced_density st !tp_qubits))
    (Analysis.Lightcone.cones c)

(* Dense-amplitude wall: [`Auto] considers the sparse and rank routes
   only when one dense pass would exceed this many amplitude updates
   (2^22 — a few-ms dense run). *)
let dense_amp_wall = Float.ldexp 1. 22

(* The routing table, in preference order. The tableau route carries no
   cost rule: Clifford programs take it whatever their size. The others
   fire only past the dense wall and when their static cost model beats
   one dense pass — sparse by 4x, since a sparse entry costs a few dense
   amplitude updates. *)
let routes : (route * (Circuit.t -> float) option) list =
  [
    (`Stabilizer, None);
    (`Sparse, Some (fun c -> 4. *. Cost.sparse_sim_ops c));
    (`Rank, Some Cost.rank_sim_ops);
  ]

(* The static routing decision for ideal, [|0...0>]-started programs.
   The wall test runs before any sparse or rank analysis: below it dense
   is exact and fast. *)
let auto_route ?(wall = dense_amp_wall) c =
  let dense = lazy (Cost.dense_sim_ops c) in
  List.find_map
    (fun (route, cost) ->
      let take =
        match cost with
        | None -> applicable route c
        | Some cost ->
            let dense = Lazy.force dense in
            dense > wall && applicable route c && cost c <= dense
      in
      if take then Some route else None)
    routes

(* estimated simulation class, for diagnostics (MQ018): the routing
   preference order without the dense wall or the cost rules. The rank
   exponent is the largest per-cone non-Clifford count — the count the
   rank backend admits on, since each cone runs separately. *)
let sim_class c =
  match List.find_opt (fun (route, _) -> applicable route c) routes with
  | None -> "dense"
  | Some (`Stabilizer, _) -> "stabilizer"
  | Some (`Sparse, _) -> "sparse"
  | Some (`Rank, _) ->
      let k =
        List.fold_left
          (fun k cone ->
            let sub, _ = Analysis.Lightcone.restrict c cone in
            max k (Analysis.Classify.non_clifford_count sub))
          0 (Analysis.Lightcone.cones c)
      in
      Printf.sprintf "stabilizer-rank 2^%d" k

(* per-trajectory trace lists averaged: first-seen id order, adds in
   trajectory order, one final rescale *)
let average_traces trajectories per_traj =
  let acc = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun traces ->
      List.iter
        (fun (id, m) ->
          match Hashtbl.find_opt acc id with
          | None ->
              order := id :: !order;
              Hashtbl.add acc id m
          | Some prev -> Hashtbl.replace acc id (Linalg.Cmat.add prev m))
        traces)
    per_traj;
  List.rev_map
    (fun id ->
      ( id,
        Linalg.Cmat.rscale (1. /. float_of_int trajectories) (Hashtbl.find acc id)
      ))
    !order

let default_trajectories = 64

let tracepoint_states ?pool ?rng ?(noise = Noise.ideal)
    ?(trajectories = default_trajectories) ?initial c =
  let route =
    if initial = None && Noise.is_ideal noise then auto_route c else None
  in
  let engine_name =
    match route with Some route -> route_name route | None -> "statevec"
  in
  if Obs.Log.enabled Obs.Log.Debug then
    Obs.Log.emit Obs.Log.Debug "engine.route"
      [
        ("engine", Jsonx.Str engine_name);
        ("qubits", Jsonx.int (Circuit.num_qubits c));
        ("gates", Jsonx.int (Circuit.gate_count c));
      ];
  Obs.Span.with_ ~name:"engine.tracepoint_states"
    ~attrs:[ ("engine", engine_name) ]
  @@ fun () ->
  match route with
  | Some route -> cone_traces route c
  | None ->
      count_routed "statevec";
      if is_deterministic c && Noise.is_ideal noise then
        (run ?rng ~noise ?initial c).traces
      else
        let rng = match rng with Some r -> r | None -> default_rng () in
        fan_out (get_pool pool) rng ~meter:None ~count:trajectories
          (fun rng _ -> (run ~rng ~noise ?initial c).traces)
        |> average_traces trajectories

let sample_counts ?pool ?rng ?(noise = Noise.ideal) ?initial ?meter ~shots c =
  Obs.Span.with_ ~name:"engine.sample_counts" @@ fun () ->
  if Obs.enabled () then Obs.Metrics.counter_add "sample_shots_total" shots;
  let rng = match rng with Some r -> r | None -> default_rng () in
  let pool = get_pool pool in
  let tbl = Hashtbl.create 64 in
  let bump k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  if is_deterministic c && Noise.is_ideal noise then begin
    let { state; _ } = run ~rng ~noise ?initial c in
    (match meter with
    | Some m -> Cost.record_circuit m (Cost.shape c) ~shots
    | None -> ());
    List.iter (fun (k, n) -> bump k n) (Statevec.counts ~pool rng state ~shots)
  end
  else begin
    let shape = Cost.shape c in
    let sampled =
      fan_out pool rng ~meter ~count:shots (fun rng m ->
          Option.iter (fun m -> Cost.record_circuit m shape ~shots:1) m;
          let { state; _ } = run ~rng ~noise ?initial c in
          Statevec.sample rng state)
    in
    Array.iter (fun k -> bump k 1) sampled
  end;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let unitary ?pool c =
  let n = Circuit.num_qubits c in
  let d = 1 lsl n in
  let u = Linalg.Cmat.create d d in
  let column k =
    let st = Statevec.basis n k in
    List.iter
      (fun instr ->
        match instr with
        | Circuit.Instr.Gate g -> apply_gate_ideal g st
        | Circuit.Instr.Tracepoint _ | Circuit.Instr.Barrier _ -> ()
        | _ -> invalid_arg "Engine.unitary: non-unitary instruction")
      (Circuit.instrs c);
    Linalg.Cmat.set_col u k (Statevec.to_cvec st)
  in
  (* columns are independent and write disjoint slices of [u]; small
     matrices stay sequential to skip the fan-out handshake *)
  if d >= 256 then Parallel.Pool.parallel_for (get_pool pool) ~n:d column
  else
    for k = 0 to d - 1 do
      column k
    done;
  u
