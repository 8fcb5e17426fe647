module IntSet = Set.Make (Int)

let default_cutoff = 6
let default_block_cutoff = 3

let support gates =
  List.fold_left
    (fun acc g ->
      List.fold_left
        (fun acc q -> IntSet.add q acc)
        acc (Circuit.Gate.qubits g))
    IntSet.empty gates

(* Fuse [gates] (whose union support is [sup]) into one block operator:
   remap them onto a local register ordered by ascending global qubit and
   materialize the sub-circuit unitary column by column. *)
let block_of sup gates =
  let qubits = Array.of_list (IntSet.elements sup) in
  let k = Array.length qubits in
  let local q =
    let rec go i = if qubits.(i) = q then i else go (i + 1) in
    go 0
  in
  let sub =
    List.fold_left
      (fun c g -> Circuit.add (Circuit.Instr.Gate (Circuit.Gate.remap local g)) c)
      (Circuit.empty k) gates
  in
  { Sim.Batch.qubits; u = Sim.Engine.unitary sub }

(* Cost-aware fusion. A fused block is applied as a dense, zero-skipping
   [m x m] operator costing [nnz(u) / m] complex multiply-accumulates per
   amplitude; the batch engine's row-sweeping kernels apply a controlled
   single-target gate for [2 / 2^controls] per amplitude and a swap as
   pure moves. A candidate block is kept only when it is at least as
   cheap as replaying its gates directly — true for long narrow segments
   (the characterization hot path), false for short dense ones (random
   circuits where barely two gates share a support). Gates the direct
   kernels cannot express (multi-target non-swap) force fusion. *)
let direct_cost (g : Circuit.Gate.t) =
  match (g.Circuit.Gate.name, g.Circuit.Gate.targets) with
  | "swap", [ _; _ ] when g.Circuit.Gate.controls = [] -> Some 0.5
  | _, [ _ ] ->
      let nc = List.length g.Circuit.Gate.controls in
      Some (2.0 /. float_of_int (1 lsl nc))
  | _ -> None

let block_cost (blk : Sim.Batch.block) =
  let m = 1 lsl Array.length blk.Sim.Batch.qubits in
  let re = blk.Sim.Batch.u.Linalg.Cmat.re
  and im = blk.Sim.Batch.u.Linalg.Cmat.im in
  let nnz = ref 0 in
  Array.iteri (fun i x -> if x <> 0. || im.(i) <> 0. then incr nnz) re;
  float_of_int !nnz /. float_of_int m

(* [tagged] pairs each gate with its source instruction index, so the plan
   can carry provenance for the certificate without a second compile *)
let emit_fused emit sup tagged =
  let gates = List.map snd tagged in
  let dcost =
    List.fold_left
      (fun acc g ->
        match (acc, direct_cost g) with
        | Some a, Some c -> Some (a +. c)
        | _ -> None)
      (Some 0.) gates
  in
  let all_direct () =
    List.iter (fun (i, g) -> emit ([ i ], Sim.Batch.Direct g)) tagged
  in
  match dcost with
  | Some total when total < 1.0 ->
      (* a unitary has no zero row, so block_cost >= 1 and fusion could
         never win — skip materializing the block entirely *)
      all_direct ()
  | dcost -> (
      let blk = block_of sup gates in
      match dcost with
      | Some total when block_cost blk > total -> all_direct ()
      | _ -> emit (List.map fst tagged, Sim.Batch.Block blk))

let compile_direct_cert ?(cutoff = default_cutoff)
    ?(block_cutoff = default_block_cutoff) c =
  if cutoff < 1 || block_cutoff < 1 then
    invalid_arg "Segments.compile: cutoffs must be >= 1";
  Obs.Span.with_ ~name:"segments.compile" @@ fun () ->
  let items = ref [] in
  let pending = ref [] in
  let dropped_barriers = ref [] in
  let source_ops = ref 0 in
  let emit ((_, item) as tagged_item) =
    if Obs.enabled () then begin
      match item with
      | Sim.Batch.Block b ->
          Obs.Metrics.counter_add "segment_fused_total" 1;
          Obs.Metrics.observe "segment_block_qubits"
            (float_of_int (Array.length b.Sim.Batch.qubits))
      | Sim.Batch.Direct _ -> Obs.Metrics.counter_add "segment_direct_total" 1
      | Sim.Batch.Fence _ -> ()
    end;
    items := tagged_item :: !items
  in
  (* flush the pending unitary run as fused operators *)
  let flush_segment () =
    match List.rev !pending with
    | [] -> ()
    | tagged ->
        pending := [];
        let sup = support (List.map snd tagged) in
        if IntSet.cardinal sup <= cutoff then
          (* narrow segment: one block over its whole support *)
          emit_fused emit sup tagged
        else begin
          (* wide segment: greedily pack consecutive gates while the
             running support stays within [block_cutoff] qubits *)
          let cur = ref [] and cur_sup = ref IntSet.empty in
          let flush_cur () =
            match List.rev !cur with
            | [] -> ()
            | [ (i, g) ] when IntSet.cardinal !cur_sup > block_cutoff ->
                (* a single gate too wide to fuse (e.g. a many-control
                   Toffoli): the row-sweeping kernel beats a huge block *)
                emit ([ i ], Sim.Batch.Direct g)
            | gs -> emit_fused emit !cur_sup gs
          in
          List.iter
            (fun (i, g) ->
              let gsup = support [ g ] in
              let u = IntSet.union !cur_sup gsup in
              if !cur = [] || IntSet.cardinal u <= block_cutoff then begin
                cur := (i, g) :: !cur;
                cur_sup := u
              end
              else begin
                flush_cur ();
                cur := [ (i, g) ];
                cur_sup := gsup
              end)
            tagged;
          flush_cur ()
        end
  in
  List.iteri
    (fun idx instr ->
      match instr with
      | Circuit.Instr.Gate g ->
          incr source_ops;
          pending := (idx, g) :: !pending
      | Circuit.Instr.Barrier _ ->
          (* a barrier fences fusion but emits nothing at run time *)
          flush_segment ();
          dropped_barriers := idx :: !dropped_barriers
      | fence ->
          flush_segment ();
          emit ([ idx ], Sim.Batch.Fence fence))
    (Circuit.instrs c);
  flush_segment ();
  let tagged_items = List.rev !items in
  let plan =
    {
      Sim.Batch.num_qubits = Circuit.num_qubits c;
      num_clbits = Circuit.num_clbits c;
      items = List.map snd tagged_items;
      source_ops = !source_ops;
    }
  in
  let _, mapped_rev, groups_rev =
    List.fold_left
      (fun (k, mapped, groups) (origins, item) ->
        match (item, origins) with
        | Sim.Batch.Block _, os ->
            ( k + 1,
              mapped,
              Certify.Local_equiv { before = os; after = [ k ] } :: groups )
        | (Sim.Batch.Direct _ | Sim.Batch.Fence _), [ i ] ->
            (k + 1, (i, k) :: mapped, groups)
        | _ -> assert false)
      (0, [], []) tagged_items
  in
  let barrier_obls =
    List.rev_map
      (fun idx -> Certify.Barrier_elim { index = idx })
      !dropped_barriers
  in
  let step =
    {
      Certify.pass = "segments";
      obligations = List.rev groups_rev @ barrier_obls;
      mapped = List.rev mapped_rev;
      output = Certify.Plan plan;
    }
  in
  (plan, step)

let compile ?cutoff ?block_cutoff c =
  fst (compile_direct_cert ?cutoff ?block_cutoff c)

(* Certified plan memo: keyed by the exact circuit bytes (barriers and
   fences are semantically load-bearing here, so no canonicalization)
   plus the cutoffs. A plan and its certificate are pure data (fused
   operators, direct gates, fence instructions, obligations), so a cached
   pair is the compiled pair. *)
let compile_cert ?cutoff ?block_cutoff ?cache c =
  let direct () = compile_direct_cert ?cutoff ?block_cutoff c in
  match cache with
  | None -> direct ()
  | Some cache ->
      let key =
        Cache.Canon.digest
          (String.concat "\x00"
             [
               "plan-cert-v1";
               Cache.Canon.exact_bytes c;
               Marshal.to_string (cutoff, block_cutoff) [];
             ])
      in
      Cache.memo cache ~ns:"segments" key direct
