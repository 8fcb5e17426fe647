let qubits_of_instr = Circuit.Instr.qubits

let disjoint a b =
  not (List.exists (fun q -> List.mem q b) a)

let same_wires (g : Circuit.Gate.t) (g' : Circuit.Gate.t) =
  g.Circuit.Gate.controls = g'.Circuit.Gate.controls
  && g.Circuit.Gate.targets = g'.Circuit.Gate.targets

(* names of mutually-inverse parameterless pairs *)
let inverse_names = function
  | "h" -> Some "h"
  | "x" -> Some "x"
  | "y" -> Some "y"
  | "z" -> Some "z"
  | "swap" -> Some "swap"
  | "id" -> Some "id"
  | "s" -> Some "sdg"
  | "sdg" -> Some "s"
  | "t" -> Some "tdg"
  | "tdg" -> Some "t"
  | _ -> None

let cancels (g : Circuit.Gate.t) (g' : Circuit.Gate.t) =
  same_wires g g'
  &&
  match (g.Circuit.Gate.params, g'.Circuit.Gate.params) with
  | [], [] -> inverse_names g.Circuit.Gate.name = Some g'.Circuit.Gate.name
  | [ a ], [ b ] ->
      g.Circuit.Gate.name = g'.Circuit.Gate.name
      && List.mem g.Circuit.Gate.name [ "rx"; "ry"; "rz"; "p"; "u1" ]
      && Float.abs (a +. b) < 1e-12
  | _ -> false

let rotation_family = [ "rx"; "ry"; "rz"; "p"; "u1" ]

let mergeable (g : Circuit.Gate.t) (g' : Circuit.Gate.t) =
  same_wires g g'
  && g.Circuit.Gate.name = g'.Circuit.Gate.name
  && List.mem g.Circuit.Gate.name rotation_family
  && List.length g.Circuit.Gate.params = 1
  && List.length g'.Circuit.Gate.params = 1

(* the identity period of a rotation's angle: exact identity only *)
let identity_period = function
  | "rx" | "ry" | "rz" -> 4. *. Float.pi
  | _ -> 2. *. Float.pi (* p / u1 *)

let is_identity_angle name a =
  let period = identity_period name in
  let m = Float.rem (Float.abs a) period in
  Float.min m (period -. m) < 1e-12

let merged (g : Circuit.Gate.t) (g' : Circuit.Gate.t) =
  let a = List.hd g.Circuit.Gate.params and b = List.hd g'.Circuit.Gate.params in
  let sum = a +. b in
  if is_identity_angle g.Circuit.Gate.name sum then None
  else
    Some
      (Circuit.Gate.make ~params:[ sum ] ~controls:g.Circuit.Gate.controls
         g.Circuit.Gate.name g.Circuit.Gate.targets)

(* ------------------------ provenance threading ------------------------ *)

(* Every pass below is written once, over items that carry their input
   provenance: [origins] is the ascending list of input indices whose
   product this instruction is (a singleton means untouched). The plain
   passes are [fst] of the certificate variants, so a certified run's
   output is bit-identical to an uncertified one by construction. Groups
   whose product was proved the identity and removed outright are
   collected separately in [gone]. *)
type tracked = { origins : int list; instr : Circuit.Instr.t }

let tracked_qubits t = qubits_of_instr t.instr

(* place gate [g] (input index [i]) against the reversed output [res],
   cancelling or merging with the nearest instruction sharing a wire when
   allowed *)
let place ~do_cancel ~do_merge (i, g) (res, gone) =
  let gq = Circuit.Gate.qubits g in
  let rec scan acc = function
    | [] -> None
    | item :: rest -> (
        if disjoint (tracked_qubits item) gq then scan (item :: acc) rest
        else
          match item.instr with
          | Circuit.Instr.Gate g' when do_cancel && cancels g g' ->
              Some (List.rev_append acc rest, (item.origins @ [ i ]) :: gone)
          | Circuit.Instr.Gate g' when do_merge && mergeable g g' -> (
              match merged g g' with
              | Some m ->
                  let item' =
                    {
                      origins = item.origins @ [ i ];
                      instr = Circuit.Instr.Gate m;
                    }
                  in
                  Some (List.rev_append acc (item' :: rest), gone)
              | None ->
                  Some
                    (List.rev_append acc rest, (item.origins @ [ i ]) :: gone))
          | _ -> None)
  in
  match scan [] res with
  | Some out -> out
  | None -> ({ origins = [ i ]; instr = Circuit.Instr.Gate g } :: res, gone)

(* rebuild the circuit and derive the certificate step from provenance:
   singleton origins are untouched ([mapped]), multi-origin items and the
   identity groups in [gone] become [Local_equiv] obligations *)
let finish ~pass c (res, gone) =
  let items = List.rev res in
  let out =
    List.fold_left
      (fun acc t -> Circuit.add t.instr acc)
      (Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c))
      items
  in
  let _, mapped_rev, groups_rev =
    List.fold_left
      (fun (k, mapped, groups) t ->
        match t.origins with
        | [ i ] -> (k + 1, (i, k) :: mapped, groups)
        | os ->
            ( k + 1,
              mapped,
              Certify.Local_equiv { before = os; after = [ k ] } :: groups ))
      (0, [], []) items
  in
  let deletions =
    List.rev_map
      (fun os -> Certify.Local_equiv { before = os; after = [] })
      gone
  in
  let step =
    {
      Certify.pass;
      obligations = List.rev groups_rev @ deletions;
      mapped = List.rev mapped_rev;
      output = Certify.Circ out;
    }
  in
  (out, step)

let run_pass_cert ~pass ~do_cancel ~do_merge c =
  let _, acc =
    List.fold_left
      (fun (i, acc) instr ->
        ( i + 1,
          match instr with
          | Circuit.Instr.Gate g -> place ~do_cancel ~do_merge (i, g) acc
          | fence ->
              let res, gone = acc in
              ({ origins = [ i ]; instr = fence } :: res, gone) ))
      (0, ([], []))
      (Circuit.instrs c)
  in
  finish ~pass c acc

let cancel_inverses_cert c =
  run_pass_cert ~pass:"cancel_inverses" ~do_cancel:true ~do_merge:false c

let merge_rotations_cert c =
  run_pass_cert ~pass:"merge_rotations" ~do_cancel:false ~do_merge:true c

let cancel_inverses c = fst (cancel_inverses_cert c)
let merge_rotations c = fst (merge_rotations_cert c)

let drop_identities_cert ?(eps = 1e-12) c =
  let droppable (g : Circuit.Gate.t) =
    match (g.Circuit.Gate.name, g.Circuit.Gate.params) with
    | "id", [] -> true
    | (("rx" | "ry" | "rz" | "p" | "u1") as name), [ a ] ->
        Float.abs a < eps || is_identity_angle name a
    | _ -> false
  in
  let _, k, out, mapped_rev, obls_rev =
    List.fold_left
      (fun (i, k, out, mapped, obls) instr ->
        match instr with
        | Circuit.Instr.Gate g when droppable g ->
            ( i + 1,
              k,
              out,
              mapped,
              Certify.Identity_elim { index = i; eps } :: obls )
        | _ ->
            (i + 1, k + 1, Circuit.add instr out, (i, k) :: mapped, obls))
      ( 0,
        0,
        Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c),
        [],
        [] )
      (Circuit.instrs c)
  in
  ignore k;
  let step =
    {
      Certify.pass = "drop_identities";
      obligations = List.rev obls_rev;
      mapped = List.rev mapped_rev;
      output = Certify.Circ out;
    }
  in
  (out, step)

let drop_identities ?eps c = fst (drop_identities_cert ?eps c)

(* rounds of peephole passes before [optimize] stops short of a fixed
   point *)
let max_passes = 10

let optimize_cert c =
  Obs.Span.with_ ~name:"passes.optimize" @@ fun () ->
  let step c =
    let c1, s1 = run_pass_cert ~pass:"peephole" ~do_cancel:true ~do_merge:true c in
    let c2, s2 = drop_identities_cert c1 in
    (c2, [ s1; s2 ])
  in
  let rec go c steps k =
    if k = 0 then (c, steps)
    else
      let c', ss = step c in
      let steps = steps @ ss in
      if Circuit.gate_count c' = Circuit.gate_count c then (c', steps)
      else go c' steps (k - 1)
  in
  let out, steps = go c [] max_passes in
  if Obs.enabled () then
    Obs.Metrics.counter_add "pass_gates_removed_total"
      (max 0 (Circuit.gate_count c - Circuit.gate_count out));
  (out, steps)

let optimize c = fst (optimize_cert c)

let gate_reduction ~before ~after =
  let b = Circuit.gate_count before in
  if b = 0 then 0.
  else float_of_int (b - Circuit.gate_count after) /. float_of_int b

(* -------------------- lightcone-based dead-code pruning --------------- *)

(* Delete every instruction outside the union cone of influence of all
   tracepoints and measurements (Analysis.Lightcone.union_keep). This
   preserves every tracepoint's reduced state and the joint measurement
   distribution; it does NOT preserve the final statevector on qubits no
   tracepoint or measurement observes, so it is a pass for
   characterization pipelines rather than general circuit rewriting. *)
let prune_lightcone_cert c =
  Obs.Span.with_ ~name:"passes.prune_lightcone" @@ fun () ->
  let keep = Analysis.Lightcone.union_keep c in
  let _, k, pruned, mapped_rev, obls_rev =
    List.fold_left
      (fun (i, k, acc, mapped, obls) instr ->
        if keep.(i) then
          (i + 1, k + 1, Circuit.add instr acc, (i, k) :: mapped, obls)
        else
          (i + 1, k, acc, mapped, Certify.Outside_cone { index = i } :: obls))
      ( 0,
        0,
        Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c),
        [],
        [] )
      (Circuit.instrs c)
  in
  ignore k;
  let step =
    {
      Certify.pass = "prune_lightcone";
      obligations = List.rev obls_rev;
      mapped = List.rev mapped_rev;
      output = Certify.Circ pruned;
    }
  in
  (pruned, step)

let prune_lightcone c = fst (prune_lightcone_cert c)
