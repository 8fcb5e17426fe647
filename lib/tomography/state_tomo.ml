open Linalg
open Qstate

type result = { rho : Cmat.t; settings : int; shots_used : int }

let noisy_expectation rng ~shots e =
  if shots <= 0 then e
  else
    let e = Float.min 1. (Float.max (-1.) e) in
    let p_plus = (1. +. e) /. 2. in
    let k = Stats.Rng.binomial rng ~n:shots ~p:p_plus in
    (2. *. float_of_int k /. float_of_int shots) -. 1.

let settings_count n =
  let rec pow acc k = if k = 0 then acc else pow (acc * 3) (k - 1) in
  pow 1 n

let reconstruct n terms =
  let d = 1 lsl n in
  let acc = ref (Cmat.create d d) in
  let has_identity = ref false in
  List.iter
    (fun (p, e) ->
      if Pauli.weight p = 0 then has_identity := true;
      if e <> 0. then acc := Cmat.add !acc (Cmat.rscale e (Pauli.matrix p)))
    terms;
  if not !has_identity then acc := Cmat.add !acc (Cmat.identity d);
  Cmat.rscale (1. /. float_of_int d) !acc

(* ----------------- sequential (adaptive) shot budgets -----------------

   Variance-matched stopping rule: keep drawing shot blocks for an
   estimate until its (smoothed) standard error is no worse than the one
   a full fixed budget of [cap] shots would give in the worst case
   (p = 1/2), i.e. stop at the first block boundary where
   p~ (1 - p~) / s <= 0.25 / cap with p~ = (k + 1) / (s + 2). Sharply
   peaked outcomes — deterministic programs especially — stop after
   O(sqrt cap) shots; maximally noisy ones run to [cap], reproducing the
   fixed budget. The SPRT verdict layer sits above, in Verify. *)

let seq_block cap = max 16 (cap / 32)

let seq_counters ~cap ~used ~early =
  if Obs.enabled () then begin
    if cap > used then
      Obs.Metrics.counter_add "verify_shots_saved_total" (cap - used);
    if early then Obs.Metrics.counter_add "verify_early_stop_total" 1
  end

(* sequential binomial estimate of a Bernoulli rate; returns (k, s) *)
let sequential_binomial rng ~cap p =
  let block = seq_block cap in
  let k = ref 0 and s = ref 0 in
  let stop = ref false in
  while (not !stop) && !s < cap do
    let b = min block (cap - !s) in
    k := !k + Stats.Rng.binomial rng ~n:b ~p;
    s := !s + b;
    let sf = float_of_int !s in
    let pt = (float_of_int !k +. 1.) /. (sf +. 2.) in
    if pt *. (1. -. pt) /. sf <= 0.25 /. float_of_int cap then stop := true
  done;
  (!k, !s)

let sequential_expectation rng ~cap e =
  let e = Float.min 1. (Float.max (-1.) e) in
  let p_plus = (1. +. e) /. 2. in
  let k, s = sequential_binomial rng ~cap p_plus in
  ((2. *. float_of_int k /. float_of_int s) -. 1., s)

(* canonical measurement setting covering a Pauli string: identity
   factors measured in Z — each of the 3^n local bases serves every
   string assigned to it, so a setting's shot count is the max its
   strings needed *)
let setting_key p =
  String.init (Array.length p) (fun i ->
      match p.(i) with
      | Qstate.Pauli.I | Qstate.Pauli.Z -> 'Z'
      | Qstate.Pauli.X -> 'X'
      | Qstate.Pauli.Y -> 'Y')

let run ?(project = true) ?budget rng ~shots ~truth () =
  Obs.Span.with_ ~name:"tomography.run" @@ fun () ->
  let d, dc = Cmat.dims truth in
  if d <> dc then invalid_arg "State_tomo.run: non-square state";
  let n = Cmat.num_qubits truth in
  if 1 lsl n <> d then invalid_arg "State_tomo.run: dimension not a power of 2";
  let settings = settings_count n in
  match budget with
  | None | Some (`Fixed _) ->
      (* fixed budget: exactly the pre-budget code path (one binomial
         draw per Pauli on the same generator stream) *)
      let shots =
        match budget with Some (`Fixed n) -> n | _ -> shots
      in
      let terms =
        List.map
          (fun p ->
            let e_true = Pauli.expectation_dm p truth in
            let e =
              if Pauli.weight p = 0 then 1.
              else noisy_expectation rng ~shots e_true
            in
            (p, e))
          (Pauli.all n)
      in
      let raw = reconstruct n terms in
      let rho = if project then Eig.project_psd raw else Cmat.hermitize raw in
      if Obs.enabled () then
        Obs.Metrics.counter_add "tomography_shots_total" (settings * shots);
      { rho; settings; shots_used = settings * shots }
  | Some (`Sequential { Stats.Tests.max_shots = cap; _ }) ->
      if cap <= 0 then invalid_arg "State_tomo.run: non-positive max_shots";
      let per_setting = Hashtbl.create 16 in
      let terms =
        List.map
          (fun p ->
            if Pauli.weight p = 0 then (p, 1.)
            else begin
              let e_true = Pauli.expectation_dm p truth in
              let e, s = sequential_expectation rng ~cap e_true in
              let key = setting_key p in
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt per_setting key)
              in
              if s > prev then Hashtbl.replace per_setting key s;
              (p, e)
            end)
          (Pauli.all n)
      in
      let raw = reconstruct n terms in
      let rho = if project then Eig.project_psd raw else Cmat.hermitize raw in
      let used = Hashtbl.fold (fun _ s acc -> acc + s) per_setting 0 in
      if Obs.enabled () then
        Obs.Metrics.counter_add "tomography_shots_total" used;
      seq_counters ~cap:(settings * cap) ~used ~early:(used < settings * cap);
      { rho; settings; shots_used = used }

let probs_only ?budget rng ~shots ~truth () =
  Obs.Span.with_ ~name:"tomography.probs_only" @@ fun () ->
  let d, _ = Cmat.dims truth in
  let true_probs = Array.init d (fun i -> Float.max 0. (Cx.re (Cmat.get truth i i))) in
  let total = Array.fold_left ( +. ) 0. true_probs in
  let norm = if total > 0. then Array.map (fun p -> p /. total) true_probs else true_probs in
  (* multinomial sampling of the diagonal *)
  let counts = Array.make d 0 in
  let draw n =
    for _ = 1 to n do
      let k = Stats.Rng.categorical rng norm in
      counts.(k) <- counts.(k) + 1
    done
  in
  let used =
    match budget with
    | None | Some (`Fixed _) ->
        let shots =
          match budget with Some (`Fixed n) -> n | _ -> shots
        in
        draw shots;
        shots
    | Some (`Sequential { Stats.Tests.max_shots = cap; _ }) ->
        if cap <= 0 then
          invalid_arg "State_tomo.probs_only: non-positive max_shots";
        let block = seq_block cap in
        let s = ref 0 and stop = ref false in
        while (not !stop) && !s < cap do
          let b = min block (cap - !s) in
          draw b;
          s := !s + b;
          (* stop once every category's smoothed standard error matches
             what the full cap would guarantee at worst case p = 1/2 *)
          let sf = float_of_int !s in
          let worst = ref 0. in
          Array.iter
            (fun c ->
              let pt = (float_of_int c +. 1.) /. (sf +. 2.) in
              worst := Float.max !worst (pt *. (1. -. pt)))
            counts;
          if !worst /. sf <= 0.25 /. float_of_int cap then stop := true
        done;
        seq_counters ~cap ~used:!s ~early:(!s < cap);
        !s
  in
  if Obs.enabled () then
    Obs.Metrics.counter_add "tomography_shots_total" used;
  let rho =
    Cmat.init d d (fun i j ->
        if i = j then Cx.of_float (float_of_int counts.(i) /. float_of_int used)
        else Cx.zero)
  in
  { rho; settings = 1; shots_used = used }
