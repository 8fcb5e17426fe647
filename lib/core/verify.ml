open Linalg

type verdict =
  | Verified of { confidence : Confidence.t; max_objective : float }
  | Violated of {
      counterexample : Cmat.t;
      alpha : float array;
      objective : float;
    }

type options = {
  solver : Optimize.Solvers.method_;
  budget : int;
  restarts : int;
}

let default_options = { solver = `Qp; budget = 6_000; restarts = 2 }
let epsilon_obj = 0.05
let epsilon_acc = 0.5

let guarantee_objective assertion env =
  List.fold_left
    (fun acc p -> Float.max acc (Predicate.eval p env))
    neg_infinity assertion.Assertion.guarantees

type evaluator = {
  objective : float array -> float;
  constraints : (float array -> float) list;
  env : float array -> Predicate.env;
}

let same_bits a b =
  Array.length a = Array.length b
  &&
  let same = ref true and i = ref 0 in
  while !same && !i < Array.length a do
    same := Int64.equal (Int64.bits_of_float a.(!i)) (Int64.bits_of_float b.(!i));
    incr i
  done;
  !same

(* the slot of tracepoint [tp] among [ids], the input's slot 0 first *)
let rec slot ids tp s =
  if s >= Array.length ids then raise Not_found
  else if ids.(s) = tp then s
  else slot ids tp (s + 1)

(* The environment over tracepoints for one alpha, built in buffers the
   evaluator owns. The candidate input is made physical
   ([Approx.physical_into]: PSD projection and re-decomposition, in the
   sampled inputs' range); every tracepoint, the input included, is then
   recombined from the SAME physical coefficients and the original
   states, so predicates compare exactly the characterized relation
   rather than approximation residue. The projection runs on the first
   read at an alpha, and each tracepoint on its own first read; the
   objective and every constraint at that alpha share them. *)
let evaluator (approx : Approx.t) assertion =
  let n = Approx.n_sample approx in
  let ws = Approx.workspace approx in
  let phys = Array.make n 0. in
  (* slot 0 is the input, slot s > 0 the s-th recorded tracepoint *)
  let ids = Array.of_list (0 :: List.map fst approx.Approx.outputs) in
  let states =
    Array.of_list (approx.Approx.inputs :: List.map snd approx.Approx.outputs)
  in
  let bufs =
    Array.map
      (fun s ->
        let r, _ = Cmat.dims s.(0) in
        Cmat.create r r)
      states
  in
  (* [gen] counts the alphas seen; a buffer is current when its stamp is
     [gen] *)
  let alpha = Array.make n 0. and gen = ref 0 in
  let phys_gen = ref 0 and stamps = Array.make (Array.length ids) 0 in
  let set x =
    if !gen = 0 || not (same_bits x alpha) then begin
      Array.blit x 0 alpha 0 n;
      incr gen
    end
  in
  let make_physical () =
    if !phys_gen <> !gen then begin
      phys_gen := !gen;
      Approx.physical_into ws alpha ~dst:phys
    end
  in
  let env tp =
    let s = if tp = 0 then 0 else slot ids tp 1 in
    if stamps.(s) <> !gen then begin
      make_physical ();
      Approx.combine_into states.(s) phys ~dst:bufs.(s);
      stamps.(s) <- !gen
    end;
    bufs.(s)
  in
  let at x =
    set x;
    env
  in
  {
    objective = (fun x -> guarantee_objective assertion (at x));
    constraints =
      List.map (fun p x -> Predicate.eval p (at x)) assertion.Assertion.assumes;
    env = at;
  }

(* dominant eigenvector of a density matrix, as a pure-state input *)
let dominant_eigenvector rho =
  let n = Cmat.num_qubits rho in
  let w, v = Eig.hermitian rho in
  let top = Array.length w - 1 in
  Qstate.Statevec.of_cvec n (Cvec.normalize (Cmat.col v top))

let nearest_basis_state rho =
  let d, _ = Cmat.dims rho in
  let n = Cmat.num_qubits rho in
  let best = ref 0 and best_p = ref neg_infinity in
  for i = 0 to d - 1 do
    let p = Cx.re (Cmat.get rho i i) in
    if p > !best_p then begin
      best := i;
      best_p := p
    end
  done;
  Qstate.Statevec.basis n !best

let check_on_program ?rng ?tol program assertion ~input =
  let traces = Program.run_traces ?rng program ~input in
  let env tp =
    match List.assoc_opt tp traces with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Verify.check_on_program: no tracepoint %d" tp)
  in
  Assertion.holds ?tol assertion env

let confidence approx =
  Confidence.estimate ~epsilon:epsilon_acc ~n_in:approx.Approx.n_in
    ~n_sample:(Approx.n_sample approx) [||]

let violates ?rng program assertion input =
  not (check_on_program ?rng ~tol:0.02 program assertion ~input)

let confirmed_violation ?rng confirm assertion counterexample =
  match confirm with
  | None -> true
  | Some program ->
      List.exists
        (violates ?rng program assertion)
        [ dominant_eigenvector counterexample; nearest_basis_state counterexample ]

(* The solver: maximize the guarantee objective under the assumption
   penalties from [restarts] starting points, replaying each feasible
   candidate above the tolerance on [confirm]. A [Verified] verdict
   carries the largest value over the feasible restarts, refuted
   candidates included; infeasible restarts never count. *)
let solve ~options ~rng ?confirm approx assertion =
  if Obs.enabled () then
    Obs.Metrics.counter_add "verify_restarts_total" (max 1 options.restarts);
  let dim = Approx.n_sample approx in
  let ev = evaluator approx assertion in
  let objective = Optimize.Objective.make ~dim ev.objective in
  let constraints = ev.constraints in
  let problem = { Optimize.Constrained.objective; constraints } in
  let rec restart k best =
    if k = 0 then
      Verified { confidence = confidence approx; max_objective = best }
    else
      let sol =
        Optimize.Constrained.maximize
          ~budget:(options.budget / max 1 options.restarts)
          ~method_:options.solver rng problem
      in
      let { Optimize.Constrained.x; value; feasible; _ } = sol in
      if not feasible then restart (k - 1) best
      else if value > epsilon_obj then
        let counterexample = Eig.project_psd (ev.env x 0) in
        if confirmed_violation ~rng confirm assertion counterexample then
          Violated { counterexample; alpha = x; objective = value }
        else restart (k - 1) (Float.max best value)
      else restart (k - 1) (Float.max best value)
  in
  restart (max 1 options.restarts) neg_infinity

(* ---------- norm guarantees: two bounds before the solver ---------- *)

(* the tracepoint's states over the samples, the sampled inputs as id 0 *)
let states_of (approx : Approx.t) tp =
  if tp = 0 then Some approx.Approx.inputs
  else List.assoc_opt tp approx.Approx.outputs

(* every guarantee as [(states of A, states of B, allowed distance)], when
   each is [Equals] or [Distance_le] between known tracepoints of one
   width *)
let norm_guarantees approx assertion =
  let norm p =
    let pair a b d =
      match (states_of approx a, states_of approx b) with
      | Some sa, Some sb when Cmat.dims sa.(0) = Cmat.dims sb.(0) ->
          Some (sa, sb, d)
      | _ -> None
    in
    match p with
    | Predicate.Equals (a, b) -> pair a b 0.
    | Predicate.Distance_le (a, b, d) -> pair a b d
    | _ -> None
  in
  List.fold_right
    (fun p acc ->
      match (norm p, acc) with
      | Some g, Some gs -> Some (g :: gs)
      | _ -> None)
    assertion.Assertion.guarantees (Some [])

(* ||D G||_F for D whose rows are the real and the imaginary part of one
   entry of sigma_a,i - sigma_b,i over the samples i: the evaluator's
   value ||sum_i phys_i (sigma_a,i - sigma_b,i)||_F is ||D G v|| for the
   HS encoding v of a unit-trace PSD matrix, and ||v|| <= 1 *)
let guarantee_bound g (sa, sb, d) =
  let n = Array.length sa in
  let entries = Array.length sa.(0).Cmat.re in
  let dm = Rmat.create (2 * entries) n in
  for i = 0 to n - 1 do
    let a = sa.(i) and b = sb.(i) in
    for k = 0 to entries - 1 do
      Rmat.set dm k i (a.Cmat.re.(k) -. b.Cmat.re.(k));
      Rmat.set dm (entries + k) i (a.Cmat.im.(k) -. b.Cmat.im.(k))
    done
  done;
  let dg = Rmat.mul dm g in
  let rows, cols = Rmat.dims dg in
  let s = ref 0. in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let x = Rmat.get dg r c in
      s := !s +. (x *. x)
    done
  done;
  sqrt !s -. d

let upper_bound approx norms =
  let g = Lazy.force approx.Approx.lstsq_map in
  List.fold_left
    (fun acc n -> Float.max acc (guarantee_bound g n))
    neg_infinity norms

let norm_bound approx assertion =
  Option.map (upper_bound approx) (norm_guarantees approx assertion)

let sample_env (approx : Approx.t) i tp =
  match states_of approx tp with
  | Some states -> states.(i)
  | None -> raise Not_found

let best_sample approx assertion =
  let best = ref None in
  for i = 0 to Approx.n_sample approx - 1 do
    let env = sample_env approx i in
    if
      List.for_all
        (fun p -> Predicate.eval p env <= Optimize.Constrained.feasible_tol)
        assertion.Assertion.assumes
    then begin
      let v = guarantee_objective assertion env in
      match !best with
      | Some (_, b) when not (v > b) -> ()
      | _ -> best := Some (i, v)
    end
  done;
  !best

(* the largest guarantee value over the feasible samples, when it breaks
   the tolerance and the sample's own input violates the assertion on
   [confirm]. The replay draws from a generator derived from [rng]'s
   state, so a refuted sample leaves the solver's stream as it was. *)
let sample_violation ~rng ?confirm approx assertion =
  match best_sample approx assertion with
  | Some (i, objective) when objective > epsilon_obj ->
      let counterexample = Cmat.copy approx.Approx.inputs.(i) in
      let replay = Stats.Rng.make (Stats.Rng.fingerprint rng) in
      let confirmed =
        match confirm with
        | None -> true
        | Some program ->
            violates ~rng:replay program assertion
              (dominant_eigenvector counterexample)
      in
      if confirmed then
        Some
          (Violated
             {
               counterexample;
               alpha =
                 Array.init (Approx.n_sample approx) (fun j ->
                     if j = i then 1. else 0.);
               objective;
             })
      else None
  | _ -> None

let validate_direct ?(options = default_options) ?rng ?confirm approx assertion =
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 11 in
  let verdict, by =
    Obs.Span.with_ ~name:"verify.validate"
      ~finish:(fun (_, by) -> [ ("by", by) ])
    @@ fun () ->
    let solver () = (solve ~options ~rng ?confirm approx assertion, "solver") in
    match norm_guarantees approx assertion with
    | Some norms -> (
        match sample_violation ~rng ?confirm approx assertion with
        | Some v -> (v, "sample")
        | None ->
            let bound = upper_bound approx norms in
            (* the evaluator's rounding can exceed the exact bound *)
            if bound <= epsilon_obj -. 1e-9 then
              let confidence = confidence approx in
              (Verified { confidence; max_objective = bound }, "bound")
            else solver ())
    | _ -> solver ()
  in
  if Obs.enabled () then
    Obs.Metrics.counter_add ~labels:[ ("by", by) ] "verify_decided_total" 1;
  verdict

(* Verdict memo: the key folds in everything the verdict is a function
   of — the characterized relation (the approximation's data fields; its
   lazy basis, factor and least-squares map are derived from them), the
   assertion, the solver options, the entry generator fingerprint and the
   confirmation program. Unlike the characterization layer, a hit does
   NOT replay the solver's generator consumption (that would cost the
   solve being skipped), so callers memoizing verdicts should give
   [validate] a generator whose continuation they don't rely on — every
   orchestration layer here (CLI, server, bench) uses it as the final
   consumer. *)
let validate ?(options = default_options) ?rng ?confirm ?cache approx assertion =
  match cache with
  | None -> validate_direct ~options ?rng ?confirm approx assertion
  | Some cache ->
      let rng = match rng with Some r -> r | None -> Stats.Rng.make 11 in
      let confirm_fp =
        match confirm with
        | None -> "none"
        | Some p ->
            Cache.Canon.exact_bytes p.Program.circuit
            ^ Marshal.to_string p.Program.input_qubits []
      in
      let key =
        Cache.Canon.digest
          (String.concat "\x00"
             [
               "verdict-v4";
               Cache.Canon.digest
                 (Marshal.to_string
                    ( approx.Approx.n_in,
                      approx.Approx.inputs,
                      approx.Approx.outputs )
                    []);
               Marshal.to_string assertion [];
               Marshal.to_string options [];
               string_of_int (Stats.Rng.fingerprint rng);
               confirm_fp;
             ])
      in
      Cache.memo cache ~ns:"verdict" key (fun () ->
          validate_direct ~options ~rng ?confirm approx assertion)

let minimize_counterexample ?rng ?(tol = 0.02) program assertion
    ~counterexample =
  let d, _ = Cmat.dims counterexample in
  let n = Cmat.num_qubits counterexample in
  let violates input = not (check_on_program ?rng ~tol program assertion ~input) in
  (* candidate basis states, heaviest first *)
  let weights =
    List.init d (fun k -> (k, Cx.re (Cmat.get counterexample k k)))
    |> List.filter (fun (_, w) -> w > 0.02)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let basis_candidates = List.map (fun (k, _) -> Qstate.Statevec.basis n k) weights in
  let dominant = dominant_eigenvector counterexample in
  match List.find_opt violates basis_candidates with
  | Some simple -> simple
  | None -> dominant

(* -------------- distribution-level assertions on counts --------------- *)

type counts_result = {
  counts_hold : bool;
  test : Stats.Tests.result;
  shots_used : int;
  early_stop : bool;
}

(* contamination rate of the SPRT alternative: H1 mixes a fraction
   [contamination] of noise uniform over the FULL basis-state space into
   the expected distribution, making the sequential test a valid
   simple-vs-simple SPRT. Uniform over the whole space (not just the
   listed categories) keeps H1 distinct from H0 even when the expected
   distribution is itself uniform over its categories. *)
let contamination = 0.2

(* the budget counters every sequential stop records, plus the early-stop
   log line of verify's own SPRTs *)
let seq_counters ~cap ~used ~early =
  Tomography.State_tomo.seq_counters ~cap ~used ~early;
  if early then
    Obs.Log.emit Obs.Log.Info "verify.early_stop"
      [
        ("cap", Jsonx.int cap);
        ("shots", Jsonx.int used);
        ("saved", Jsonx.int (cap - used));
      ]

let check_counts ?(budget = `Fixed 2048) ?rng ?noise program
    (dist : Assertion.Dist.t) ~input =
  Obs.Span.with_ ~name:"verify.check_counts" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 17 in
  let initial = Program.embed program input in
  let circuit = program.Program.circuit in
  let expected = dist.Assertion.Dist.expected in
  let other = Assertion.Dist.other_mass dist in
  let m = List.length expected in
  (* category layout: one per listed basis index, plus a pooled "other"
     bucket when the expectation leaves it mass *)
  let has_other = other > 1e-12 in
  let k_cat = m + if has_other then 1 else 0 in
  let probs =
    Array.init k_cat (fun i ->
        if i < m then snd (List.nth expected i) else other)
  in
  let index_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (k, _) -> Hashtbl.add tbl k i) expected;
    fun k -> match Hashtbl.find_opt tbl k with Some i -> i | None -> m
  in
  let counts = Array.make (m + 1) 0 in
  let draw shots =
    List.iter
      (fun (k, c) -> counts.(index_of k) <- counts.(index_of k) + c)
      (Sim.Engine.sample_counts ~rng ?noise ~initial ~shots circuit)
  in
  let total () = Array.fold_left ( + ) 0 counts in
  (* final fixed-budget decision rule on whatever counts were taken; the
     same rule closes the sequential path at max_shots, so the two
     budgets agree by construction once the cap is reached *)
  let decide_fixed significance =
    let s = total () in
    let sf = float_of_int s in
    if counts.(m) > 0 && not has_other then
      (* outcome the expectation gave zero mass: certain violation *)
      ( false,
        {
          Stats.Tests.statistic = infinity;
          pvalue = 0.;
          df = float_of_int (k_cat - 1);
        } )
    else if k_cat < 2 then
      (* point-mass expectation matched exactly *)
      (true, { Stats.Tests.statistic = 0.; pvalue = 1.; df = 0. })
    else begin
      let observed =
        Array.init k_cat (fun i -> float_of_int counts.(i))
      in
      let expected_counts = Array.map (fun p -> Float.max (p *. sf) 1e-9) probs in
      let test = Stats.Tests.chi2_gof ~expected:expected_counts observed in
      (test.Stats.Tests.pvalue >= significance, test)
    end
  in
  match budget with
  | `Fixed shots ->
      if shots <= 0 then invalid_arg "Verify.check_counts: non-positive shots";
      draw shots;
      let holds, test = decide_fixed dist.Assertion.Dist.significance in
      { counts_hold = holds; test; shots_used = shots; early_stop = false }
  | `Sequential { Stats.Tests.alpha; beta; max_shots = cap } ->
      if cap <= 0 then invalid_arg "Verify.check_counts: non-positive max_shots";
      (* per-category LLR of H1 = (1-delta) expected + delta uniform over
         all 2^n outcomes against H0 = expected; a category H0 calls
         impossible forces an immediate reject when observed *)
      let d_f = Float.pow 2. (float_of_int (Circuit.num_qubits circuit)) in
      let q1 =
        Array.init k_cat (fun i ->
            let leak =
              if i < m then contamination /. d_f
              else contamination *. (d_f -. float_of_int m) /. d_f
            in
            ((1. -. contamination) *. probs.(i)) +. leak)
      in
      let llr_cat =
        Array.init k_cat (fun i ->
            if probs.(i) <= 0. then infinity else log (q1.(i) /. probs.(i)))
      in
      let sprt = ref (Stats.Sprt.make ~alpha ~beta) in
      let block = max 64 (cap / 32) in
      let verdict = ref Stats.Sprt.Continue in
      let prev = Array.make (m + 1) 0 in
      (* Haybittle–Peto-style stringent interim boundary: the SPRT's
         simple contamination alternative cannot represent every
         deviation direction, so each interim look also rejects outright
         on an overwhelming chi-square — barely inflating the overall
         type-I error while catching deviations the mixture misses *)
      let interim = Float.min 0.001 (alpha /. 10.) in
      while !verdict = Stats.Sprt.Continue && total () < cap do
        let b = min block (cap - total ()) in
        Array.blit counts 0 prev 0 (m + 1);
        draw b;
        (* fold the block's per-category increments into the SPRT *)
        let s = ref !sprt in
        for i = 0 to m do
          let dc = counts.(i) - prev.(i) in
          if dc > 0 then
            if i = m && not has_other then
              (* impossible outcome observed: force a reject *)
              s := Stats.Sprt.observe_llr !s infinity
            else
              s := Stats.Sprt.observe_llr !s (float_of_int dc *. llr_cat.(i))
        done;
        sprt := !s;
        let interim_holds, _ = decide_fixed interim in
        verdict :=
          (if not interim_holds then Stats.Sprt.Reject_h0
           else Stats.Sprt.decide !s)
      done;
      let used = total () in
      let early = used < cap in
      seq_counters ~cap ~used ~early;
      let fixed_holds, test = decide_fixed alpha in
      let holds =
        match !verdict with
        | Stats.Sprt.Accept_h0 -> true
        | Stats.Sprt.Reject_h0 -> false
        | Stats.Sprt.Continue -> fixed_holds
      in
      { counts_hold = holds; test; shots_used = used; early_stop = early }

let probe_accuracies ?rng ?(count = 20) approx program ~tracepoint =
  Obs.Span.with_ ~name:"verify.probe_accuracies" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 23 in
  let k = Program.num_input_qubits program in
  let accuracy_of input truth =
    let v = Qstate.Statevec.to_cvec input in
    let rho_in = Cmat.outer v v in
    Approx.accuracy (Approx.state_at approx ~tracepoint rho_in) truth
  in
  if Sim.Engine.is_deterministic program.Program.circuit then begin
    (* measurement-free probes consume no generator draws beyond the input
       sampling, so all inputs can be drawn up front (same stream as the
       interleaved loop below) and the ground truth computed in one
       segment-compiled batch *)
    let inputs =
      Array.init count (fun _ -> Clifford.Sampling.haar_state rng k)
    in
    let plan = Transpile.Segments.compile program.Program.circuit in
    let traces =
      Sim.Batch.run_traces plan ~count ~init:(fun i ->
          Program.embed program inputs.(i))
    in
    Array.init count (fun i ->
        let truth =
          if tracepoint = 0 then
            let v = Qstate.Statevec.to_cvec inputs.(i) in
            Cmat.outer v v
          else List.assoc tracepoint traces.(i)
        in
        accuracy_of inputs.(i) truth)
  end
  else
    Array.init count (fun _ ->
        let input = Clifford.Sampling.haar_state rng k in
        let truth =
          List.assoc tracepoint (Program.run_traces ~rng program ~input)
        in
        accuracy_of input truth)

(* ------------------- certified transpilation (MQ021) ------------------- *)

type certify_report = {
  certified : bool;
  cert_summary : Transpile.Certify.summary;
  cert_failures : Transpile.Certify.failure list;
  cert_plan : Sim.Batch.plan;
}

let certify_transpile ?cache ?locs circuit =
  let optimized, opt_steps = Transpile.Passes.optimize_cert circuit in
  let pruned, prune_step = Transpile.Passes.prune_lightcone_cert optimized in
  let plan, seg_step = Transpile.Segments.compile_cert ?cache pruned in
  let cert = opt_steps @ [ prune_step; seg_step ] in
  match Transpile.Certify.check_plan ?locs cert circuit plan with
  | Ok summary ->
      {
        certified = true;
        cert_summary = summary;
        cert_failures = [];
        cert_plan = plan;
      }
  | Error failures ->
      {
        certified = false;
        cert_summary = Transpile.Certify.summarize cert;
        cert_failures = failures;
        cert_plan = plan;
      }

(* MQ021 lives in lint's code table, but the certificate checker sits
   above the analysis library, so the records are built here *)
let certify_diagnostics failures =
  List.map
    (fun (f : Transpile.Certify.failure) ->
      {
        Analysis.Lint.severity = Analysis.Lint.Error;
        code = "MQ021";
        message = Transpile.Certify.failure_message f;
        loc = f.Transpile.Certify.loc;
        instr = f.Transpile.Certify.before_index;
      })
    failures
