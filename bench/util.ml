(* Shared helpers for the experiment harness. *)

open Morphcore

let dm_of_state st =
  let v = Qstate.Statevec.to_cvec st in
  Linalg.Cmat.outer v v

let basis_dm n k = dm_of_state (Qstate.Statevec.basis n k)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [timed ~name f] is the shared timing helper for the experiment
   kernels: it runs [f] inside an [Obs] span (so profile traces show the
   experiment phases) and reports the MEDIAN wall time over
   [MORPHQPV_BENCH_REPS] repetitions (default 3) to tame host-timing
   variance on shared runners. The result is the first repetition's.
   Only hand it idempotent closures — [f] runs [reps] times; keep
   side-effecting code on single-shot [time]. *)
let bench_reps () =
  match Sys.getenv_opt "MORPHQPV_BENCH_REPS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ -> 3)
  | None -> 3

(* [timed_samples] additionally returns every repetition's wall time (in
   run order) so the caller can hand them to [record ~samples] — the
   bench-regression gate needs >= 2 samples per row to run a t-test. *)
let timed_samples ?reps ~name f =
  let reps = max 1 (match reps with Some r -> r | None -> bench_reps ()) in
  let samples = ref [] in
  let result = ref None in
  for _ = 1 to reps do
    let r, dt = Obs.Span.with_ ~name (fun () -> time f) in
    if !result = None then result := Some r;
    samples := dt :: !samples
  done;
  let samples = List.rev !samples in
  let sorted = List.sort compare samples in
  let median = List.nth sorted (reps / 2) in
  (Option.get !result, median, samples)

let timed ?reps ~name f =
  let r, median, _ = timed_samples ?reps ~name f in
  (r, median)

let header title =
  Printf.printf "\n==== %s ====\n%!" title

let row fmt = Printf.printf (fmt ^^ "\n%!")

(* set by an experiment whose correctness gate failed: the harness still
   writes BENCH_results.json, then exits 1 *)
let gate_failed = ref false

(* ------------- machine-readable results (BENCH_results.json) ------------- *)

(* rows of (name, wall seconds, speedup vs sequential, domain count, and —
   for the fuzz experiment — passed/failed case counts), recorded by the
   driver and the perf/fuzz experiments, written once per run so the perf
   and correctness trajectories are tracked across PRs *)
type bench_row = {
  name : string;
  seconds : float;
  samples : float list;
      (** per-repetition wall times behind [seconds] (see
          [timed_samples]); the regression gate ([bench check]) t-tests
          these, so rows that leave it empty are compared on counters
          only *)
  speedup : float option;
  domains : int;
  cases : (int * int) option;  (** (passed, failed) *)
  ops : (int * int) option;
      (** (before, after) operator applications per sample, for the
          segment-fusion rows *)
  metrics : (string * int) list;
      (** counter deltas ([name{k=v}] keys) accumulated since the
          previous [record] — the per-kernel denominators (gates, shots,
          MACs); empty when observability is disabled *)
}

let bench_rows : bench_row list ref = ref []

(* counter values as of the last [record] call, so each row carries only
   the work done by its own experiment *)
let counter_baseline : (string, int) Hashtbl.t = Hashtbl.create 64

let counter_delta () =
  List.filter_map
    (fun (key, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt counter_baseline key) in
      Hashtbl.replace counter_baseline key v;
      if v > prev then Some (key, v - prev) else None)
    (Obs.Metrics.counters ())

(* re-running an experiment REPLACES its row (keyed by [name]) rather
   than growing duplicates across driver invocations in one process *)
let record name ~seconds ?(samples = []) ?speedup ?cases ?ops ~domains () =
  let metrics = counter_delta () in
  bench_rows :=
    { name; seconds; samples; speedup; domains; cases; ops; metrics }
    :: List.filter (fun r -> r.name <> name) !bench_rows

(* [prev_path "BENCH_results.json"] is ["BENCH_results.prev.json"] *)
let prev_path path =
  if Filename.check_suffix path ".json" then
    Filename.chop_suffix path ".json" ^ ".prev.json"
  else path ^ ".prev"

let row_json
    { name; seconds; samples; speedup; domains; cases; ops; metrics } =
  let num x = Jsonx.Num x in
  let pair (ka, kb) = function
    | Some (a, b) -> [ (ka, Jsonx.int a); (kb, Jsonx.int b) ]
    | None -> []
  in
  Jsonx.Obj
    ([ ("name", Jsonx.Str name); ("seconds", num seconds) ]
    @ (if samples = [] then []
       else [ ("samples", Jsonx.List (List.map num samples)) ])
    @ [
        ("speedup", Option.fold ~none:Jsonx.Null ~some:num speedup);
        ("domains", Jsonx.int domains);
      ]
    @ pair ("passed", "failed") cases
    @ pair ("ops_before", "ops_after") ops
    @ [
        ("obs_schema", Jsonx.Str Obs.Metrics.schema);
        ( "metrics",
          Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.int v)) metrics) );
      ])

let write_bench_json path =
  (* keep the previous run around so [bench check] can compare the last
     two runs for statistically significant regressions *)
  if Sys.file_exists path then Sys.rename path (prev_path path);
  let doc =
    Jsonx.Obj
      [
        ("schema", Jsonx.Str "morphqpv-bench-v2");
        ("default_domains", Jsonx.int (Parallel.Pool.env_domains ()));
        ("results", Jsonx.List (List.rev_map row_json !bench_rows));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.to_string doc);
      output_char oc '\n')

let mean = Stats.Describe.mean

(* doubling search: smallest sample count (from [start], capped at [cap])
   for which [detect count] succeeds; returns [None] if the cap fails too *)
let min_samples_doubling ~start ~cap detect =
  let rec go count =
    if count > cap then None
    else if detect count then Some count
    else go (count * 2)
  in
  go start

(* mean probe accuracy of an approximation at [tracepoint] over [count]
   Haar-random inputs *)
let probe_accuracy ?(count = 10) rng approx program ~tracepoint =
  mean (Verify.probe_accuracies ~rng ~count approx program ~tracepoint)

(* The five benchmark programs of Table 3, parameterized by total qubits.
   Each returns a [Program.t] whose first/last tracepoints are 1/2 and an
   optional note about the construction. *)
let benchmark_program rng name n =
  match name with
  | "QL" ->
      let lock = Benchmarks.Quantum_lock.make ~key:1 (n - 1) in
      Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
        lock.Benchmarks.Quantum_lock.circuit
  | "QNN" ->
      let qnn = Benchmarks.Qnn.init rng ~num_qubits:n ~layers:2 in
      Program.make (Benchmarks.Qnn.body qnn)
  | "QEC" ->
      (* unitary encode + syndrome structure of the distance-n repetition
         code (n data qubits, n-1 ancillas); tracepoints cover the data
         block, which carries the logical information the assertion checks *)
      (* phase defects inside the repetition code live in coherences BETWEEN
         the data and ancilla blocks, so the tracepoints must cover the full
         register; the distance is capped (total <= 9 qubits) to keep those
         full-register density matrices tractable *)
      let d = min 5 (if n mod 2 = 0 then n + 1 else max 3 n) in
      let total = (2 * d) - 1 in
      let data = List.init total (fun q -> q) in
      let c = ref (Circuit.empty total) in
      c := Circuit.tracepoint 1 data !c;
      for i = 1 to d - 1 do
        c := Circuit.cx 0 i !c
      done;
      for i = 0 to d - 2 do
        c := Circuit.cx i (d + i) !c;
        c := Circuit.cx (i + 1) (d + i) !c
      done;
      c := Circuit.tracepoint 2 data !c;
      Program.make !c
  | "Shor" ->
      let counting = n - 1 in
      Program.make (Benchmarks.Shor_period.circuit ~counting ~phase:0.25)
  | "XEB" -> Program.make (Benchmarks.Xeb.make rng ~n ~depth:(max 4 n))
  | _ -> invalid_arg ("unknown benchmark " ^ name)

let benchmark_names = [ "QL"; "QNN"; "QEC"; "Shor"; "XEB" ]

(* restrict a program's variable input so characterization stays tractable
   (the paper's Strategy-const; MorphQPV's cost depends on input qubits) *)
let cap_input_qubits program ~max_inputs =
  let qs = program.Program.input_qubits in
  if List.length qs <= max_inputs then program
  else
    Prune.strategy_const program
      ~variable_qubits:(List.filteri (fun i _ -> i < max_inputs) qs)

(* First/last tracepoint ids of a program (used to pick assertion targets). *)
let first_last_tracepoints program =
  match Circuit.tracepoints program.Program.circuit with
  | [] -> invalid_arg "program has no tracepoints"
  | tps ->
      let ids = List.map fst tps in
      (List.hd ids, List.nth ids (List.length ids - 1))

(* Detector factory for mutation testing: characterize the reference ONCE,
   then measure the worst deviation of a candidate's approximation from the
   reference's over random probe inputs, across the given tracepoints
   (default: every tracepoint both programs share, reflecting MorphQPV's
   multi-state assertions). *)
let deviation_detector ?(probes = 12) ?tracepoints rng ~reference ~count =
  let k = Program.num_input_qubits reference in
  let inputs = List.init count (fun index ->
      Clifford.Sampling.state rng Clifford.Sampling.Clifford k ~index)
  in
  let ref_ap =
    Approx.of_characterization (Characterize.run ~rng ~inputs reference ~count:0)
  in
  let probe_dms =
    Array.init probes (fun _ -> dm_of_state (Clifford.Sampling.haar_state rng k))
  in
  fun candidate ->
    let cand_ap =
      Approx.of_characterization (Characterize.run ~rng ~inputs candidate ~count:0)
    in
    let tracepoints =
      match tracepoints with
      | Some tps -> tps
      | None ->
          List.filter
            (fun tp -> tp <> 0 && List.mem tp (Approx.tracepoint_ids cand_ap))
            (Approx.tracepoint_ids ref_ap)
    in
    let worst = ref 0. in
    Array.iter
      (fun rho ->
        List.iter
          (fun tracepoint ->
            let a = Approx.state_at ~physical:false ref_ap ~tracepoint rho in
            let b = Approx.state_at ~physical:false cand_ap ~tracepoint rho in
            let d = Linalg.Cmat.frob_norm (Linalg.Cmat.sub a b) in
            if d > !worst then worst := d)
          tracepoints)
      probe_dms;
    !worst

(* Mutation testing per the paper requires every test case to carry a real
   bug: reject "equivalent mutants" whose phase gate provably does not change
   the program's behaviour on the variable input space (checked exactly on a
   handful of Haar inputs, full final state, phase-sensitive). *)
(* qubits that some tracepoint watches or that carry input — mutations on
   other wires can never surface in a tracepoint assertion *)
let watched_qubits program =
  List.sort_uniq compare
    (program.Program.input_qubits
    @ List.concat_map snd (Circuit.tracepoints program.Program.circuit))

let nonequivalent_mutant ?qubits rng program =
  let k = Program.num_input_qubits program in
  let differs candidate =
    (* a real bug must change some TRACEPOINT state for some input in the
       variable input space — a difference no tracepoint-based assertion
       could ever observe does not count as a test case *)
    let probes = 2 in
    let found = ref false in
    for _ = 1 to probes do
      if not !found then begin
        let input = Clifford.Sampling.haar_state rng k in
        let tr p = Program.run_traces p ~input in
        let a = tr program and b = tr candidate in
        List.iter
          (fun (id, ma) ->
            match List.assoc_opt id b with
            | Some mb ->
                if Linalg.Cmat.frob_norm (Linalg.Cmat.sub ma mb) > 1e-7 then
                  found := true
            | None -> ())
          a
      end
    done;
    !found
  in
  let rec go attempts =
    if attempts = 0 then None
    else
      let m = Benchmarks.Mutation.inject ?qubits rng program.Program.circuit in
      let candidate =
        Program.make ~input_qubits:program.Program.input_qubits
          m.Benchmarks.Mutation.circuit
      in
      if differs candidate then Some candidate else go (attempts - 1)
  in
  go 10
