(* cache: warm-vs-cold incremental verification (also run by
   `make bench-smoke`).

   A 6-qubit program with three tracepoints over disjoint two-qubit cones
   is verified end-to-end (characterize -> approximate -> validate) three
   ways against one content-addressed cache:

   - cold:   fresh cache every repetition — every cone unit misses;
   - warm:   the shared cache already holds every unit and the verdict —
             the run must spend zero executions and zero tomography shots
             ([cache_hit_total{ns=characterize}] moves,
             [tomography_shots_total] does not), and reproduce the cold
             traces bit-for-bit;
   - edited: one rotation angle inside the first cone changes — exactly
             that cone re-characterizes (1 unit miss, 2 unit hits; a
             third of the cold run's executions and shots).

   Every printed row is an exactness assertion (counts and bitwise
   comparisons, no timings), so the output is byte-identical across
   domain counts and the smoke diff covers it. Wall seconds land only in
   BENCH_results.json. *)

open Morphcore

let ns_hits () =
  Option.value ~default:0
    (Obs.Metrics.counter_value
       ~labels:[ ("ns", "characterize") ]
       "cache_hit_total")

let ns_misses () =
  Option.value ~default:0
    (Obs.Metrics.counter_value
       ~labels:[ ("ns", "characterize") ]
       "cache_miss_total")

let tomo_shots () =
  Option.value ~default:0 (Obs.Metrics.counter_value "tomography_shots_total")

(* three tracepoints with disjoint backward cones; [theta] sits inside the
   first cone only, so editing it leaves the other two unit hashes — and
   their cache entries — untouched *)
let circuit theta =
  Circuit.(
    empty 6 |> h 0 |> cx 0 1 |> rz theta 1
    |> tracepoint 1 [ 0; 1 ]
    |> h 2 |> cx 2 3 |> t_gate 3
    |> tracepoint 2 [ 2; 3 ]
    |> h 4 |> cx 4 5
    |> tracepoint 3 [ 4; 5 ])

let count = 4
let mode = Characterize.Tomography { shots = 48; project = true }

let options = { Verify.default_options with budget = 150; restarts = 1 }

(* the full pipeline against one cache; a fixed seed makes the unit keys
   (which embed the entry-generator fingerprint) reproducible per run *)
let verify_once ~pool ~cache theta =
  let program = Program.make (circuit theta) in
  let rng = Stats.Rng.make 11 in
  let ch = Characterize.run ~pool ~cache ~rng ~mode program ~count in
  let approx = Approx.of_characterization ch in
  let assertion =
    Assertion.make ~name:"cache-bench" ~assumes:[]
      ~guarantees:[ Predicate.Purity_ge (3, 0.2) ]
      ()
  in
  let verdict =
    Verify.validate ~options ~rng ~confirm:program ~cache approx assertion
  in
  (ch, verdict)

let traces_identical (a : Characterize.t) (b : Characterize.t) =
  Array.length a.Characterize.samples = Array.length b.Characterize.samples
  && Array.for_all2
       (fun (x : Characterize.sample) (y : Characterize.sample) ->
         x.Characterize.traces = y.Characterize.traces)
       a.Characterize.samples b.Characterize.samples

let verified = function Verify.Verified _ -> true | Verify.Violated _ -> false

let run () =
  Util.header "cache: warm-vs-cold incremental verification";
  (* a private sequential pool: the units here are tiny, so scheduling
     overhead — not simulation — would dominate a multi-domain run and
     make the timing rows depend on MORPHQPV_DOMAINS *)
  let pool = Parallel.Pool.create ~domains:1 () in
  let verify_once = verify_once ~pool in
  let domains = 1 in

  (* ---- cold: fresh cache per repetition, every cone misses ---- *)
  let (cold_ch, cold_verdict), t_cold, reps_cold =
    Util.timed_samples ~name:"cache.cold" (fun () ->
        verify_once ~cache:(Cache.create ()) 0.7)
  in
  let cold_exec = cold_ch.Characterize.cost.Sim.Cost.executions in
  let cold_shots = cold_ch.Characterize.cost.Sim.Cost.shots in
  if cold_exec = 0 || cold_shots = 0 then
    failwith "cache: cold run did no quantum work";
  Util.row "cache cold     cones=3  executions=%d shots=%d  verified=%b"
    cold_exec cold_shots (verified cold_verdict);
  Util.record "cache/cold" ~seconds:t_cold ~samples:reps_cold ~domains ();

  (* ---- warm: shared cache, zero quantum work ---- *)
  let cache = Cache.create () in
  ignore (verify_once ~cache 0.7);
  let s0 = Cache.stats cache in
  let hits0 = ns_hits () and shots0 = tomo_shots () in
  let (warm_ch, warm_verdict), t_warm, reps_warm =
    Util.timed_samples ~name:"cache.warm" (fun () -> verify_once ~cache 0.7)
  in
  let s1 = Cache.stats cache in
  if s1.Cache.misses <> s0.Cache.misses then
    failwith "cache: warm re-verification missed the cache";
  if s1.Cache.hits <= s0.Cache.hits then
    failwith "cache: warm re-verification recorded no hits";
  if Obs.enabled () && ns_hits () <= hits0 then
    failwith "cache: cache_hit_total{ns=characterize} did not move";
  if Obs.enabled () && tomo_shots () <> shots0 then
    failwith "cache: warm re-verification spent tomography shots";
  if warm_ch.Characterize.cost.Sim.Cost.executions <> 0 then
    failwith "cache: warm re-verification executed circuits";
  if warm_ch.Characterize.cost.Sim.Cost.shots <> 0 then
    failwith "cache: warm re-verification spent shots";
  if not (traces_identical cold_ch warm_ch) then
    failwith "cache: warm traces differ from cold traces";
  if verified warm_verdict <> verified cold_verdict then
    failwith "cache: warm verdict differs from cold verdict";
  Util.row
    "cache warm     executions=0 shots=0  traces bitwise equal: yes  verdict \
     unchanged: yes";
  Util.record "cache/warm-verify" ~seconds:t_warm ~samples:reps_warm
    ~speedup:(t_cold /. t_warm) ~domains ();

  (* ---- edited: only the changed cone re-characterizes ---- *)
  let hits_before = ns_hits () and misses_before = ns_misses () in
  let (edited_ch, _), t_edit = Util.time (fun () -> verify_once ~cache 1.3) in
  let edited_exec = edited_ch.Characterize.cost.Sim.Cost.executions in
  let edited_shots = edited_ch.Characterize.cost.Sim.Cost.shots in
  if 3 * edited_exec <> cold_exec || 3 * edited_shots <> cold_shots then
    failwith "cache: edited run did not re-characterize exactly one cone";
  if Obs.enabled () then begin
    if ns_misses () - misses_before <> 1 then
      failwith "cache: edited run should miss exactly the changed cone";
    if ns_hits () - hits_before <> 2 then
      failwith "cache: edited run should hit the two unchanged cones"
  end;
  Util.row
    "cache edited   re-characterized cones: 1 of 3  executions=%d (cold/3) \
     shots=%d (cold/3)"
    edited_exec edited_shots;
  Util.record "cache/edited" ~seconds:t_edit ~samples:[ t_edit ] ~domains ();

  (* ---- serve-obs: the daemon envelope under full observability ----
     The same cold/warm pair driven through [Server.handle_line] (its own
     state and cache per condition) with obs disabled, then enabled. The
     envelope's tracing/metrics/logging must not change what the daemon
     computes: warm requests still execute nothing, and the protocol lines
     are byte-identical across the two conditions once wall-clock
     [seconds] fields are stripped. Printed rows carry counts only, so the
     smoke diff covers this section too. *)
  let req id =
    Server.Jsonx.to_string
      (Server.Jsonx.Obj
         [
           ("id", Server.Jsonx.int id);
           ("request_id", Server.Jsonx.Str (Printf.sprintf "bench-%d" id));
           ("method", Server.Jsonx.Str "verify");
           ( "params",
             Server.Jsonx.Obj
               [
                 ("qasm", Server.Jsonx.Str (Qasm.to_string (circuit 0.7)));
                 ("count", Server.Jsonx.int count);
                 ("seed", Server.Jsonx.int 11);
                 ( "guarantee",
                   Server.Jsonx.List [ Server.Jsonx.Str "purity-ge:3,0.2" ] );
               ] );
         ])
  in
  let rec strip_seconds = function
    | Server.Jsonx.Obj fields ->
        Server.Jsonx.Obj
          (List.filter_map
             (fun (k, v) ->
               if k = "seconds" then None else Some (k, strip_seconds v))
             fields)
    | Server.Jsonx.List l -> Server.Jsonx.List (List.map strip_seconds l)
    | v -> v
  in
  let drive () =
    (* fresh daemon state and cache: request 1 is cold, request 2 warm *)
    let state = Server.make_state ~cache:(Cache.create ()) () in
    let out = ref [] in
    let emit j = out := j :: !out in
    ignore (Server.handle_line state ~emit (req 1));
    let cold_lines = List.rev !out in
    out := [];
    let (_ : [ `Continue | `Stop ]), t_warm =
      Util.time (fun () -> Server.handle_line state ~emit (req 2))
    in
    (cold_lines @ List.rev !out, t_warm)
  in
  let warm_executions lines =
    List.find_map
      (fun j ->
        match Server.Jsonx.member "result" j with
        | Some r when Server.Jsonx.mem_int "id" j = Some 2 ->
            Server.Jsonx.mem_int "executions" r
        | _ -> None)
      lines
  in
  let obs_was = Obs.enabled () in
  let (lines_off, t_off), (lines_on, t_on) =
    Fun.protect
      ~finally:(fun () -> Obs.configure ~enabled:obs_was)
      (fun () ->
        Obs.configure ~enabled:false;
        let off = drive () in
        Obs.configure ~enabled:true;
        let on = drive () in
        (off, on))
  in
  (match (warm_executions lines_off, warm_executions lines_on) with
  | Some 0, Some 0 -> ()
  | _ -> failwith "cache: warm daemon request executed circuits");
  let strip lines =
    List.map (fun j -> Server.Jsonx.to_string (strip_seconds j)) lines
  in
  if strip lines_off <> strip lines_on then
    failwith "cache: daemon output differs between obs off and on";
  Util.row
    "cache serve-obs warm executions=0  lines identical obs off/on: yes \
     (seconds stripped)";
  Util.record "cache/serve-obs" ~seconds:t_on ~samples:[ t_off; t_on ]
    ~speedup:(t_off /. t_on) ~domains ();
  Parallel.Pool.shutdown pool
