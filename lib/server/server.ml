(* morphqpv serve — a long-running verification daemon speaking
   line-delimited JSON over a Unix-domain or loopback TCP socket.

   Protocol: the client sends one request object per line —
     {"id": 1, "method": "verify", "params": {"qasm": "...", ...}}
   and the server answers with zero or more event lines
     {"id": 1, "event": "accepted" | "expect" | "verdict", ...}
   followed by exactly one terminal line carrying either
     {"id": 1, "result": {...}}  or  {"id": 1, "error": "..."}.

   Methods: ping, stats, verify, shutdown. The verify handler renders
   [Pipeline.run], the same pipeline as the CLI's verify subcommand, but
   shares one process-wide content-addressed cache across requests, so
   re-verifying a program the daemon has seen — under any qubit labeling
   — performs zero characterization shots. Requests are handled sequentially on the
   accept loop; the characterization inside each request parallelizes
   on the global domain pool as usual.

   [handle_line] is pure with respect to the transport (it only calls
   [emit]), so the protocol is unit-testable without sockets. *)

open Morphcore

(* [server] is this library's main module: siblings are invisible
   outside unless re-exported here; [Jsonx] (its own library) and [Spec]
   (in core) stay reachable under their old paths *)
module Jsonx = Jsonx
module Spec = Spec
module Recorder = Recorder

type addr = Unix_path of string | Tcp of int

type verb_stat = {
  mutable vcount : int;
  mutable verrors : int;
  mutable vseconds : float;
}

type state = {
  cache : Cache.t option;
  certify : bool;
      (* force translation validation of the transpile pipeline on every
         verify request, even when the request doesn't ask for it *)
  started : float;
  mutable requests : int;
  recorder : Recorder.t;
  mutable next_rid : int;
      (* generator for server-assigned request ids (req-1, req-2, ...) *)
  by_verb : (string, verb_stat) Hashtbl.t;
      (* request/error/seconds tallies per RPC verb; kept outside the obs
         registry so `stats` reports them even with obs disabled *)
}

let make_state ?cache ?(certify = false) () =
  {
    cache;
    certify;
    started = Unix.gettimeofday ();
    requests = 0;
    recorder = Recorder.create ();
    next_rid = 0;
    by_verb = Hashtbl.create 8;
  }

let recorder state = state.recorder

(* ----------------------------- responses ------------------------------ *)

let event id fields = Jsonx.Obj (("id", id) :: fields)

let error_line ?rid id msg =
  let rid_field =
    match rid with None -> [] | Some r -> [ ("request_id", Jsonx.Str r) ]
  in
  Jsonx.Obj ([ ("id", id) ] @ rid_field @ [ ("error", Jsonx.Str msg) ])

let result_line ~rid id result =
  Jsonx.Obj
    [ ("id", id); ("request_id", Jsonx.Str rid); ("result", result) ]

let cache_json = function
  | None -> Jsonx.Null
  | Some c ->
      let s : Cache.stats = Cache.stats c in
      Jsonx.Obj
        [
          ("hits", Jsonx.int s.hits);
          ("misses", Jsonx.int s.misses);
          ("stores", Jsonx.int s.stores);
          ("evictions", Jsonx.int s.evictions);
          ("entries", Jsonx.int s.entries);
          ("bytes", Jsonx.int s.bytes);
        ]

(* per-request view: hit/miss/store deltas, resident totals *)
let cache_delta_json before cache =
  match (before, cache) with
  | Some (b : Cache.stats), Some c ->
      let a : Cache.stats = Cache.stats c in
      Jsonx.Obj
        [
          ("hits", Jsonx.int (a.hits - b.hits));
          ("misses", Jsonx.int (a.misses - b.misses));
          ("stores", Jsonx.int (a.stores - b.stores));
          ("entries", Jsonx.int a.entries);
          ("bytes", Jsonx.int a.bytes);
        ]
  | _ -> Jsonx.Null

(* ------------------------------ verify -------------------------------- *)

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* the params as the pipeline's named string fields: a list's entries, or
   one scalar (a string as is, an integral number in decimal digits at any
   size, another number or a boolean in its JSON text) *)
let param_fields params =
  let text = function
    | Jsonx.Str s -> s
    | v -> (
        match Jsonx.to_int v with
        | Some n -> string_of_int n
        | None -> Jsonx.to_string v)
  in
  match params with
  | Jsonx.Obj kvs ->
      List.map
        (fun (k, v) ->
          ( k,
            match v with
            | Jsonx.Null -> []
            | Jsonx.List l -> List.map text l
            | v -> [ text v ] ))
        kvs
  | _ -> []

(* one pipeline event as a protocol event line; [Asserting] has none *)
let emit_event ~emit ~id ev =
  let line kind fields =
    emit (event id (("event", Jsonx.Str kind) :: fields))
  in
  match ev with
  | Pipeline.Accepted full ->
      let c = full.Qasm.circuit in
      line "accepted"
        [
          ("qubits", Jsonx.int (Circuit.num_qubits c));
          ("gates", Jsonx.int (Circuit.gate_count c));
          ("tracepoints", Jsonx.int (List.length (Circuit.tracepoints c)));
          ("expects", Jsonx.int (List.length full.Qasm.expects));
        ]
  | Pipeline.Certified report ->
      let summary = report.Verify.cert_summary in
      line "certify"
        [
          ("certified", Jsonx.Bool report.Verify.certified);
          ("steps", Jsonx.int summary.Transpile.Certify.chain_steps);
          ( "obligations",
            Jsonx.int (Transpile.Certify.total_obligations summary) );
        ]
  | Pipeline.Expect (e, r) ->
      let l, col = e.Qasm.expect_loc in
      line "expect"
        [
          ("line", Jsonx.int l);
          ("col", Jsonx.int col);
          ("holds", Jsonx.Bool r.Verify.counts_hold);
          ("statistic", Jsonx.Num r.Verify.test.Stats.Tests.statistic);
          ("pvalue", Jsonx.Num r.Verify.test.Stats.Tests.pvalue);
          ("shots", Jsonx.int r.Verify.shots_used);
          ("early_stop", Jsonx.Bool r.Verify.early_stop);
        ]
  | Pipeline.Asserting _ -> ()
  | Pipeline.Verdict (Verify.Verified { confidence; max_objective }) ->
      line "verdict"
        [
          ("verified", Jsonx.Bool true);
          ("max_objective", Jsonx.Num max_objective);
          ("confidence", Jsonx.Num confidence.Confidence.confidence);
          ("epsilon", Jsonx.Num confidence.Confidence.epsilon);
        ]
  | Pipeline.Verdict (Verify.Violated { objective; _ }) ->
      line "verdict"
        [ ("verified", Jsonx.Bool false); ("objective", Jsonx.Num objective) ]

let verify_request state ~emit ~id ~rid params =
  let t0 = Unix.gettimeofday () in
  let qasm =
    match Jsonx.mem_str "qasm" params with
    | Some s -> s
    | None -> failf "missing %S param" "qasm"
  in
  (* a daemon started with --certify certifies every request; the
     certified plan is cached under its own key prefix, so it never
     serves a plan that skipped certification *)
  let fields =
    (if state.certify then [ ("certify", [ "true" ]) ] else [])
    @ param_fields params
  in
  let stats0 = Option.map Cache.stats state.cache in
  let request = { Pipeline.name = "rpc"; qasm; fields; cache = state.cache } in
  match Pipeline.run ~emit:(emit_event ~emit ~id) request with
  | Ok o ->
      let executions, shots =
        match o.Pipeline.cost with
        | Some cost -> (cost.Sim.Cost.executions, cost.Sim.Cost.shots)
        | None -> (0, 0)
      in
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [
                ("ok", Jsonx.Bool true);
                ("verified", Jsonx.Bool o.Pipeline.verified);
                ("expects_ok", Jsonx.Bool o.Pipeline.expects_ok);
                ("executions", Jsonx.int executions);
                ("shots", Jsonx.int shots);
                ("cache", cache_delta_json stats0 state.cache);
                ("seconds", Jsonx.Num (Unix.gettimeofday () -. t0));
              ]))
  | Error e ->
      let msg = Format.asprintf "%a" (Pipeline.pp_error ?file:None) e in
      (match e with
      | Pipeline.Not_certified report ->
          Obs.Log.emit Obs.Log.Error "certify.fail"
            [
              ("code", Jsonx.Str "MQ021");
              ("reason", Jsonx.Str msg);
              ( "steps",
                Jsonx.int
                  report.Verify.cert_summary.Transpile.Certify.chain_steps );
            ]
      | _ -> ());
      raise (Fail msg)

(* ------------------------- request summaries --------------------------- *)

let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value ~default:0 (List.assoc_opt name before) in
      if v <> b then Some (name, v - b) else None)
    after

(* RED latency histogram edges (seconds): a warm cache hit lands in the
   first buckets, a cold multi-qubit characterization in the last *)
let latency_buckets = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.; 10. |]

let summary_jsonx (s : Recorder.summary) =
  Jsonx.Obj
    ([
       ("request_id", Jsonx.Str s.Recorder.rid);
       ("verb", Jsonx.Str s.Recorder.verb);
       ("ok", Jsonx.Bool s.Recorder.ok);
       ("seconds", Jsonx.Num s.Recorder.seconds);
       ("events", Jsonx.int (List.length s.Recorder.events));
       ( "counters",
         Jsonx.Obj
           (List.map (fun (k, v) -> (k, Jsonx.int v)) s.Recorder.counters) );
     ]
    @
    match s.Recorder.error with
    | None -> []
    | Some e -> [ ("error", Jsonx.Str e) ])

let bump_verb state verb ~ok ~seconds =
  let st =
    match Hashtbl.find_opt state.by_verb verb with
    | Some st -> st
    | None ->
        let st = { vcount = 0; verrors = 0; vseconds = 0. } in
        Hashtbl.add state.by_verb verb st;
        st
  in
  st.vcount <- st.vcount + 1;
  st.vseconds <- st.vseconds +. seconds;
  if not ok then st.verrors <- st.verrors + 1

let by_verb_jsonx state =
  Jsonx.Obj
    (Hashtbl.fold
       (fun verb st acc ->
         ( verb,
           Jsonx.Obj
             [
               ("requests", Jsonx.int st.vcount);
               ("errors", Jsonx.int st.verrors);
               ("seconds", Jsonx.Num st.vseconds);
             ] )
         :: acc)
       state.by_verb []
    |> List.sort (fun (a, _) (b, _) -> compare a b))

(* ----------------------------- dispatch ------------------------------- *)

let stats_result state =
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool true);
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. state.started));
      ("requests", Jsonx.int state.requests);
      ("cache", cache_json state.cache);
      ("by_verb", by_verb_jsonx state);
      ( "recent",
        Jsonx.List (List.map summary_jsonx (Recorder.recent state.recorder)) );
      ("recorded", Jsonx.int (Recorder.recorded state.recorder));
      ("span_dropped", Jsonx.int (Obs.Span.dropped ()));
      ("obs_enabled", Jsonx.Bool (Obs.enabled ()));
    ]

let trace_request state ~emit ~id ~rid params =
  let target =
    match Jsonx.mem_str "request_id" params with
    | Some s -> s
    | None -> failf "missing %S param" "request_id"
  in
  match Recorder.find state.recorder target with
  | None -> failf "unknown request id %S" target
  | Some s ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [
                ("ok", Jsonx.Bool true);
                ("request_id", Jsonx.Str s.Recorder.rid);
                ("verb", Jsonx.Str s.Recorder.verb);
                ("request_ok", Jsonx.Bool s.Recorder.ok);
                ("seconds", Jsonx.Num s.Recorder.seconds);
                ("events", Jsonx.int (List.length s.Recorder.events));
                ( "trace",
                  Jsonx.List
                    (List.map Obs.Export.event_json s.Recorder.events) );
              ]))

let dispatch state ~emit ~id ~rid meth params =
  match meth with
  | Some "ping" ->
      emit (result_line ~rid id (Jsonx.Obj [ ("ok", Jsonx.Bool true) ]));
      `Continue
  | Some "stats" ->
      emit (result_line ~rid id (stats_result state));
      `Continue
  | Some "metrics" ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [
                ("ok", Jsonx.Bool true);
                ("prometheus", Jsonx.Str (Obs.Export.prometheus ()));
              ]));
      `Continue
  | Some "trace" ->
      trace_request state ~emit ~id ~rid params;
      `Continue
  | Some "verify" ->
      verify_request state ~emit ~id ~rid params;
      `Continue
  | Some "shutdown" ->
      emit
        (result_line ~rid id
           (Jsonx.Obj
              [ ("ok", Jsonx.Bool true); ("stopping", Jsonx.Bool true) ]));
      `Stop
  | Some m -> failf "unknown method %S" m
  | None -> raise (Fail "missing \"method\"")

(* Wrap one RPC with the observability envelope: request-scoped context
   (so every span/log line below carries the id), RED metrics, the flight-
   recorder entry (with mark-bounded span capture — pool-worker events
   land between the two marks even though the context slot is domain-
   local), and mark-based ring reclaim so the daemon's span rings never
   saturate across requests. *)
let handle_request state ~emit ~id ~rid ~verb meth params =
  let t0 = Unix.gettimeofday () in
  let mark0 = Obs.Span.mark () in
  let counters0 = if Obs.enabled () then Obs.Metrics.counters () else [] in
  Obs.Log.emit Obs.Log.Info "request.start"
    [ ("req", Jsonx.Str rid); ("verb", Jsonx.Str verb) ];
  let failed = ref None in
  let ret =
    Obs.Context.with_request rid (fun () ->
        Obs.Span.with_ ~name:"server.request" ~attrs:[ ("verb", verb) ]
          (fun () ->
            try dispatch state ~emit ~id ~rid meth params with
            | Fail msg ->
                failed := Some msg;
                emit (error_line ~rid id msg);
                `Continue
            | exn ->
                let msg = Printexc.to_string exn in
                failed := Some msg;
                emit (error_line ~rid id msg);
                `Continue))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let mark1 = Obs.Span.mark () in
  let ok = Option.is_none !failed in
  let counters =
    if Obs.enabled () then counter_delta counters0 (Obs.Metrics.counters ())
    else []
  in
  bump_verb state verb ~ok ~seconds;
  Obs.Metrics.counter_add ~labels:[ ("verb", verb) ] "requests_total" 1;
  if not ok then
    Obs.Metrics.counter_add ~labels:[ ("verb", verb) ] "request_errors_total" 1;
  Obs.Metrics.observe ~labels:[ ("verb", verb) ] ~buckets:latency_buckets
    "request_seconds" seconds;
  (match state.cache with
  | Some c ->
      let s : Cache.stats = Cache.stats c in
      let total = s.hits + s.misses in
      if total > 0 then
        Obs.Metrics.gauge_set "cache_hit_ratio"
          (float_of_int s.hits /. float_of_int total)
  | None -> ());
  let events =
    if Obs.enabled () then Obs.Span.events ~since:mark0 ~until:mark1 ()
    else []
  in
  Recorder.record state.recorder
    { Recorder.rid; verb; seconds; ok; error = !failed; counters; events };
  if Obs.enabled () then Obs.Span.reclaim ~before:mark1 ();
  Obs.Log.emit
    (if ok then Obs.Log.Info else Obs.Log.Warn)
    "request.finish"
    ([
       ("req", Jsonx.Str rid);
       ("verb", Jsonx.Str verb);
       ("ok", Jsonx.Bool ok);
       ("seconds", Jsonx.Num seconds);
       ("events", Jsonx.int (List.length events));
     ]
    @
    match !failed with
    | None -> []
    | Some e -> [ ("error", Jsonx.Str e) ]);
  ret

let handle_line state ~emit line =
  if String.trim line = "" then `Continue
  else
    match Jsonx.parse line with
    | Error e ->
        emit (error_line Jsonx.Null ("bad request json: " ^ e));
        `Continue
    | Ok req ->
        let id = Option.value ~default:Jsonx.Null (Jsonx.member "id" req) in
        let params =
          Option.value ~default:(Jsonx.Obj []) (Jsonx.member "params" req)
        in
        let meth = Jsonx.mem_str "method" req in
        let verb = Option.value ~default:"unknown" meth in
        let rid =
          (* client-supplied (top-level "request_id") or generated *)
          match Jsonx.mem_str "request_id" req with
          | Some r when String.trim r <> "" -> r
          | _ ->
              state.next_rid <- state.next_rid + 1;
              Printf.sprintf "req-%d" state.next_rid
        in
        state.requests <- state.requests + 1;
        handle_request state ~emit ~id ~rid ~verb meth params

(* ------------------------------ transport ----------------------------- *)

let bind_socket = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      sock
  | Tcp port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      sock

let handle_connection state stop fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let emit v =
    output_string oc (Jsonx.to_string v);
    output_char oc '\n';
    flush oc
  in
  (try
     let rec loop () =
       if not !stop then
         match input_line ic with
         | exception End_of_file -> ()
         | line -> (
             match handle_line state ~emit line with
             | `Continue -> loop ()
             | `Stop -> stop := true)
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?cache ?certify ?(on_ready = fun () -> ()) addr =
  let state = make_state ?cache ?certify () in
  let stop = ref false in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sock = bind_socket addr in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (match addr with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally (fun () ->
      Unix.listen sock 16;
      on_ready ();
      while not !stop do
        (* short select timeout keeps the loop responsive to SIGINT /
           SIGTERM even when no client ever connects *)
        match Unix.select [ sock ] [] [] 0.25 with
        | [], _, _ -> ()
        | _ :: _, _, _ ->
            let fd, _ = Unix.accept sock in
            handle_connection state stop fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

module Client = struct
  let connect = function
    | Unix_path path ->
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_UNIX path);
        s
    | Tcp port ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        s

  let request ?(on_event = fun _ -> ()) addr req =
    match connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect: %s" (Unix.error_message e))
    | fd ->
        let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
        Fun.protect ~finally (fun () ->
            let oc = Unix.out_channel_of_descr fd in
            let ic = Unix.in_channel_of_descr fd in
            output_string oc (Jsonx.to_string req);
            output_char oc '\n';
            flush oc;
            let rec read () =
              match input_line ic with
              | exception End_of_file ->
                  Error "connection closed before a result"
              | line -> (
                  match Jsonx.parse line with
                  | Error e -> Error ("bad response json: " ^ e)
                  | Ok v ->
                      if
                        Option.is_some (Jsonx.member "result" v)
                        || Option.is_some (Jsonx.member "error" v)
                      then Ok v
                      else begin
                        on_event v;
                        read ()
                      end)
            in
            read ())
end
