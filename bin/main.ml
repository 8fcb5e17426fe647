(* morphqpv — command-line front end.

   Subcommands:
     info      — static statistics of a mini-QASM program
     simulate  — run a program; print counts and tracepoint states
     sample    — characterize a program and report approximation accuracy
     verify    — validate an assume-guarantee assertion
     certify   — translation-validate the transpile pipeline (MQ021)

   Predicate specs for `verify` (tracepoint 0 = the program input):
     pure:T                 the state at tracepoint T is pure
     equals:A,B             states at tracepoints A and B are equal
     equals-basis:T,K       state at T equals |K><K|
     diag:T,K,LO,HI         diagonal entry K of T's state lies in [LO, HI]
     expect-ge:T,PAULI,V    Pauli expectation at T is >= V  (e.g. ZII)
     expect-le:T,PAULI,V    Pauli expectation at T is <= V
     purity-ge:T,V          purity at T is >= V *)

open Morphcore

let read_text path = In_channel.with_open_bin path In_channel.input_all

(* a program file through the one reader: its text parsed, or the
   error as lint prints it *)
let read_full path =
  match read_text path with
  | exception Sys_error msg -> Error msg
  | src ->
      Result.map_error
        (Format.asprintf "%a" (Analysis.Lint.pp ~file:path))
        (Analysis.Lint.read src)

(* the circuit alone, dropping the [expect] pragma side channel *)
let read_circuit path = Result.map (fun f -> f.Qasm.circuit) (read_full path)

(* ------------------------------- info -------------------------------- *)

let info_cmd file =
  match read_circuit file with
  | Error e ->
      prerr_endline e;
      1
  | Ok c ->
      Format.printf "qubits:          %d@." (Circuit.num_qubits c);
      Format.printf "clbits:          %d@." (Circuit.num_clbits c);
      Format.printf "gates:           %d@." (Circuit.gate_count c);
      Format.printf "two-qubit gates: %d@." (Circuit.two_qubit_count c);
      Format.printf "depth:           %d@." (Circuit.depth c);
      Format.printf "tracepoints:     %s@."
        (String.concat ", "
           (List.map
              (fun (id, qs) ->
                Printf.sprintf "T%d on q[%s]" id
                  (String.concat "," (List.map string_of_int qs)))
              (Circuit.tracepoints c)));
      Format.printf "@.%s" (Render.Draw.to_string c);
      0

(* ----------------------------- simulate ------------------------------ *)

let simulate_cmd file shots seed noisy =
  match read_circuit file with
  | Error e ->
      prerr_endline e;
      1
  | Ok c ->
      let rng = Stats.Rng.make seed in
      let noise = if noisy then Sim.Noise.ibm_cairo else Sim.Noise.ideal in
      let counts = Sim.Engine.sample_counts ~rng ~noise ~shots c in
      Format.printf "counts (%d shots):@." shots;
      List.iter
        (fun (k, n) ->
          Format.printf "  |%s> : %d@."
            (String.init (Circuit.num_qubits c) (fun j ->
                 if (k lsr (Circuit.num_qubits c - 1 - j)) land 1 = 1 then '1'
                 else '0'))
            n)
        counts;
      let traces = Sim.Engine.tracepoint_states ~rng ~noise c in
      List.iter
        (fun (id, rho) ->
          Format.printf "@.tracepoint T%d state:@.%a@." id Linalg.Cmat.pp rho)
        traces;
      0

(* ------------------------------ sample ------------------------------- *)

let sample_cmd file count kind seed =
  match read_circuit file with
  | Error e ->
      prerr_endline e;
      1
  | Ok c ->
      let rng = Stats.Rng.make seed in
      let program = Program.make c in
      let ch = Characterize.run ~rng ~kind program ~count in
      let approx = Approx.of_characterization ch in
      Format.printf "characterized %d tracepoints from %d inputs@."
        (List.length (Approx.tracepoint_ids approx) - 1)
        count;
      Format.printf "cost: %a@." Sim.Cost.pp ch.Characterize.cost;
      List.iter
        (fun tp ->
          if tp <> 0 then begin
            let accs = Verify.probe_accuracies ~rng ~count:10 approx program ~tracepoint:tp in
            Format.printf
              "tracepoint T%d: approximation accuracy mean %.4f (min %.4f) on \
               10 random probes; Theorem 2 value %.4f@."
              tp (Stats.Describe.mean accs) (Stats.Describe.min accs)
              (Approx.theoretical_accuracy
                 ~n_in:(Program.num_input_qubits program)
                 ~n_sample:count)
          end)
        (Approx.tracepoint_ids approx);
      0

(* ------------------------------ certify ------------------------------ *)

(* the checker's verdict on one program's transpile chain, as printed by
   certify and verify --certify *)
let print_certify_report ~file (report : Verify.certify_report) =
  let s = report.Verify.cert_summary in
  if report.Verify.certified then
    Format.printf
      "%s: certified steps=%d obligations=%d (local_equiv=%d outside_cone=%d \
       identity_elim=%d barrier_elim=%d mapped=%d)@."
      file s.Transpile.Certify.chain_steps
      (Transpile.Certify.total_obligations s)
      s.Transpile.Certify.local_equiv s.Transpile.Certify.outside_cone
      s.Transpile.Certify.identity_elim s.Transpile.Certify.barrier_elim
      s.Transpile.Certify.permutation
  else begin
    Format.printf "%s: NOT CERTIFIED (%d failures)@." file
      (List.length report.Verify.cert_failures);
    List.iter
      (Format.eprintf "%a@." (Analysis.Lint.pp ~file))
      (Verify.certify_diagnostics report.Verify.cert_failures)
  end

(* morphqpv certify: translation-validate the transpile pipeline over one
   or more programs — transpile through the certificate-emitting pass
   variants and re-check the chain with the independent checker; exit 1
   as soon as any obligation fails to check *)
let certify_cmd files =
  let failed = ref false in
  List.iter
    (fun file ->
      match read_full file with
      | Error e ->
          prerr_endline e;
          failed := true
      | Ok full ->
          let report =
            Verify.certify_transpile ~locs:full.Qasm.locs full.Qasm.circuit
          in
          print_certify_report ~file report;
          if not report.Verify.certified then failed := true)
    files;
  if !failed then 1 else 0

(* ------------------------------ verify ------------------------------- *)

(* print one pipeline event *)
let print_verify_event ~file = function
  | Pipeline.Accepted _ -> ()
  | Pipeline.Certified report -> print_certify_report ~file report
  | Pipeline.Expect (e, r) ->
      let line, col = e.Qasm.expect_loc in
      Format.printf
        "expect at %d:%d: %s (chi2 %.4g, p %.4g, df %g, shots %d%s)@." line col
        (if r.Verify.counts_hold then "OK" else "VIOLATED")
        r.Verify.test.Stats.Tests.statistic r.Verify.test.Stats.Tests.pvalue
        r.Verify.test.Stats.Tests.df r.Verify.shots_used
        (if r.Verify.early_stop then ", early stop" else "")
  | Pipeline.Asserting assertion ->
      Format.printf "%s@." (Assertion.describe assertion)
  | Pipeline.Verdict (Verify.Verified { confidence; max_objective }) ->
      let objective =
        if max_objective = neg_infinity then "no feasible candidate found"
        else Printf.sprintf "max guarantee objective %.3g" max_objective
      in
      Format.printf "VERIFIED: %s; confidence %.4f (%a, threshold %.2f)@."
        objective confidence.Confidence.confidence Stats.Beta_dist.pp
        confidence.Confidence.dist confidence.Confidence.epsilon
  | Pipeline.Verdict (Verify.Violated { counterexample; objective; _ }) ->
      Format.printf "VIOLATED (objective %.4f). Counter-example input:@.%a@."
        objective Linalg.Cmat.pp counterexample

(* exit 0 iff every guarantee and every expect pragma held *)
let verify_cmd file fields use_cache =
  match read_text file with
  | exception Sys_error msg ->
      prerr_endline msg;
      1
  | qasm -> (
      (* --cache forces a cache on; MORPHQPV_CACHE_DIR / MORPHQPV_CACHE
         alone also enable it *)
      let cache = Cache.of_env ~enable:use_cache () in
      let request = { Pipeline.name = file; qasm; fields; cache } in
      match Pipeline.run ~emit:(print_verify_event ~file) request with
      | Error (Pipeline.Not_certified _) -> 1 (* the report said why *)
      | Error e ->
          Format.eprintf "%a@." (Pipeline.pp_error ~file) e;
          1
      | Ok o ->
          Option.iter
            (fun cost ->
              Format.printf "characterization cost: %a@." Sim.Cost.pp cost;
              Option.iter
                (fun cache ->
                  let s : Cache.stats = Cache.stats cache in
                  Format.printf
                    "cache: %d hits, %d misses, %d entries (%d bytes)@." s.hits
                    s.misses s.entries s.bytes)
                cache)
            o.Pipeline.cost;
          if o.Pipeline.verified then 0 else 1)

(* ----------------------------- optimize ------------------------------ *)

let optimize_cmd file output certify =
  match read_full file with
  | Error e ->
      prerr_endline e;
      1
  | Ok full ->
      let c = full.Qasm.circuit in
      (* --certify: run the certificate-emitting variant and validate the
         chain with the independent checker instead of trusting the pass *)
      let optimized, cert_ok =
        if not certify then (Transpile.Passes.optimize c, true)
        else
          let optimized, cert = Transpile.Passes.optimize_cert c in
          match
            Transpile.Certify.check ~locs:full.Qasm.locs cert c optimized
          with
          | Ok s ->
              Format.eprintf "certificate: OK (steps=%d, obligations=%d)@."
                s.Transpile.Certify.chain_steps
                (Transpile.Certify.total_obligations s);
              (optimized, true)
          | Error failures ->
              List.iter
                (Format.eprintf "%a@." (Analysis.Lint.pp ~file))
                (Verify.certify_diagnostics failures);
              (optimized, false)
      in
      Format.eprintf "gates: %d -> %d (%.0f%% removed); equivalence check: %b@."
        (Circuit.gate_count c)
        (Circuit.gate_count optimized)
        (100. *. Transpile.Passes.gate_reduction ~before:c ~after:optimized)
        (if Circuit.num_qubits c <= 8 then
           Transpile.Equiv.unitaries_equal c optimized
         else Transpile.Equiv.equivalent c optimized);
      let qasm = Qasm.to_string optimized in
      (match output with
      | None -> print_string qasm
      | Some path ->
          let oc = open_out path in
          output_string oc qasm;
          close_out oc);
      if cert_ok then 0 else 1

(* ------------------------------ profile ------------------------------ *)

(* characterization-cost estimator handed to the MQ017 lint check: the
   analysis layer cannot see the simulator, so the wiring happens here *)
let characterization_seconds c =
  Sim.Cost.hardware_seconds (Sim.Cost.estimate_characterization c)

(* morphqpv profile: run the program through the pipeline's phases with
   observability forced on, then print the span-tree summary as a
   per-phase/per-kernel table. [--trace] dumps the spans as Chrome
   trace_event JSONL, [--metrics] the metrics registry as JSON, [--prom]
   the registry in Prometheus text exposition format; each accepts [-]
   for stdout. *)
let write_output ~what path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Format.printf "%s written to %s@." what path
  end

let profile_cmd file shots count seed trace_out metrics_out prom_out =
  match read_circuit file with
  | Error e ->
      prerr_endline e;
      1
  | Ok c ->
      Obs.configure ~enabled:true;
      let since = Obs.Span.mark () in
      let rng = Stats.Rng.make seed in
      (* phase 1: gate-level simulation + sampling *)
      ignore
        (Obs.Span.with_ ~name:"profile.simulate" (fun () ->
             ignore (Sim.Engine.sample_counts ~rng ~shots c);
             Sim.Engine.tracepoint_states ~rng c));
      (* phase 2: transpile — optimization passes + segment compilation *)
      ignore
        (Obs.Span.with_ ~name:"profile.transpile" (fun () ->
             Transpile.Segments.compile (Transpile.Passes.optimize c)));
      (* phase 3: characterize *)
      let program = Program.make c in
      let ch =
        Obs.Span.with_ ~name:"profile.characterize" (fun () ->
            Characterize.run ~rng program ~count)
      in
      let approx = Approx.of_characterization ch in
      (* phase 4: verify — a trivially-true purity guarantee on the first
         real tracepoint, enough to drive the solver and probe kernels *)
      Obs.Span.with_ ~name:"profile.verify" (fun () ->
          match List.filter (fun tp -> tp <> 0) (Approx.tracepoint_ids approx) with
          | [] -> ()
          | tp :: _ ->
              let assertion =
                Assertion.make ~name:"profile" ~assumes:[]
                  ~guarantees:[ Predicate.Purity_ge (tp, 0.0) ] ()
              in
              let options =
                { Verify.default_options with budget = 600; restarts = 1 }
              in
              ignore (Verify.validate ~options ~rng approx assertion);
              ignore
                (Verify.probe_accuracies ~rng ~count:5 approx program
                   ~tracepoint:tp));
      (* the table: spans aggregated by name. Phase rows (prefixed
         "profile.") are disjoint, so their sum is the profiled wall
         time; kernel rows are inclusive times and may overlap phases
         and each other. *)
      let summary = Obs.Span.summary ~since () in
      let is_phase r =
        String.length r.Obs.Span.name >= 8
        && String.sub r.Obs.Span.name 0 8 = "profile."
      in
      let wall =
        List.fold_left
          (fun acc r -> if is_phase r then acc +. r.Obs.Span.total_s else acc)
          0. summary
      in
      Format.printf "%-34s %8s %12s %9s@." "span" "count" "total(ms)"
        "of wall";
      List.iter
        (fun r ->
          Format.printf "%-34s %8d %12.3f %8.1f%%@." r.Obs.Span.name
            r.Obs.Span.count
            (1e3 *. r.Obs.Span.total_s)
            (if wall > 0. then 100. *. r.Obs.Span.total_s /. wall else 0.))
        summary;
      Format.printf "%-34s %8s %12.3f@." "(wall: phase total)" ""
        (1e3 *. wall);
      let dropped = Obs.Span.dropped () in
      if dropped > 0 then
        Format.printf "note: %d span events dropped (ring full)@." dropped;
      Format.printf "@.counters:@.";
      List.iter
        (fun (key, v) -> Format.printf "  %-40s %d@." key v)
        (Obs.Metrics.counters ());
      (match trace_out with
      | Some path ->
          if path <> "-" then Format.printf "@.";
          write_output ~what:"trace" path (Obs.Export.trace_jsonl ~since ())
      | None -> ());
      (match metrics_out with
      | Some path ->
          write_output ~what:"metrics" path
            (Obs.Metrics.snapshot_json () ^ "\n")
      | None -> ());
      (match prom_out with
      | Some path ->
          write_output ~what:"prometheus metrics" path (Obs.Export.prometheus ())
      | None -> ());
      0

(* ------------------------------- lint -------------------------------- *)

(* morph-lint: run the static-analysis diagnostics (Analysis.Lint) over one
   or more mini-QASM files. Exit status 1 when any error-severity diagnostic
   is found (or any warning under --strict), 0 on a clean corpus. *)
let lint_cmd files strict quiet cost_threshold certify =
  let failed = ref false in
  List.iter
    (fun file ->
      match read_text file with
      | exception Sys_error msg ->
          prerr_endline msg;
          failed := true
      | src ->
          let diags =
            match Analysis.Lint.read src with
            | Error d -> [ d ]
            | Ok full ->
                (* MQ017/MQ018/MQ020/MQ021 need the simulator's cost model
                   and engine router, the cache's canonical hasher and the
                   certificate checker, all above the analysis library,
                   so they are wired in here *)
                let c = full.Qasm.circuit in
                Analysis.Lint.check_program full
                @ Analysis.Lint.check_cost ~estimate:characterization_seconds
                    ?threshold:cost_threshold c
                @ Analysis.Lint.check_sim_class ~classify:Sim.Engine.sim_class c
                @ Analysis.Lint.check_cones ~digests:Cache.Canon.cone_digests c
                @
                if not certify then []
                else
                  Verify.certify_diagnostics
                    (Verify.certify_transpile ~locs:full.Qasm.locs c)
                      .Verify.cert_failures
          in
          List.iter
            (fun d ->
              let fails =
                match d.Analysis.Lint.severity with
                | Analysis.Lint.Error -> true
                | Analysis.Lint.Warning -> strict
                | Analysis.Lint.Info -> false
              in
              if fails then failed := true;
              if not (quiet && not fails) then
                Format.printf "%a@." (Analysis.Lint.pp ~file) d)
            diags)
    files;
  if !failed then 1 else 0

(* --------------------------- serve / client --------------------------- *)

module Jsonx = Server.Jsonx

let addr_of ~socket ~tcp =
  match tcp with
  | Some port -> Server.Tcp port
  | None -> Server.Unix_path socket

(* morphqpv serve: the long-running verification daemon. All requests
   share one content-addressed cache, so repeated verifications of the
   same (or isomorphic) programs skip characterization entirely. *)
let serve_cmd socket tcp cache_dir cache_mb certify log log_level =
  (match log with
  | Some dest ->
      let level =
        Option.value ~default:Obs.Log.Info
          (Option.bind log_level Obs.Log.level_of_string)
      in
      let sink =
        match dest with
        | "stderr" -> `Stderr
        | "-" | "stdout" -> `Stdout
        | path -> `File path
      in
      (try Obs.Log.configure ~level sink
       with Sys_error msg ->
         Format.eprintf "morphqpv serve: --log %s: %s@." dest msg;
         exit 1)
  | None -> ());
  let cache =
    Cache.of_env ~enable:true ?dir:cache_dir
      ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_mb)
      ()
  in
  let addr = addr_of ~socket ~tcp in
  let on_ready () =
    match addr with
    | Server.Unix_path p -> Format.eprintf "morphqpv serve: listening on %s@." p
    | Server.Tcp port ->
        Format.eprintf "morphqpv serve: listening on 127.0.0.1:%d@." port
  in
  (try Server.serve ?cache ~certify ~on_ready addr with
  | Unix.Unix_error (e, fn, _) ->
      Format.eprintf "morphqpv serve: %s: %s@." fn (Unix.error_message e);
      exit 1);
  Format.eprintf "morphqpv serve: stopped@.";
  0

(* morphqpv client: one request against a running daemon; event lines and
   the terminal result line are printed as received. Exit 0 iff the
   request succeeded (and, for verify, the program verified).

   [--request-id] names the request (top-level field, echoed on the
   terminal line and usable with method trace later); for method trace
   it is the id of the request to fetch. Method metrics prints the raw
   Prometheus exposition, so the output is scrapeable as-is. [--watch]
   re-issues the request every SECS seconds until it fails. *)
let client_cmd socket tcp method_ file fields request_id watch =
  let addr = addr_of ~socket ~tcp in
  let method_ =
    if method_ <> "" then method_ else if file <> None then "verify" else "ping"
  in
  let params =
    match method_ with
    | "verify" -> (
        match file with
        | None -> Error "client: method verify needs a FILE argument"
        | Some file -> (
            match read_text file with
            | exception Sys_error msg -> Error msg
            | qasm ->
                (* the fields as given; the daemon's pipeline fills in
                   the defaults *)
                Ok
                  (Jsonx.Obj
                     (("qasm", Jsonx.Str qasm)
                     :: List.filter_map
                          (fun (name, values) ->
                            match values with
                            | [] -> None
                            | [ v ] -> Some (name, Jsonx.Str v)
                            | vs ->
                                Some
                                  ( name,
                                    Jsonx.List
                                      (List.map (fun v -> Jsonx.Str v) vs) ))
                          fields))))
    | "trace" -> (
        match request_id with
        | Some r -> Ok (Jsonx.Obj [ ("request_id", Jsonx.Str r) ])
        | None -> Error "client: method trace needs --request-id")
    | _ -> Ok (Jsonx.Obj [])
  in
  match params with
  | Error e ->
      prerr_endline e;
      1
  | Ok params -> (
      let req =
        Jsonx.Obj
          ([ ("id", Jsonx.int 1) ]
          @ (match request_id with
            (* for trace, --request-id is the lookup target, not this
               request's own id — naming the trace request the same id
               would shadow the target in the flight recorder *)
            | Some r when method_ <> "trace" ->
                [ ("request_id", Jsonx.Str r) ]
            | _ -> [])
          @ [ ("method", Jsonx.Str method_); ("params", params) ])
      in
      let on_event e = print_endline (Jsonx.to_string e) in
      let print_terminal terminal =
        match
          Option.bind (Jsonx.member "result" terminal) (Jsonx.mem_str "prometheus")
        with
        | Some text when method_ = "metrics" -> print_string text
        | _ -> print_endline (Jsonx.to_string terminal)
      in
      let once () =
        match Server.Client.request ~on_event addr req with
        | Error e ->
            prerr_endline ("client: " ^ e);
            1
        | Ok terminal -> (
            print_terminal terminal;
            match Jsonx.member "result" terminal with
            | None -> 1 (* error line *)
            | Some r -> (
                match Option.bind (Jsonx.member "verified" r) Jsonx.to_bool with
                | Some false -> 1
                | Some true | None -> 0))
      in
      match watch with
      | None -> once ()
      | Some secs ->
          let rec loop () =
            let rc = once () in
            if rc <> 0 then rc
            else begin
              (try Unix.sleepf secs with Unix.Unix_error _ -> ());
              loop ()
            end
          in
          loop ())

(* morphqpv top: a live per-RPC console for a running daemon. Polls the
   stats RPC every --interval seconds and renders one table row per verb:
   request and error tallies and the request seconds the daemon summed,
   all kept with observability off too. *)
let top_cmd socket tcp interval iterations =
  let addr = addr_of ~socket ~tcp in
  let stats () =
    Server.Client.request addr
      (Jsonx.Obj
         [
           ("id", Jsonx.int 1);
           ("method", Jsonx.Str "stats");
           ("params", Jsonx.Obj []);
         ])
  in
  let render stats =
    let result = Option.value ~default:Jsonx.Null (Jsonx.member "result" stats) in
    let by_verb =
      match Jsonx.member "by_verb" result with
      | Some (Jsonx.Obj fields) -> fields
      | _ -> []
    in
    Format.printf "%-10s %10s %8s %12s %12s@." "verb" "requests" "errors"
      "total(ms)" "avg(ms)";
    List.iter
      (fun (verb, v) ->
        let reqs = Option.value ~default:0 (Jsonx.mem_int "requests" v) in
        let errs = Option.value ~default:0 (Jsonx.mem_int "errors" v) in
        match Option.bind (Jsonx.member "seconds" v) Jsonx.to_num with
        | Some s when reqs > 0 ->
            Format.printf "%-10s %10d %8d %12.2f %12.2f@." verb reqs errs
              (1e3 *. s)
              (1e3 *. s /. float_of_int reqs)
        | _ -> Format.printf "%-10s %10d %8d %12s %12s@." verb reqs errs "-" "-")
      by_verb;
    match
      ( Option.bind (Jsonx.member "uptime_s" result) Jsonx.to_num,
        Jsonx.mem_int "requests" result )
    with
    | Some u, Some r ->
        Format.printf "@.uptime %.1fs · %d requests · %d spans dropped@." u r
          (Option.value ~default:0 (Jsonx.mem_int "span_dropped" result))
    | _ -> ()
  in
  let rec go i =
    match stats () with
    | Error e ->
        prerr_endline ("top: " ^ e);
        1
    | Ok stats ->
        if iterations <> 1 then Format.printf "\027[2J\027[H";
        render stats;
        Format.print_flush ();
        if iterations > 0 && i + 1 >= iterations then 0
        else begin
          (try Unix.sleepf interval with Unix.Unix_error _ -> ());
          go (i + 1)
        end
  in
  go 0

(* ----------------------------- cmdliner ------------------------------ *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-QASM program")

let default name = List.assoc name Pipeline.defaults

(* simulate, sample and profile take the verify request's default seed *)
let seed_arg =
  Arg.(
    value
    & opt int (int_of_string (default "seed"))
    & info [ "seed" ] ~doc:"random seed")

let certify_flag doc = Arg.(value & flag & info [ "certify" ] ~doc)

(* verify, client and serve: certify a verify request's transpile plan *)
let request_certify_flag =
  certify_flag
    "translation-validate the transpile plan (optimize, then \
     prune_lightcone, then segment compile) before verifying; serve does \
     it for every verify request. A failed certificate refuses the request \
     with MQ021 (exit status 1). Characterization runs the source circuit, \
     not the certified plan, so the run behind the verdict is not what the \
     certificate covers"

(* a verify request's flags, declared once for verify and client: named
   string fields for [Pipeline.run], which holds their defaults *)
let field_arg name ~docv doc =
  Arg.(
    value
    & opt (some string) None
    & info [ name ] ~docv
        ~doc:(Printf.sprintf "%s (default %s)" doc (default name)))

let request_fields =
  let specs name doc =
    Arg.(value & opt_all string [] & info [ name ] ~docv:"SPEC" ~doc)
  in
  Term.(
    const (fun assumes guarantees count seed solver budget certify ->
        [
          ("assume", assumes);
          ("guarantee", guarantees);
          ("count", Option.to_list count);
          ("seed", Option.to_list seed);
          ("solver", Option.to_list solver);
          ("budget", Option.to_list budget);
          ("certify", if certify then [ "true" ] else []);
        ])
    $ specs "assume" "assumption predicate"
    $ specs "guarantee" "guarantee predicate"
    $ field_arg "count" ~docv:"N" "sampled inputs; 0 selects the Theorem 2 count"
    $ field_arg "seed" ~docv:"SEED" "random seed"
    $ field_arg "solver" ~docv:"SOLVER" "qp | sgd | anneal | genetic"
    $ field_arg "budget" ~docv:"SPEC"
        "shot budget for expect pragmas: fixed:N, or seq:ALPHA,BETA,MAX for \
         a sequential (SPRT) budget with early stopping"
    $ request_certify_flag)

let info_term = Term.(const info_cmd $ file_arg)

let simulate_term =
  let shots = Arg.(value & opt int 1000 & info [ "shots" ] ~doc:"number of shots") in
  let noisy = Arg.(value & flag & info [ "noisy" ] ~doc:"use the IBM-Cairo noise model") in
  Term.(const simulate_cmd $ file_arg $ shots $ seed_arg $ noisy)

let sample_term =
  let count = Arg.(value & opt int 8 & info [ "count" ] ~doc:"number of sampled inputs") in
  let kind =
    Arg.(
      value
      & opt
          (enum
             Clifford.Sampling.
               [ ("basis", Basis); ("clifford", Clifford); ("haar", Haar) ])
          Clifford.Sampling.Clifford
      & info [ "kind" ] ~doc:"basis | clifford | haar")
  in
  Term.(const sample_cmd $ file_arg $ count $ kind $ seed_arg)

let optimize_term =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"write optimized QASM to a file")
  in
  let certify =
    certify_flag
      "emit a translation-validation certificate for every pass and check it \
       with the independent checker; exit 1 (MQ021) on any failed obligation"
  in
  Term.(const optimize_cmd $ file_arg $ output $ certify)

let certify_term =
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"mini-QASM programs to certify")
  in
  Term.(const certify_cmd $ files)

let lint_term =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"mini-QASM programs to lint")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"treat warnings as errors")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"print only failing diagnostics")
  in
  let cost_threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "cost-threshold" ] ~docv:"SECONDS"
          ~doc:
            "MQ017 threshold in estimated device seconds (default: \
             MORPHQPV_LINT_COST_THRESHOLD or 1.0)")
  in
  let certify =
    certify_flag
      "also run MQ021: translation-validate the transpile pipeline on each \
       file with the independent certificate checker"
  in
  Term.(const lint_cmd $ files $ strict $ quiet $ cost_threshold $ certify)

let profile_term =
  (* a plain-string positional (not [Arg.file]) so a missing program file
     is reported by [read_circuit] as a one-line error with exit 1,
     rather than a cmdliner usage error *)
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"mini-QASM program")
  in
  let shots =
    Arg.(value & opt int 256 & info [ "shots" ] ~doc:"shots for the simulate phase")
  in
  let count =
    Arg.(value & opt int 6 & info [ "count" ] ~doc:"sampled inputs for the characterize phase")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "write spans as Chrome trace_event JSONL (chrome://tracing, \
             Perfetto); - for stdout")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"write the metrics snapshot as JSON; - for stdout")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "write the metrics registry in Prometheus text exposition \
             format; - for stdout")
  in
  Term.(
    const profile_cmd $ file $ shots $ count $ seed_arg $ trace $ metrics
    $ prom)

let verify_term =
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "memoize characterization/verdicts in the content-addressed \
             cache (in-memory; set MORPHQPV_CACHE_DIR for persistence \
             across runs)")
  in
  Term.(const verify_cmd $ file_arg $ request_fields $ cache)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/morphqpv.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"use loopback TCP on PORT instead of the Unix socket")

let serve_term =
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "persist the shared cache to DIR (default: MORPHQPV_CACHE_DIR \
             when set, else in-memory only)")
  in
  let cache_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-mb" ] ~docv:"MB" ~doc:"in-memory cache budget in MiB")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"DEST"
          ~doc:
            "structured JSONL log destination: a file path, stderr, or - \
             for stdout (same as MORPHQPV_LOG)")
  in
  let log_level =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"debug | info | warn | error (default info)")
  in
  Term.(
    const serve_cmd $ socket_arg $ tcp_arg $ cache_dir $ cache_mb
    $ request_certify_flag $ log $ log_level)

let client_term =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"mini-QASM program (method verify)")
  in
  let method_ =
    Arg.(
      value & opt string ""
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            "ping | stats | metrics | trace | verify | shutdown (default: \
             verify with FILE, ping without)")
  in
  let fields =
    Term.(
      const (fun fields mode -> ("mode", Option.to_list mode) :: fields)
      $ request_fields
      $ field_arg "mode" ~docv:"MODE"
          "characterization mode: exact | tomo:SHOTS | probs:SHOTS")
  in
  let request_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-id" ] ~docv:"ID"
          ~doc:
            "name this request (echoed on the terminal line, keys the \
             trace RPC); for method trace: the id of the request to fetch")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:"re-issue the request every SECS seconds until it fails")
  in
  Term.(
    const client_cmd $ socket_arg $ tcp_arg $ method_ $ file $ fields
    $ request_id $ watch)

let top_term =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"refresh interval in seconds")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"stop after N refreshes (0 = run until interrupted)")
  in
  Term.(const top_cmd $ socket_arg $ tcp_arg $ interval $ iterations)

let cmds =
  [
    Cmd.v (Cmd.info "info" ~doc:"static program statistics") info_term;
    Cmd.v (Cmd.info "simulate" ~doc:"run a program and print counts/tracepoints") simulate_term;
    Cmd.v (Cmd.info "sample" ~doc:"characterize a program and report accuracy") sample_term;
    Cmd.v (Cmd.info "verify" ~doc:"validate an assume-guarantee assertion") verify_term;
    Cmd.v
      (Cmd.info "optimize" ~doc:"transpile a program and check equivalence")
      optimize_term;
    Cmd.v
      (Cmd.info "certify"
         ~doc:
           "translation-validate the transpile pipeline: every pass emits a \
            certificate, checked by an independent checker")
      certify_term;
    Cmd.v
      (Cmd.info "lint" ~doc:"run static-analysis diagnostics over programs")
      lint_term;
    Cmd.v
      (Cmd.info "profile"
         ~doc:"profile the pipeline phases and dump traces/metrics")
      profile_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "run the verification daemon (line-delimited JSON-RPC, shared \
            incremental cache)")
      serve_term;
    Cmd.v
      (Cmd.info "client" ~doc:"send one request to a running daemon")
      client_term;
    Cmd.v
      (Cmd.info "top"
         ~doc:"live per-RPC request/latency table for a running daemon")
      top_term;
  ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "morphqpv" ~version:"1.0.0"
             ~doc:"Confident quantum program verification via isomorphism")
          cmds))
