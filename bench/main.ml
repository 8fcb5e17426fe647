(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) and records each
   experiment's wall time and counters in BENCH_results.json.

   Usage:
     dune exec bench/main.exe                  # all experiments
     dune exec bench/main.exe -- fig7 table4   # a subset
     dune exec bench/main.exe -- --list        # list experiment names
     dune exec bench/main.exe -- check         # regression gate (below)

   Any other argument is a usage error (exit 2). *)

let experiments =
  [
    ("fig1b", "confidence vs tested inputs (15q quantum lock)", Exp_fig1b.run);
    ("fig5", "approximation accuracy vs N_sample (teleportation)", Exp_fig5.run);
    ("fig6", "accuracy distribution vs fitted Beta", Exp_fig6.run);
    ("fig7", "executions to find the quantum-lock bug", Exp_fig7.run);
    ("fig10", "executions to find the corrupted QRAM cell", Exp_fig10.run);
    ("fig11", "state-recovery time + accuracy of 5 benchmarks", Exp_fig11.run);
    ("fig12", "estimated confidence vs measured success", Exp_fig12.run);
    ("fig13", "pruning strategies ablation", Exp_fig13.run);
    ("fig14", "noisy accuracy vs intermediate tracepoints", Exp_fig14.run);
    ("fig15", "sampling-family ablation + solver timing", Exp_fig15.run);
    ("table2", "expressiveness vs assertion techniques", Exp_tables_expr.run);
    ("table4", "success rate + overhead vs NDD/Quito", Exp_table4.run);
    ("table6", "success rate + seconds vs Twist/Automa", Exp_table6.run);
    ("ablation", "alpha-recovery and PSD-projection ablations", Exp_ablation.run);
    ("perf", "multicore scaling + gate fusion (BENCH_results.json)", Exp_perf.run);
    ("scale", "24-32q characterization past the dense wall", Exp_perf.run_scale);
    ("cache", "warm-vs-cold incremental verification cache", Exp_cache.run);
    ("fuzz", "differential/metamorphic fuzz sweep (pass/fail counts)", Exp_fuzz.run);
    ("certify", "translation-validation obligations + checker timing", Exp_certify.run);
  ]

(* --------------------------- regression gate -------------------------- *)

(* [check [PREV CUR]]: compare the last two results files (default: the
   rotation pair written by [Util.write_bench_json]) and fail on
   statistically significant slowdowns or counter drifts. Exit codes:
   0 clean, 1 regression, 2 usage/missing files. *)
let run_check args =
  let prev_file, cur_file =
    match args with
    | [] -> (Util.prev_path "BENCH_results.json", "BENCH_results.json")
    | [ p; c ] -> (p, c)
    | _ ->
        prerr_endline "usage: bench check [PREV.json CUR.json]";
        exit 2
  in
  match (Testkit.Benchgate.load prev_file, Testkit.Benchgate.load cur_file) with
  | Error e, _ | _, Error e ->
      Printf.eprintf
        "bench check: %s\n(run the bench twice so both %s and %s exist)\n" e
        prev_file cur_file;
      exit 2
  | Ok prev, Ok cur ->
      let report = Testkit.Benchgate.compare_runs ~prev cur in
      Format.printf "%a" Testkit.Benchgate.pp_report report;
      exit (if report.Testkit.Benchgate.regressions = [] then 0 else 1)

(* ------------------------------ driver ------------------------------- *)

let usage = "usage: bench [--list | check [PREV.json CUR.json] | EXPERIMENT...]"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "check" :: rest -> run_check rest
  | _ -> ());
  let find a = List.find_opt (fun (n, _, _) -> n = a) experiments in
  (match List.find_opt (fun a -> a <> "--list" && find a = None) args with
  | Some a ->
      Printf.eprintf "bench: unknown argument %S (try --list)\n%s\n" a usage;
      exit 2
  | None -> ());
  if List.mem "--list" args then
    List.iter (fun (name, doc, _) -> Printf.printf "%-10s %s\n" name doc) experiments
  else begin
    let to_run = if args = [] then experiments else List.filter_map find args in
    (* observability is on by default here so every experiment row in
       BENCH_results.json carries its counter deltas (gates, shots,
       MACs); MORPHQPV_OBS in the environment still wins *)
    if Sys.getenv_opt "MORPHQPV_OBS" = None then Obs.configure ~enabled:true;
    let t0 = Unix.gettimeofday () in
    let domains = Parallel.Pool.env_domains () in
    List.iter
      (fun (name, _, run) ->
        let (), dt =
          Obs.Span.with_ ~name:("exp." ^ name) (fun () -> Util.time run)
        in
        Util.record name ~seconds:dt ~domains ();
        Printf.printf "[%s finished in %.1fs]\n%!" name dt)
      to_run;
    Util.write_bench_json "BENCH_results.json";
    Printf.printf "\nAll experiments done in %.1fs\n%!" (Unix.gettimeofday () -. t0);
    if !Util.gate_failed then exit 1
  end
