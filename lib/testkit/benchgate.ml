(* Bench-regression gate over the machine-readable results files — see
   the mli for the statistical contract. *)

(* --------------------------- schema binding --------------------------- *)

type row = {
  name : string;
  seconds : float;
  samples : float array;
  metrics : (string * int) list;
}

type run = { schema : string; rows : row list }

exception Bad_row of string

let num_exn what v =
  match Jsonx.to_num v with
  | Some f -> f
  | None -> raise (Bad_row (what ^ ": expected a number"))

let row_of_json j =
  let name =
    match Jsonx.mem_str "name" j with
    | Some s -> s
    | None -> raise (Bad_row "result row without a \"name\"")
  in
  let seconds =
    match Jsonx.member "seconds" j with
    | Some v -> num_exn (name ^ ".seconds") v
    | None -> raise (Bad_row (name ^ ": missing \"seconds\""))
  in
  let samples =
    match Jsonx.mem_list "samples" j with
    | Some l -> Array.of_list (List.map (num_exn (name ^ ".samples")) l)
    | None -> [||]
  in
  let metrics =
    match Jsonx.member "metrics" j with
    | Some (Jsonx.Obj kvs) ->
        List.map
          (fun (k, v) -> (k, int_of_float (num_exn (name ^ ".metrics") v)))
          kvs
    | _ -> []
  in
  { name; seconds; samples; metrics }

let parse_run src =
  match Jsonx.parse src with
  | Error msg -> Error msg
  | Ok j -> (
      let schema = Option.value ~default:"" (Jsonx.mem_str "schema" j) in
      if schema <> "morphqpv-bench-v2" then
        Error (Printf.sprintf "unsupported results schema %S" schema)
      else
        match Jsonx.mem_list "results" j with
        | Some rows -> (
            try Ok { schema; rows = List.map row_of_json rows }
            with Bad_row msg -> Error msg)
        | None -> Error "missing \"results\" array")

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (parse_run src)

(* ----------------------------- comparison ----------------------------- *)

type finding = {
  record : string;
  what : string;
  statistic : float;
  pvalue : float option;
}

type report = {
  regressions : finding list;
  skipped : string list;
  compared : int;
}

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

let variance a = Stats.Describe.variance a

(* one-sided Welch t on log-times, current vs previous: log-transforming
   makes the multiplicative timing noise of shared runners roughly
   additive, so the t-test's normality assumption is defensible even at
   3 repetitions *)
let timing_finding ~alpha ~min_ratio ~(prev : row) ~(cur : row) =
  let logs a = Array.map (fun t -> log (Float.max t 1e-9)) a in
  let lp = logs prev.samples and lc = logs cur.samples in
  let ratio = median cur.samples /. Float.max (median prev.samples) 1e-9 in
  if ratio <= min_ratio then None
  else if variance lp <= 0. && variance lc <= 0. then
    (* deterministic (or injected) timings: the ratio alone is the
       evidence, and it already exceeds the practical bound *)
    Some
      {
        record = cur.name;
        what =
          Printf.sprintf
            "slowdown %.2fx (%.6fs -> %.6fs, zero-variance samples)" ratio
            prev.seconds cur.seconds;
        statistic = Float.infinity;
        pvalue = Some 0.;
      }
  else
    let t = Stats.Tests.t_two_sample ~alternative:Stats.Tests.Greater lc lp in
    if t.Stats.Tests.pvalue < alpha then
      Some
        {
          record = cur.name;
          what =
            Printf.sprintf "slowdown %.2fx (%.6fs -> %.6fs)" ratio prev.seconds
              cur.seconds;
          statistic = t.Stats.Tests.statistic;
          pvalue = Some t.Stats.Tests.pvalue;
        }
    else None

(* counters are deterministic under the pinned bench seeds, so any drift
   on a key both runs carry is a real behaviour change (more shots, more
   gates, fewer early stops); keys only one run carries are ignored —
   counters come and go legitimately as PRs add instrumentation *)
let counter_findings ~(prev : row) ~(cur : row) =
  List.filter_map
    (fun (k, pv) ->
      match List.assoc_opt k cur.metrics with
      | Some cv when cv <> pv ->
          Some
            {
              record = cur.name;
              what = Printf.sprintf "counter %s drifted %d -> %d" k pv cv;
              statistic = float_of_int (cv - pv);
              pvalue = None;
            }
      | _ -> None)
    prev.metrics

let compare_runs ?(alpha = 0.01) ?(min_ratio = 1.3) ~prev cur =
  let regressions = ref [] and skipped = ref [] and compared = ref 0 in
  List.iter
    (fun (c : row) ->
      match List.find_opt (fun (p : row) -> p.name = c.name) prev.rows with
      | None -> skipped := (c.name ^ " (new record)") :: !skipped
      | Some p ->
          (match counter_findings ~prev:p ~cur:c with
          | [] -> ()
          | fs -> regressions := fs @ !regressions);
          if Array.length p.samples < 2 || Array.length c.samples < 2 then
            skipped := (c.name ^ " (< 2 timing samples)") :: !skipped
          else begin
            incr compared;
            match timing_finding ~alpha ~min_ratio ~prev:p ~cur:c with
            | Some f -> regressions := f :: !regressions
            | None -> ()
          end)
    cur.rows;
  {
    regressions = List.rev !regressions;
    skipped = List.rev !skipped;
    compared = !compared;
  }

let pp_report ppf r =
  List.iter
    (fun f ->
      Format.fprintf ppf "REGRESSION %s: %s (statistic %.4g%s)@." f.record
        f.what f.statistic
        (match f.pvalue with
        | Some p -> Printf.sprintf ", p = %.4g" p
        | None -> ", exact"))
    r.regressions;
  List.iter (fun s -> Format.fprintf ppf "skipped %s@." s) r.skipped;
  Format.fprintf ppf "bench check: %d timing row(s) compared, %d regression(s)@."
    r.compared
    (List.length r.regressions)
