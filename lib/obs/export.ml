(* Exporters: Chrome trace_event JSONL for spans, Prometheus text for
   metrics.

   One event per line, each a complete [ph:"B"/"E"] duration record that
   `chrome://tracing` / Perfetto accept directly (wrap the lines in a JSON
   array, or load the file as-is — both UIs tolerate newline-delimited
   event streams). [pid] is fixed at 1; [tid] is the recording domain. *)

let event_json (ev : Span.event) =
  Jsonx.Obj
    ([
       ("name", Jsonx.Str ev.name);
       ("cat", Jsonx.Str "morphqpv");
       ("ph", Jsonx.Str (match ev.ph with Span.B -> "B" | Span.E -> "E"));
       ("ts", Jsonx.Num ev.ts_us);
       ("pid", Jsonx.int 1);
       ("tid", Jsonx.int ev.tid);
     ]
    @
    match ev.attrs with
    | [] -> []
    | attrs -> [ ("args", Metrics.labels_json attrs) ])

let trace_jsonl ?since ?until () =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Jsonx.to_string (event_json ev));
      Buffer.add_char b '\n')
    (Span.events ?since ?until ());
  Buffer.contents b

(* --------------------- Prometheus text exposition --------------------- *)

(* Text exposition format 0.0.4: every registry series under one
   [morphqpv_] prefix, with a [# TYPE] line per metric name (entries with
   the same name are adjacent in the sorted snapshot). Histograms are
   rendered with Prometheus' CUMULATIVE [le] buckets — the registry
   stores per-bucket counts, so partial sums are taken here — plus the
   [_sum]/[_count] series. [Span.dropped] is synthesized at scrape time
   as [morphqpv_obs_span_dropped_total] so ring saturation is visible to
   an operator without polling the profile subcommand; it is not a
   registry counter because drop counts depend on how events distribute
   over domain rings, which would break the counters' bit-identical-
   across-domain-counts contract. *)

let prefix = "morphqpv_"

let prom_name name =
  let name =
    if
      String.length name >= String.length prefix
      && String.sub name 0 (String.length prefix) = prefix
    then name
    else prefix ^ name
  in
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let prom_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v))
             labels)
      ^ "}"

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" x

let prometheus () =
  let b = Buffer.create 4096 in
  let last_typed = ref "" in
  let emit_type name kind =
    if name <> !last_typed then begin
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
      last_typed := name
    end
  in
  List.iter
    (fun (e : Metrics.entry) ->
      let name = prom_name e.name in
      let labels = prom_labels e.labels in
      match e.data with
      | Metrics.Counter v ->
          emit_type name "counter";
          Buffer.add_string b (Printf.sprintf "%s%s %d\n" name labels v)
      | Metrics.Gauge g ->
          emit_type name "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" name labels (prom_float g))
      | Metrics.Histogram h ->
          emit_type name "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.Metrics.hbounds then
                  prom_float h.Metrics.hbounds.(i)
                else "+Inf"
              in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (prom_labels (e.labels @ [ ("le", le) ]))
                   !cum))
            h.Metrics.hcounts;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" name labels
               (prom_float h.Metrics.hsum));
          Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" name labels !cum))
    (Metrics.snapshot ());
  let dropped_name = prom_name "obs_span_dropped_total" in
  emit_type dropped_name "counter";
  Buffer.add_string b
    (Printf.sprintf "%s %d\n" dropped_name (Span.dropped ()));
  Buffer.contents b
