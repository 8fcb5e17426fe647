(* Process-wide metrics registry: counters, gauges and fixed-bucket
   histograms, keyed by (name, sorted label set).

   Writes are name-based rather than handle-based so instrumentation
   sites with dynamic labels (e.g. [gate_applied_total{kind}]) stay one
   line; the registry lookup happens only when observability is enabled,
   behind the caller's [Obs.enabled] guard. Values are [Atomic]s so pool
   workers can bump them concurrently; the registry hashtable itself is
   mutex-protected (creation is rare, lookup cost is the documented
   enabled-mode overhead).

   Counter semantics are deterministic: every instrumented site counts
   work items (gates, shots, MACs), never wall-clock or scheduling facts,
   so snapshots are bit-identical across [MORPHQPV_DOMAINS] settings. *)

type labels = (string * string) list

type hist = {
  bounds : float array;  (** strictly increasing upper bucket edges *)
  counts : int Atomic.t array;  (** length [bounds] + 1; last is +inf *)
  sum : float Atomic.t;
}

type value = VCounter of int Atomic.t | VGauge of float Atomic.t | VHist of hist

let lock = Mutex.create ()
let registry : (string * labels, value) Hashtbl.t = Hashtbl.create 64
let canon labels = List.sort compare labels

let find_or_add name labels mk =
  let key = (name, canon labels) in
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt registry key with
    | Some v -> v
    | None ->
        let v = mk () in
        Hashtbl.add registry key v;
        v
  in
  Mutex.unlock lock;
  v

let counter_add ?(labels = []) name by =
  if Control.enabled () then
    match find_or_add name labels (fun () -> VCounter (Atomic.make 0)) with
    | VCounter c -> ignore (Atomic.fetch_and_add c by)
    | _ -> ()

let gauge_set ?(labels = []) name v =
  if Control.enabled () then
    match find_or_add name labels (fun () -> VGauge (Atomic.make 0.)) with
    | VGauge g -> Atomic.set g v
    | _ -> ()

let default_buckets = [| 1.; 2.; 4.; 8.; 16.; 64.; 256.; 1024. |]

let rec atomic_addf a v =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. v)) then atomic_addf a v

let observe ?(labels = []) ?buckets name v =
  if Control.enabled () then begin
    let mk () =
      let bounds =
        match buckets with
        | Some b ->
            if Array.length b = 0 then invalid_arg "Obs.Metrics: empty buckets";
            Array.iteri
              (fun i x ->
                if i > 0 && x <= b.(i - 1) then
                  invalid_arg "Obs.Metrics: buckets must increase strictly")
              b;
            Array.copy b
        | None -> default_buckets
      in
      VHist
        {
          bounds;
          counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
        }
    in
    match find_or_add name labels mk with
    | VHist h ->
        let n = Array.length h.bounds in
        (* Prometheus-style cumulative-le edges: bucket i counts v <=
           bounds.(i); the extra last bucket is +inf *)
        let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
        ignore (Atomic.fetch_and_add h.counts.(idx 0) 1);
        atomic_addf h.sum v
    | _ -> ()
  end

let reset () =
  Mutex.lock lock;
  Hashtbl.reset registry;
  Mutex.unlock lock

(* ----------------------------- reading ------------------------------- *)

type histogram_view = { hbounds : float array; hcounts : int array; hsum : float }
type data = Counter of int | Gauge of float | Histogram of histogram_view
type entry = { name : string; labels : labels; data : data }

let counter_value ?(labels = []) name =
  Mutex.lock lock;
  let v = Hashtbl.find_opt registry (name, canon labels) in
  Mutex.unlock lock;
  match v with Some (VCounter c) -> Some (Atomic.get c) | _ -> None

let snapshot () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock lock;
  List.map
    (fun ((name, labels), v) ->
      let data =
        match v with
        | VCounter c -> Counter (Atomic.get c)
        | VGauge g -> Gauge (Atomic.get g)
        | VHist h ->
            Histogram
              {
                hbounds = Array.copy h.bounds;
                hcounts = Array.map Atomic.get h.counts;
                hsum = Atomic.get h.sum;
              }
      in
      { name; labels; data })
    all
  |> List.sort (fun a b ->
         if a.name <> b.name then compare a.name b.name
         else compare a.labels b.labels)

(* the flat [name{k=v,...}] counter key: flight-recorder summaries,
   bench result rows and the profile table all spell counters this way *)
let flat_name name = function
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let counters () =
  List.filter_map
    (fun e ->
      match e.data with
      | Counter v -> Some (flat_name e.name e.labels, v)
      | _ -> None)
    (snapshot ())

(* ------------------------------- JSON -------------------------------- *)

let labels_json labels =
  Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) labels)

let schema = "morphqpv-obs-v1"

let snapshot_json () =
  let entries = snapshot () in
  let pick f =
    Jsonx.List
      (List.filter_map
         (fun e ->
           Option.map
             (fun fields ->
               Jsonx.Obj
                 (("name", Jsonx.Str e.name)
                 :: ("labels", labels_json e.labels)
                 :: fields))
             (f e.data))
         entries)
  in
  let bucket h i count =
    let le =
      if i < Array.length h.hbounds then Jsonx.Num h.hbounds.(i)
      else Jsonx.Str "+inf"
    in
    Jsonx.Obj [ ("le", le); ("count", Jsonx.int count) ]
  in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str schema);
         ( "counters",
           pick (function
             | Counter v -> Some [ ("value", Jsonx.int v) ]
             | _ -> None) );
         ( "gauges",
           pick (function
             | Gauge v -> Some [ ("value", Jsonx.Num v) ]
             | _ -> None) );
         ( "histograms",
           pick (function
             | Histogram h ->
                 Some
                   [
                     ( "buckets",
                       Jsonx.List
                         (List.mapi (bucket h) (Array.to_list h.hcounts)) );
                     ("sum", Jsonx.Num h.hsum);
                     ("count", Jsonx.int (Array.fold_left ( + ) 0 h.hcounts));
                   ]
             | _ -> None) );
       ])
