(* Byte-bounded LRU store with optional on-disk persistence.

   Keys are namespaced opaque byte strings (in practice FNV digests or
   digest-prefixed composites, possibly containing arbitrary bytes from
   marshaled key components); values are opaque payloads (typically
   [Marshal] output). The in-memory tier is a hashtable over an intrusive
   doubly-linked recency list; eviction walks the cold end until the byte
   budget holds, always keeping at least the most recent entry.

   Disk tier ([MORPHQPV_CACHE_DIR] or [create ~dir]): one file per entry,
   [dir/ns/<fnv-hex-of-key>], written atomically (temp + rename) with a
   versioned header carrying the exact key and payload lengths. Reads
   verify version and key; any mismatch, short read or parse failure is a
   miss — corrupt or stale files are never trusted. A memory miss that
   hits disk is promoted into memory and counted as a hit.

   Every operation holds one mutex, so a [t] can be shared across server
   requests; callers on the deterministic simulation paths keep cache
   operations in the coordinating thread so [cache_*_total] counters stay
   bit-identical across domain counts. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  stores : int;
  entries : int;
  bytes : int;
}

type node = {
  nkey : string; (* ns ^ "\x00" ^ key *)
  nns : string;
  mutable value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  max_bytes : int;
  dir : string option;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stores : int;
  lock : Mutex.t;
}

let entry_version = 1

(* fixed per-entry overhead charged against the byte budget (node +
   hashtable slot bookkeeping, approximate) *)
let overhead = 64

let create ?(max_bytes = 256 * 1024 * 1024) ?dir () =
  {
    max_bytes = max max_bytes 1;
    dir;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stores = 0;
    lock = Mutex.create ();
  }

let of_env ?(enable = false) ?dir ?max_bytes () =
  let dir =
    match (dir, Sys.getenv_opt "MORPHQPV_CACHE_DIR") with
    | Some _, _ -> dir
    | None, Some "" -> None (* MORPHQPV_CACHE_DIR= is unset *)
    | None, env -> env
  in
  let max_bytes =
    match max_bytes with
    | Some _ -> max_bytes
    | None -> (
        match
          Option.bind (Sys.getenv_opt "MORPHQPV_CACHE_MB") (fun s ->
              int_of_string_opt (String.trim s))
        with
        | Some n when n > 0 -> Some (n * 1024 * 1024)
        | _ -> None)
  in
  let on =
    enable || dir <> None
    ||
    match Sys.getenv_opt "MORPHQPV_CACHE" with
    | Some ("1" | "true" | "on") -> true
    | _ -> false
  in
  if on then Some (create ?max_bytes ?dir ()) else None

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------- recency list ------------------------------ *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let node_cost n = String.length n.nkey + String.length n.value + overhead

let evict_locked t =
  let continue = ref true in
  while t.bytes > t.max_bytes && !continue do
    match t.tail with
    | Some n when t.head != t.tail ->
        unlink t n;
        Hashtbl.remove t.tbl n.nkey;
        t.bytes <- t.bytes - node_cost n;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.counter_add ~labels:[ ("ns", n.nns) ] "cache_evict_total" 1
    | _ -> continue := false
  done

let insert_locked t ~ns full value =
  (match Hashtbl.find_opt t.tbl full with
  | Some n ->
      t.bytes <- t.bytes - String.length n.value + String.length value;
      n.value <- value;
      unlink t n;
      push_front t n
  | None ->
      let n = { nkey = full; nns = ns; value; prev = None; next = None } in
      Hashtbl.add t.tbl full n;
      push_front t n;
      t.bytes <- t.bytes + node_cost n);
  evict_locked t

(* --------------------------- disk tier ------------------------------- *)

let rec mkdirs d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let disk_path dir ns key = Filename.concat (Filename.concat dir ns) (Fnv.hex key)

let disk_write t ~ns key value =
  match t.dir with
  | None -> ()
  | Some dir -> (
      try
        mkdirs (Filename.concat dir ns);
        let path = disk_path dir ns key in
        let tmp =
          Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Hashtbl.hash key)
        in
        let oc = open_out_bin tmp in
        output_string oc
          (Printf.sprintf "morphqpv-cache %d %d %d\n" entry_version
             (String.length key) (String.length value));
        output_string oc key;
        output_string oc value;
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ | Unix.Unix_error _ -> ())

let disk_read t ~ns key =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = disk_path dir ns key in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic -> (
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              try
                match String.split_on_char ' ' (input_line ic) with
                | [ "morphqpv-cache"; v; klen; vlen ]
                  when int_of_string v = entry_version ->
                    let k = really_input_string ic (int_of_string klen) in
                    if String.equal k key then
                      Some (really_input_string ic (int_of_string vlen))
                    else None
                | _ -> None
              with End_of_file | Failure _ -> None)))

(* ------------------------------ api ---------------------------------- *)

let log_lookup outcome ~ns ~tier =
  if Obs.Log.enabled Obs.Log.Debug then
    Obs.Log.emit Obs.Log.Debug outcome
      [ ("ns", Jsonx.Str ns); ("tier", Jsonx.Str tier) ]

let find t ~ns key =
  let full = ns ^ "\x00" ^ key in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl full with
      | Some n ->
          unlink t n;
          push_front t n;
          t.hits <- t.hits + 1;
          Obs.Metrics.counter_add ~labels:[ ("ns", ns) ] "cache_hit_total" 1;
          log_lookup "cache.hit" ~ns ~tier:"memory";
          Some n.value
      | None -> (
          match disk_read t ~ns key with
          | Some v ->
              insert_locked t ~ns full v;
              t.hits <- t.hits + 1;
              Obs.Metrics.counter_add ~labels:[ ("ns", ns) ] "cache_hit_total" 1;
              log_lookup "cache.hit" ~ns ~tier:"disk";
              Some v
          | None ->
              t.misses <- t.misses + 1;
              Obs.Metrics.counter_add ~labels:[ ("ns", ns) ] "cache_miss_total" 1;
              log_lookup "cache.miss" ~ns ~tier:"none";
              None))

let store t ~ns key value =
  let full = ns ^ "\x00" ^ key in
  with_lock t (fun () ->
      t.stores <- t.stores + 1;
      Obs.Metrics.counter_add ~labels:[ ("ns", ns) ] "cache_bytes_total"
        (String.length value);
      insert_locked t ~ns full value;
      disk_write t ~ns key value)

let find_value t ~ns key =
  match find t ~ns key with
  | None -> None
  | Some s -> ( try Some (Marshal.from_string s 0) with _ -> None)

let store_value t ~ns key v = store t ~ns key (Marshal.to_string v [])

let memo t ~ns ?(valid = fun _ -> true) key compute =
  match find_value t ~ns key with
  | Some v when valid v -> v
  | _ ->
      let v = compute () in
      store_value t ~ns key v;
      v

let drop_memory t =
  with_lock t (fun () ->
      Hashtbl.reset t.tbl;
      t.head <- None;
      t.tail <- None;
      t.bytes <- 0)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        stores = t.stores;
        entries = Hashtbl.length t.tbl;
        bytes = t.bytes;
      })
