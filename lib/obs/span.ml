(* Nestable tracing spans, buffered lock-free per domain.

   Each domain owns one append-only ring (created on its first span via
   [Domain.DLS], registered in a global list under a mutex exactly once),
   so recording a span never takes a lock and never synchronizes with
   other domains — a worker fanned out by [Parallel.Pool] writes into its
   own ring and the rings are merged (by global sequence number) only when
   a reader asks for [events]/[summary]. Parent links come from a
   domain-local stack: spans nested on one domain chain correctly, spans
   opened on a pool worker start a fresh root there (the [tid] field keeps
   the worker attribution; cross-domain parentage is intentionally not
   tracked, as it would require synchronizing with the submitting domain).

   The ring is bounded ([max_events_per_domain]); once full, new events
   are counted in [dropped] rather than overwriting history, so a trace
   always holds a prefix of the run. *)

type ph = B | E

type event = {
  seq : int;  (** global sequence number — total order across domains *)
  ts_us : float;  (** microseconds since process start *)
  name : string;
  ph : ph;
  tid : int;  (** recording domain id *)
  span : int;  (** span id (the B event's [seq]) *)
  parent : int;  (** enclosing span id on the same domain, [-1] for roots *)
  attrs : (string * string) list;
}

let max_events_per_domain = 1 lsl 16

type ring = {
  tid : int;
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
  mutable stack : int list;  (** open span ids, innermost first *)
}

let rings_lock = Mutex.create ()
let rings : ring list ref = ref []
let seq = Atomic.make 0
let next_seq () = Atomic.fetch_and_add seq 1

let dummy =
  { seq = -1; ts_us = 0.; name = ""; ph = B; tid = 0; span = -1; parent = -1; attrs = [] }

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          tid = (Domain.self () :> int);
          buf = [||];
          len = 0;
          dropped = 0;
          stack = [];
        }
      in
      Mutex.lock rings_lock;
      rings := r :: !rings;
      Mutex.unlock rings_lock;
      r)

let my_ring () = Domain.DLS.get key

let push r ev =
  if r.len >= max_events_per_domain then r.dropped <- r.dropped + 1
  else begin
    if r.len >= Array.length r.buf then begin
      let cap = max 256 (min max_events_per_domain (2 * Array.length r.buf)) in
      let nb = Array.make cap dummy in
      Array.blit r.buf 0 nb 0 r.len;
      r.buf <- nb
    end;
    r.buf.(r.len) <- ev;
    r.len <- r.len + 1
  end

let with_ ?(attrs = []) ?finish ~name f =
  if not (Control.enabled ()) then f ()
  else begin
    let r = my_ring () in
    let sid = next_seq () in
    let parent = match r.stack with [] -> -1 | p :: _ -> p in
    (* request-scoped tracing: spans recorded while a request context is
       open carry its id, so one request's trace filters out of a shared
       stream by attribute as well as by mark-bounded reads *)
    let attrs =
      match Context.current () with
      | Some req -> ("req", req) :: attrs
      | None -> attrs
    in
    push r
      { seq = sid; ts_us = Control.now_us (); name; ph = B; tid = r.tid;
        span = sid; parent; attrs };
    r.stack <- sid :: r.stack;
    (* attributes only known once [f] has returned go on the E event *)
    let end_attrs = ref [] in
    Fun.protect
      ~finally:(fun () ->
        (match r.stack with s :: tl when s = sid -> r.stack <- tl | _ -> ());
        push r
          { seq = next_seq (); ts_us = Control.now_us (); name; ph = E;
            tid = r.tid; span = sid; parent; attrs = !end_attrs })
      (fun () ->
        let x = f () in
        Option.iter (fun g -> end_attrs := g x) finish;
        x)
  end

(* [mark ()] is a watermark: [events ~since:(mark ())] later returns only
   events recorded after it — how [Characterize.run]/[Verify] scope their
   own span-tree summary without resetting global state. *)
let mark () = Atomic.get seq

let snapshot_rings () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  rs

let events ?(since = -1) ?(until = max_int) () =
  let out = ref [] in
  List.iter
    (fun r ->
      (* read [len] once; concurrent pushes beyond it are simply not yet
         part of this snapshot *)
      let len = r.len in
      for i = len - 1 downto 0 do
        let ev = r.buf.(i) in
        (* [mark] returns the next seq to be assigned, so the first event
           recorded after a mark has seq = mark — hence >= for [since]
           and strict < for [until]: [events ~since:m0 ~until:m1] is
           exactly what ran between the two marks *)
        if ev.seq >= since && ev.seq < until then out := ev :: !out
      done)
    (snapshot_rings ());
  List.sort (fun a b -> compare a.seq b.seq) !out

let dropped () =
  List.fold_left (fun acc r -> acc + r.dropped) 0 (snapshot_rings ())

let reset () =
  Mutex.lock rings_lock;
  List.iter
    (fun r ->
      r.len <- 0;
      r.dropped <- 0;
      r.stack <- [])
    !rings;
  Mutex.unlock rings_lock

(* Mark-based reclaim for long-running processes: drop every buffered
   event with [seq < before] so the bounded rings never saturate across
   requests. The serve daemon calls this after archiving a request's
   events into its flight recorder; without it the 64Ki ring fills once
   and every later request traces as empty (only [dropped] moving).

   Only quiescent rings (no open span) are compacted — an open span's B
   event must survive until its E lands or [summary] would lose the
   pair. The caller must ensure no other domain is recording while it
   reclaims (the daemon runs requests sequentially and pool workers are
   idle between requests); [dropped] is intentionally preserved — it is
   a cumulative saturation counter, exported as
   [morphqpv_obs_span_dropped_total]. *)
let reclaim ~before () =
  List.iter
    (fun r ->
      if r.stack = [] && r.len > 0 then begin
        let len = r.len in
        (* seqs are appended in increasing order per ring, so survivors
           form a suffix *)
        let keep_from = ref len in
        (try
           for i = 0 to len - 1 do
             if r.buf.(i).seq >= before then begin
               keep_from := i;
               raise Exit
             end
           done
         with Exit -> ());
        let kept = len - !keep_from in
        if !keep_from > 0 then begin
          if kept > 0 then Array.blit r.buf !keep_from r.buf 0 kept;
          Array.fill r.buf kept !keep_from dummy;
          r.len <- kept
        end
      end)
    (snapshot_rings ())

(* ----------------------------- summary ------------------------------- *)

type row = { name : string; count : int; total_s : float }
type summary = row list

let summary ?since ?until () =
  let open_b : (int, event) Hashtbl.t = Hashtbl.create 32 in
  let agg : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      match ev.ph with
      | B -> Hashtbl.replace open_b ev.span ev
      | E -> (
          match Hashtbl.find_opt open_b ev.span with
          | None -> ()
          | Some b ->
              Hashtbl.remove open_b ev.span;
              let dur = Float.max 0. (ev.ts_us -. b.ts_us) in
              let c, t =
                Option.value ~default:(0, 0.) (Hashtbl.find_opt agg ev.name)
              in
              Hashtbl.replace agg ev.name (c + 1, t +. dur)))
    (events ?since ?until ());
  Hashtbl.fold
    (fun name (count, us) acc -> { name; count; total_s = us /. 1e6 } :: acc)
    agg []
  |> List.sort (fun a b ->
         if a.total_s <> b.total_s then compare b.total_s a.total_s
         else compare a.name b.name)
