(* Flight recorder: a bounded ring of the last 256 completed request
   summaries, kept in memory by the serve daemon.

   Each summary holds what an operator needs to reconstruct a request
   after the fact — id, verb, wall time, outcome, the registry-counter
   deltas the request produced, and (when observability was enabled) the
   request's span events so the [trace <id>] RPC can serve its full span
   tree as Chrome-trace JSON long after the per-domain span rings have
   been reclaimed. The ring overwrites oldest-first; lookups scan newest
   first so a re-used request id resolves to its latest occurrence.

   Not thread-safe by itself: the daemon records and reads from the
   single accept-loop domain. *)

type summary = {
  rid : string;  (** request id (client-supplied or generated) *)
  verb : string;  (** RPC method name *)
  seconds : float;  (** wall time of the whole request *)
  ok : bool;  (** terminal line was a [result], not an [error] *)
  error : string option;
  counters : (string * int) list;
      (** registry counter deltas, flat [name{k=v,...}] keys, nonzero only *)
  events : Obs.Span.event list;
      (** the request's span events ([] when obs was disabled) *)
}

type t = { cap : int; slots : summary option array; mutable n : int }

let create () =
  let cap = 256 in
  { cap; slots = Array.make cap None; n = 0 }

let recorded t = t.n

let record t s =
  t.slots.(t.n mod t.cap) <- Some s;
  t.n <- t.n + 1

let find t rid =
  let lo = max 0 (t.n - t.cap) in
  let rec scan k =
    if k < lo then None
    else
      match t.slots.(k mod t.cap) with
      | Some s when s.rid = rid -> Some s
      | _ -> scan (k - 1)
  in
  scan (t.n - 1)

(* newest first *)
let recent ?(limit = 16) t =
  let lo = max 0 (t.n - t.cap) in
  let rec collect k acc taken =
    if k < lo || taken >= limit then List.rev acc
    else
      match t.slots.(k mod t.cap) with
      | Some s -> collect (k - 1) (s :: acc) (taken + 1)
      | None -> collect (k - 1) acc taken
  in
  collect (t.n - 1) [] 0
