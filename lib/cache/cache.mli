(** Content-addressed result cache for incremental verification.

    [Cache.t] (the store itself, see {!Store}) memoizes the expensive
    layers of the pipeline — per-tracepoint and whole-result
    characterizations, verdicts and certified segment plans, each through
    {!Store.memo} — keyed by {!Canon} content hashes so that re-verifying
    an edited program only re-runs tracepoints whose backward cone
    actually changed. *)

module Fnv : module type of Fnv
module Canon : module type of Canon

include module type of Store with type t = Store.t
