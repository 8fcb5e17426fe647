(** Hand-rolled FNV-1a hashing for content-addressed cache keys (no
    dependencies, not cryptographic). *)

val fnv1a64 : ?offset:int64 -> string -> int64
(** [fnv1a64 s] is the 64-bit FNV-1a hash of [s], from the standard
    64-bit offset basis unless [offset] says otherwise. *)

val hex : string -> string
(** [hex s] is a 32-character hex digest: two independent FNV-1a lanes
    (the second with a distinct offset and length folding). *)

val seed_of_string : string -> int
(** [seed_of_string s] is a non-negative native-int seed derived from
    [s] — for generators that must be pure functions of a cache key. *)
