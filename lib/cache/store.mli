(** Byte-bounded LRU store with optional on-disk persistence — the shared
    backend behind every memo layer (characterizations, verdicts,
    certified segment plans). *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  stores : int;
  entries : int;  (** entries currently resident in memory *)
  bytes : int;  (** approximate resident bytes (keys + values + overhead) *)
}

val entry_version : int
(** Bumped whenever any cached value's representation changes; embedded
    in every disk entry header, so stale files read as misses. *)

val create : ?max_bytes:int -> ?dir:string -> unit -> t
(** [create ()] is an in-memory LRU bounded at 256 MiB by default;
    [~dir] adds a persistent tier (one file per entry, atomic writes,
    corrupt or version-mismatched files read as misses). *)

val of_env : ?enable:bool -> ?dir:string -> ?max_bytes:int -> unit -> t option
(** Resolves each cache setting once, an argument over its environment
    variable: [dir] over [MORPHQPV_CACHE_DIR] (a persistent tier; empty
    reads as unset),
    [max_bytes] over [MORPHQPV_CACHE_MB] (MiB; else {!create}'s default).
    [Some cache] when [enable] (default [false]), when a directory is set,
    or when [MORPHQPV_CACHE] is [1]/[true]/[on]. *)

val find : t -> ns:string -> string -> string option
(** Lookup, refreshing recency. A memory miss falls through to disk;
    a disk hit is promoted into memory. Records
    [cache_{hit,miss}_total{ns}]. *)

val store : t -> ns:string -> string -> string -> unit
(** Insert (or refresh) an entry, write through to disk if persistent,
    then evict from the cold end until the byte budget holds (the most
    recent entry is never evicted). Records
    [cache_bytes_total{ns}] and [cache_evict_total{ns}]. *)

val find_value : t -> ns:string -> string -> 'a option
(** [find] + [Marshal] decode; any decode failure is a miss. The caller
    owns type safety: one namespace, one value type. *)

val store_value : t -> ns:string -> string -> 'a -> unit
(** [Marshal] encode + [store]. Values must be closure-free pure data. *)

val memo :
  t -> ns:string -> ?valid:('a -> bool) -> string -> (unit -> 'a) -> 'a
(** [memo t ~ns ?valid key compute] is the value stored under [key] when
    one decodes and satisfies [valid] (default: any value), otherwise
    [compute ()], stored under [key] before it is returned. The one memo
    idiom of every cached layer; typing as for {!find_value}. *)

val drop_memory : t -> unit
(** Forget the resident tier (persistence-reload testing); disk entries
    and cumulative statistics survive. *)

val stats : t -> stats
