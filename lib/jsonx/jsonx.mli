(** The program's one JSON module: the daemon protocol, the obs exporters
    and logs, and the bench results file are all built as {!t} and printed
    by {!to_string}. The writer always emits a single line (control
    characters are escaped); non-finite numbers print as [null], integers
    below 1e15 without an exponent, every other number as [%.17g], which
    reads back to the same float. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val parse : string -> (t, string) result
(** Total: every input yields [Ok] or [Error "... at offset N"], never an
    exception. Nesting deeper than 128 arrays/objects is an [Error]. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_list : string -> t -> t list option

val int : int -> t
(** [int i] is [Num (float_of_int i)]. *)
