(** Assume-guarantee assertions (Definition 1): when every assumption holds,
    every guarantee must hold. The assertion fails on an input satisfying
    the assumptions but violating a guarantee. *)

type t = {
  name : string;
  assumes : Predicate.t list;
  guarantees : Predicate.t list;
}

val make :
  ?name:string ->
  assumes:Predicate.t list ->
  guarantees:Predicate.t list ->
  unit ->
  t

(** [holds ?tol t env] checks the implication on one concrete environment:
    true when some assumption fails or all guarantees hold. *)
val holds : ?tol:float -> t -> Predicate.env -> bool

(** Distribution-level assertion on measurement counts: the program's
    final computational-basis distribution must match [expected]
    ([basis index, probability] pairs; unlisted outcomes share the
    remaining mass). Checked by {!Verify.check_counts} with a chi-square
    goodness-of-fit test at level [significance] (or a sequential SPRT
    under a [`Sequential] shot budget) — sharper than the Stat
    baseline's fixed 3.84 threshold. Parsed from the QASM [expect]
    pragma. Kept separate from {!t} so the assume-guarantee record (and
    every consumer of it) is unchanged. *)
module Dist : sig
  type t = private { expected : (int * float) list; significance : float }

  (** [make ?significance expected] raises [Invalid_argument] on an
      expectation that breaks lint MQ019's rules
      ({!Analysis.Lint.expect_violation}; indices distinct and
      non-negative, probabilities each in [0, 1] and summing to at most
      1). Default significance 0.05. *)
  val make : ?significance:float -> (int * float) list -> t

  (** Probability mass left to outcomes not listed in [expected]. *)
  val other_mass : t -> float

  val describe : t -> string
end

(** [tracepoints t] lists all tracepoint ids mentioned. *)
val tracepoints : t -> int list

val describe : t -> string
