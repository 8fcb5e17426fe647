(** Textual predicate / budget / mode specs. {!Pipeline} parses the
    predicate specs of every verify request, so the [morphqpv] CLI and the
    RPC server accept one grammar.

    Predicate specs (tracepoint 0 = the program input):
    [pure:T], [equals:A,B], [equals-basis:T,K], [diag:T,K,LO,HI],
    [expect-ge:T,PAULI,V], [expect-le:T,PAULI,V], [purity-ge:T,V].
    Budget specs: [fixed:N] | [seq:ALPHA,BETA,MAX].
    Mode specs: [exact] | [tomo:SHOTS] | [probs:SHOTS].
    Solver names: [qp] | [sgd] | [anneal] | [genetic]. *)

val parse_predicate :
  Circuit.t -> int -> string -> (Predicate.t, string) result
(** [parse_predicate circuit n_in spec] ([n_in] = the width of tracepoint
    0). Malformed or non-finite numbers ([nan], [inf], [1e999]), unknown
    forms and predicates the program cannot evaluate — an unknown
    tracepoint, [equals] across different widths, a basis index
    [K >= 2^width], a Pauli string whose length is not the width — return
    [Error], never raise. *)

val parse_budget : string -> (Stats.Tests.budget, string) result
val parse_mode : string -> (Characterize.mode, string) result

val parse_solver : string -> (Optimize.Solvers.method_, string) result
(** Exactly [qp], [sgd], [anneal] or [genetic]. *)
