(** Wald's sequential probability ratio test.

    Accumulates a running log-likelihood ratio log (P1 / P0) between two
    simple hypotheses; {!decide} reports a crossing of the Wald
    boundaries log A = log ((1-beta)/alpha) (reject H0, i.e. accept H1)
    or log B = log (beta/(1-alpha)) (accept H0). Used by the sequential
    shot budget in [Verify] / [Tomography.State_tomo]. *)

type t

type verdict = Accept_h0 | Reject_h0 | Continue

(** [make ~alpha ~beta] with [alpha] the admissible false-reject rate and
    [beta] the false-accept rate, both in (0, 1). *)
val make : alpha:float -> beta:float -> t

(** [observe_llr t llr] folds one observation's log-likelihood-ratio
    increment into the state. *)
val observe_llr : t -> float -> t

(** [bernoulli_llr ~p0 ~p1 success] is the LLR increment of one Bernoulli
    trial under success rates [p0] (H0) vs [p1] (H1). *)
val bernoulli_llr : p0:float -> p1:float -> bool -> float

(** [observe_bernoulli ~p0 ~p1 t success] = [observe_llr] of
    [bernoulli_llr]. *)
val observe_bernoulli : p0:float -> p1:float -> t -> bool -> t

val decide : t -> verdict

(** Current running log-likelihood ratio. *)
val log_lr : t -> float

(** [(log_b, log_a)] accept/reject boundaries. *)
val boundaries : t -> float * float
