(** Constrained maximization via the quadratic-penalty method.

    MorphQPV validates an assertion by maximizing the guarantee objective
    subject to the assumption predicates (all expressed as [g(x) <= 0]); this
    module reduces that to a sequence of unconstrained problems
    [f(x) - mu * sum max(0, g_i(x))^2] with growing [mu]. *)

type problem = {
  objective : Objective.t;  (** to maximize *)
  constraints : (float array -> float) list;  (** feasible iff all <= 0 *)
}

type solution = {
  x : float array;
  value : float;  (** objective at [x] *)
  max_violation : float;  (** max over constraints of [max 0 g(x)] *)
  feasible : bool;  (** [max_violation <= feasible_tol] *)
  evals : int;
}

(** The largest constraint violation a feasible solution may have: 1e-3. *)
val feasible_tol : float

(** [maximize ?budget ?rounds ~method_ rng problem] runs the penalty
    loop. [rounds] (default 4) controls how many times the penalty weight is
    increased (x10 each round, starting at 10). *)
val maximize :
  ?budget:int ->
  ?rounds:int ->
  method_:Solvers.method_ ->
  Stats.Rng.t ->
  problem ->
  solution
