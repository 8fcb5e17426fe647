(** Derivative-free and gradient-based maximizers over box-constrained
    objectives: the three solver families the paper evaluates (stochastic
    gradient descent, genetic algorithm, quadratic programming) plus
    simulated annealing as used in the reference artifact. *)

type solution = { x : float array; value : float; evals : int }

(** [adam ?iters ?restarts rng obj] — Adam gradient ascent with numeric
    gradients, step size 0.05 and random restarts (the paper's "SGD"
    solver). *)
val adam : ?iters:int -> ?restarts:int -> Stats.Rng.t -> Objective.t -> solution

(** [anneal ?iters ?restarts rng obj] — simulated annealing with a
    geometric cooling schedule from temperature 1. *)
val anneal : ?iters:int -> ?restarts:int -> Stats.Rng.t -> Objective.t -> solution

(** [genetic ?generations ?population rng obj] — tournament selection,
    blend crossover, Gaussian mutation of each coordinate with
    probability 0.15, elitism. *)
val genetic :
  ?generations:int -> ?population:int -> Stats.Rng.t -> Objective.t -> solution

(** [qp ?iters ?restarts rng obj] — projected conjugate-direction ascent with
    exact line search under a local quadratic model; exact for quadratic
    objectives (the paper's quadratic-programming solver role). *)
val qp : ?iters:int -> ?restarts:int -> Stats.Rng.t -> Objective.t -> solution

type method_ = [ `Adam | `Anneal | `Genetic | `Qp ]

val method_to_string : method_ -> string

(** [maximize ?budget method rng obj] dispatches on the method with a
    roughly comparable evaluation budget. *)
val maximize : ?budget:int -> method_ -> Stats.Rng.t -> Objective.t -> solution
