(** Assertion validation (Section 6): pack the guarantee objective and the
    assumption constraints into a constrained maximization over the
    decomposition coefficients [alpha] and solve it classically.

    The candidate input is [rho(alpha) = sum alpha_i sigma_in_i]. Each
    evaluation makes it physical: it is projected onto the PSD cone at
    unit trace and re-decomposed, in the coordinates of the sampled
    inputs' joint range ({!Approx.physical_into}). Every tracepoint is
    recombined from the resulting coefficients (see {!evaluator}). A
    reported counter-example is PSD-projected. The assertion holds when
    the maximal guarantee objective stays [<= epsilon_obj]. *)

type verdict =
  | Verified of {
      confidence : Confidence.t;
      max_objective : float;
          (** the largest guarantee value over the solver's feasible
              restarts, or the norm bound that decided (see {!validate}).
              A value above [epsilon_obj] means that restart's candidate
              was refuted on the program; [neg_infinity] means no
              restart was feasible. *)
    }
  | Violated of {
      counterexample : Linalg.Cmat.t;  (** input density matrix triggering the bug *)
      alpha : float array;
          (** the solver's coefficients, or the unit vector of the
              violating sample *)
      objective : float;
    }

type options = {
  solver : Optimize.Solvers.method_;
  budget : int;
      (** the solver's evaluation budget, split across restarts and
          penalty rounds. A target, not a cap:
          [Optimize.Solvers.maximize] floors each method's iterations
          (Adam 20 iterations, QP 10, genetic 5 generations, anneal 100),
          so a small per-round share is exceeded — at the default 6,000,
          sgd-adam spends 20,512 evaluations on the 3-key lock
          (test/validate_golden.txt) *)
  restarts : int;  (** independent optimization attempts *)
}

(** [{ solver = `Qp; budget = 6_000; restarts = 2 }] *)
val default_options : options

(** The violation tolerance on the guarantee objective: 0.05. The
    assertion holds when the maximal objective stays at or below it. *)
val epsilon_obj : float

(** The validation objective over [alpha], as {!validate} evaluates it.
    One path: combine, PSD-project, least squares, recombine. One
    evaluator owns preallocated buffers for the candidate input
    [rho(alpha) = sum_i alpha_i sigma_in_i] in range coordinates, the
    eigensolve of its PSD projection, the HS re-encoding and
    least-squares solve that re-decompose it ({!Approx.workspace}), and
    one matrix per tracepoint; building the environment for an alpha
    writes into them and allocates nothing (predicates then evaluate as
    they always do). Tracepoints and the input (id 0) are recombined
    from the original states, so every environment matrix keeps its
    shape. The projection runs on the first read at an alpha and each
    tracepoint on its own first read, so the objective and every
    constraint at the same alpha share one environment. For inputs that
    fill the input space every value is bit-identical to the allocating
    full-space path ({!Approx.input_of_alpha}, {!Linalg.Eig.project_psd},
    {!Approx.decompose}, then [sum_i alpha_i sigma_T_i]); for fewer
    inputs the projection runs at the rank of their range and agrees
    with that path up to rounding. The testkit oracle [objective_exact]
    pins both against a frozen copy of the full-space path. An
    environment is valid until the next evaluation, and an evaluator
    must stay on one domain. *)
type evaluator = {
  objective : float array -> float;
      (** the worst guarantee: the maximum of their objective values *)
  constraints : (float array -> float) list;  (** one per assumption *)
  env : float array -> Predicate.env;
      (** every tracepoint of the approximation, the input as id 0;
          raises [Not_found] on another id *)
}

(** [evaluator approx assertion] allocates the buffers. *)
val evaluator : Approx.t -> Assertion.t -> evaluator

(** [validate ?options ?rng ?confirm approx assertion] decides the
    assertion on the characterized map and returns the verdict.

    {b Norm guarantees.} When every guarantee is [Equals] or
    [Distance_le] between two recorded tracepoints of one width (id 0
    being the sampled input; assumptions may be of any kind), two bounds
    come first:
    + the {i lower bound}: the largest guarantee value over the samples
      whose every assumption evaluates to at most
      {!Optimize.Constrained.feasible_tol} on the sample's recorded
      traces. Above [epsilon_obj], and when [confirm] is given confirmed
      by replaying the sample's own input on it (on a generator derived
      from [rng]'s state), it is [Violated] with [counterexample] the
      sample's input density, [alpha] the unit vector of the sample and
      [objective] its value;
    + the {i upper bound} ({!norm_bound}) on every value the evaluator
      can produce. At most [epsilon_obj - 1e-9], it is [Verified] with
      [max_objective] the bound: a certified upper bound, not an attained
      value.
    Otherwise (a refuted sample, a bound in the gap, or any other
    guarantee, [Equals_const] included) the solver runs, from the same
    generator. Neither bound can
    move a verdict the wrong way: no input the solver searches exceeds
    the upper bound, and a sample is a characterized input, confirmed on
    the program. [verify_decided_total{by}] and the [by] attribute of
    the [verify.validate] span say which of [sample], [bound] and
    [solver] decided.

    {b The solver} maximizes the guarantee objective under the
    assumption penalties. When [confirm] is given, a candidate
    counter-example is replayed on the actual program (dominant
    eigenvector input, plus its nearest basis state) and demoted to
    [Verified] if the real execution satisfies the assertion —
    eliminating optimizer artifacts, as the paper's validation step does
    by reporting concrete counter-examples. Its [Verified] carries the
    largest value over the feasible restarts, refuted candidates
    included; infeasible restarts never count, and [neg_infinity] means
    none was feasible.

    [cache] memoizes the verdict, keyed by the approximation's data (its
    characterized relation), the assertion, [options], the entry
    generator fingerprint and the confirmation program — a pure function
    of all verdict inputs. A hit skips the solve entirely and therefore
    does not advance [rng]; pass a generator whose continuation nothing
    else relies on. *)
val validate :
  ?options:options ->
  ?rng:Stats.Rng.t ->
  ?confirm:Program.t ->
  ?cache:Cache.t ->
  Approx.t ->
  Assertion.t ->
  verdict

(** [norm_bound approx assertion] is the upper bound {!validate} decides
    norm guarantees with: the maximum over the guarantees of
    [||D G||_F - d], where [d] is the allowed distance ([0] for
    [Equals]), [G] is {!Approx.t.lstsq_map} and [D] stacks the real and
    the imaginary part of every entry of [sigma_A,i - sigma_B,i] as a row
    over the samples [i]. An evaluation decomposes the HS encoding [v]
    of a PSD matrix of trace at most one in range coordinates,
    [||v|| <= 1], and reads [||D G v||] for each guarantee, so no
    objective value of {!evaluator} exceeds the bound beyond rounding;
    [||D G||_F] depends on the inputs only through their HS Gram matrix,
    which range coordinates preserve. [None] unless every
    guarantee is [Equals] or [Distance_le] between recorded tracepoints
    of one width. *)
val norm_bound : Approx.t -> Assertion.t -> float option

(** [check_on_program ?rng ?tol program assertion ~input] executes the
    program on one concrete input and evaluates the assertion on the true
    tracepoint states — used to confirm counter-examples and as the
    ground-truth oracle in experiments. Mixed-state inputs are checked via
    their eigenvector decomposition's dominant component. *)
val check_on_program :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  Program.t ->
  Assertion.t ->
  input:Qstate.Statevec.t ->
  bool

(** [minimize_counterexample ?rng ?tol program assertion ~counterexample]
    simplifies a violating input for human consumption: it tries, in order,
    the nearest computational-basis state, each basis state the
    counter-example puts significant weight on, and the dominant
    eigenvector, returning the simplest pure input that still violates the
    assertion on the real program (falling back to the dominant eigenvector
    when only the mixed state violates). *)
val minimize_counterexample :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  Program.t ->
  Assertion.t ->
  counterexample:Linalg.Cmat.t ->
  Qstate.Statevec.t

(** Verdict of a distribution-level assertion on measurement counts. *)
type counts_result = {
  counts_hold : bool;  (** the observed counts are consistent with the
                           expected distribution *)
  test : Stats.Tests.result;
      (** chi-square goodness-of-fit on the counts actually taken, so the
          verdict can be independently re-derived from recorded data *)
  shots_used : int;
  early_stop : bool;  (** a sequential budget stopped before [max_shots] *)
}

(** [check_counts ?budget ?rng ?noise program dist ~input] samples the
    program's final measurement distribution on [input] and tests it
    against the expected distribution [dist] (see {!Assertion.Dist}).

    With [`Fixed shots] (default 2048): one chi-square goodness-of-fit
    test at [dist.significance], pooling all unlisted outcomes into one
    category. With [`Sequential {alpha; beta; max_shots}]: shots are
    drawn in blocks feeding a Wald SPRT of the expected distribution
    against a 20% contamination alternative (uniform over all 2^n
    outcomes); each interim look additionally rejects outright on an
    overwhelming chi-square (Haybittle–Peto boundary,
    [min 0.001 (alpha / 10)]) to catch deviation directions the mixture
    cannot represent. Crossing either boundary stops early
    ([verify_early_stop_total], shots saved in
    [verify_shots_saved_total]); reaching [max_shots] falls back to the
    fixed-budget chi-square rule at level [alpha] — so the two budgets
    agree by construction once the cap is reached, and always on
    point-mass (deterministic) distributions. An outcome the expectation
    gives zero mass is an immediate certain violation. *)
val check_counts :
  ?budget:Stats.Tests.budget ->
  ?rng:Stats.Rng.t ->
  ?noise:Sim.Noise.t ->
  Program.t ->
  Assertion.Dist.t ->
  input:Qstate.Statevec.t ->
  counts_result

(** [probe_accuracies ?rng ?count approx program ~tracepoint] measures
    approximation accuracy on random Haar inputs against fresh program
    executions (feeds {!Confidence.estimate} and the accuracy figures). *)
val probe_accuracies :
  ?rng:Stats.Rng.t ->
  ?count:int ->
  Approx.t ->
  Program.t ->
  tracepoint:int ->
  float array

(** Result of a certified transpile run ({!certify_transpile}). *)
type certify_report = {
  certified : bool;  (** every obligation discharged by the checker *)
  cert_summary : Transpile.Certify.summary;
  cert_failures : Transpile.Certify.failure list;
      (** empty iff [certified]; each failure maps to lint code MQ021 *)
  cert_plan : Sim.Batch.plan;
}

(** [certify_transpile ?cache ?locs c] runs the full transpile pipeline the
    verifier uses — peephole optimization to a fixed point, lightcone
    pruning, segment compilation — through the certificate-emitting pass
    variants and validates the whole chain with the independent checker
    ({!Transpile.Certify.check_plan}). [locs] gives per-instruction source
    locations of [c] for diagnostics. With [cache], the (plan, certificate)
    pair is memoized under a key prefix disjoint from the uncertified plan
    cache, and the certificate is re-checked even on a cache hit. *)
val certify_transpile :
  ?cache:Cache.t ->
  ?locs:(int * int) array ->
  Circuit.t ->
  certify_report

(** [certify_diagnostics failures] renders the checker's failures as lint
    MQ021 diagnostics (message, source loc, instruction index), the form
    every front end prints them in. *)
val certify_diagnostics :
  Transpile.Certify.failure list -> Analysis.Lint.diagnostic list
