(** Hypothesis tests with exact-tail p-values.

    Every test returns a {!result} carrying the statistic, the p-value and
    the degrees of freedom used, so a verdict can be re-derived from
    recorded counts instead of trusted from a point estimate. *)

type alternative = Two_sided | Less | Greater

type result = { statistic : float; pvalue : float; df : float }

(** Shot-budget policy shared by [Verify], [Characterize] and
    [Tomography.State_tomo]. [`Fixed n] is today's behavior: spend
    exactly [n] shots. [`Sequential s] runs an SPRT with error rates
    [s.alpha] (false reject) / [s.beta] (false accept) and stops early
    when a boundary is crossed, never exceeding [s.max_shots]; at
    [max_shots] without a crossing the fixed-budget decision rule is
    applied to the shots taken, so deterministic programs reproduce the
    fixed verdict. *)
type sequential = { alpha : float; beta : float; max_shots : int }

type budget = [ `Fixed of int | `Sequential of sequential ]

(** {1 Survival functions} *)

(** [chi2_sf x df] is P(X > x) for X ~ chi-square(df). *)
val chi2_sf : float -> float -> float

(** [t_sf t df] is P(T > t) for T ~ Student-t(df), exact in both tails. *)
val t_sf : float -> float -> float

(** [kolmogorov_sf lambda] is the asymptotic Kolmogorov survival function
    Q(lambda) = 2 sum_{k>=1} (-1)^(k-1) exp (-2 k^2 lambda^2). *)
val kolmogorov_sf : float -> float

(** {1 t-tests} *)

(** [t_one_sample ~mu xs] tests H0: mean = [mu]. Requires n >= 2 and
    non-zero sample variance. *)
val t_one_sample : ?alternative:alternative -> mu:float -> float array -> result

(** [t_two_sample xs ys] tests H0: mean xs = mean ys. Welch by default
    (Satterthwaite df); [~equal_var:true] pools variances with
    df = n1 + n2 - 2. [alternative = Greater] means mean xs > mean ys. *)
val t_two_sample :
  ?alternative:alternative ->
  ?equal_var:bool ->
  float array ->
  float array ->
  result

(** {1 Chi-square} *)

(** [chi2_gof ~expected observed] is Pearson's goodness-of-fit test of
    observed counts against expected counts (same total); df = k - 1 -
    [ddof]. Raises [Invalid_argument] on a non-positive expected count. *)
val chi2_gof : ?ddof:int -> expected:float array -> float array -> result

(** {1 Kolmogorov–Smirnov} *)

(** [ks_one_sample ~cdf xs] is the two-sided one-sample KS test of [xs]
    against the continuous CDF [cdf]. Exact p-value via the
    Marsaglia–Tsang–Wang matrix method for n <= 140, Stephens-corrected
    asymptotic beyond. [result.df] reports n. *)
val ks_one_sample : cdf:(float -> float) -> float array -> result

(** [ks_two_sample xs ys] is the two-sided two-sample KS test. Exact
    p-value by lattice path counting when n * m <= 10^4 and the pooled
    sample has no ties; Stephens-corrected asymptotic otherwise.
    [result.df] reports the effective n*m/(n+m). *)
val ks_two_sample : float array -> float array -> result

(** {1 Exposed internals (golden-value tests)} *)

(** [ks_cdf_exact n d] is the exact P(D_n < d) (Marsaglia–Tsang–Wang). *)
val ks_cdf_exact : int -> float -> float
