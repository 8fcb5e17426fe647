(** Special functions needed by the Beta-distribution confidence model and
    the hypothesis-testing layer ({!Tests}). *)

(** [lgamma x] is the natural log of the Gamma function for [x > 0]
    (Lanczos approximation, ~15 significant digits). *)
val lgamma : float -> float

(** [lbeta a b] is [log (Beta (a, b))]. *)
val lbeta : float -> float -> float

(** [betainc a b x] is the regularized incomplete beta function I_x(a, b)
    for [a, b > 0] and [x] in [0, 1] (continued-fraction evaluation,
    shape-scaled iteration cap so a, b >> 1 still converge). *)
val betainc : float -> float -> float -> float

(** [gammainc_p a x] is the regularized lower incomplete gamma function
    P(a, x) for [a > 0], [x >= 0] (series for [x < a + 1], continued
    fraction otherwise). *)
val gammainc_p : float -> float -> float

(** [gammainc_q a x] is the regularized upper incomplete gamma function
    Q(a, x) = 1 - P(a, x), computed directly so extreme upper tails keep
    full relative precision. *)
val gammainc_q : float -> float -> float

(** [erf x] is the Gauss error function, full double precision via
    P(1/2, x^2). *)
val erf : float -> float

(** [erfc x] is the complementary error function, exact in the upper tail
    (does not round to 0 until x ~ 27). *)
val erfc : float -> float

(** [norm_sf x] is the standard normal survival function 1 - Phi(x),
    tail-exact. *)
val norm_sf : float -> float
