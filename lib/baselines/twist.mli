(** Twist-style purity reasoning (Yuan, McNally & Carbin, POPL 2022; paper
    baseline).

    Twist soundly tracks purity and entanglement of program expressions via
    classical simulation. We realise its observable power as the vector of
    subsystem purities (every single qubit plus the full register) computed
    from exact simulation: a candidate is flagged when its purity vector
    deviates from the reference's. Bugs that leave all purities unchanged —
    e.g. phase errors commuting with the remaining circuit — are invisible,
    matching the paper's expressiveness discussion. *)

(** [purity_vector program ~input] simulates one basis input and returns
    the purity of each single-qubit reduced state followed by the full-state
    purity, at the final tracepoint-free state. *)
val purity_vector : Morphcore.Program.t -> input:int -> float array

(** [check ?rng ?tol ?inputs ~tests ~reference ~candidate ()] compares
    purity vectors across test inputs (explicit states, or basis states by
    default). *)
val check :
  ?rng:Stats.Rng.t ->
  ?tol:float ->
  ?inputs:Qstate.Statevec.t list ->
  tests:int ->
  reference:Morphcore.Program.t ->
  candidate:Morphcore.Program.t ->
  unit ->
  Verifier.result

(** [supports program] — Twist needs simulatable, measurement-free unitary
    bodies and cannot discriminate expectation-style specifications; mirrors
    the "/" entries of the paper's Table 6 for models classified by
    continuous expectations (detected via the presence of mid-circuit
    measurement only; QNN-style limits are decided by the caller). *)
val supports : Morphcore.Program.t -> bool
