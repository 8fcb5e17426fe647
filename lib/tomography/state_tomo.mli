(** Quantum state tomography with simulated finite-shot noise.

    The device only exposes measurement statistics, so tracepoint states are
    reconstructed from Pauli expectations: [rho = 2^-n sum_P <P> P]. Each
    expectation estimate uses [shots] repetitions with binomial sampling
    noise; the reconstruction is optionally projected back to the
    density-matrix cone (Hermitian, PSD, unit trace).

    Measurement-setting accounting follows the standard scheme where one of
    [3^n] local bases serves every Pauli string it dominates. *)

type result = {
  rho : Linalg.Cmat.t;  (** reconstructed state *)
  settings : int;  (** distinct measurement settings used *)
  shots_used : int;  (** total shots across settings *)
}

(** [noisy_expectation rng ~shots e] simulates estimating a Pauli expectation
    whose true value is [e] from [shots] single-shot readouts. [shots = 0]
    returns [e] exactly. *)
val noisy_expectation : Stats.Rng.t -> shots:int -> float -> float

(** [settings_count n] is [3^n], the number of local measurement bases that
    cover all Pauli strings on [n] qubits. *)
val settings_count : int -> int

(** [reconstruct n terms] assembles [2^-n * sum (e_P * P)] from estimated
    expectations; the identity term is fixed to 1 if absent. *)
val reconstruct : int -> (Qstate.Pauli.t * float) list -> Linalg.Cmat.t

(** [seq_counters ~cap ~used ~early] records a sequential budget's spend
    against its [cap]: the shots saved in [verify_shots_saved_total] and,
    when the stop was [early], one [verify_early_stop_total]. Every
    sequential stop (tomography here, the SPRTs in [Verify]) records
    through it. *)
val seq_counters : cap:int -> used:int -> early:bool -> unit

(** [run ?project ?budget rng ~shots ~truth ()] performs full tomography of
    the [n]-qubit state [truth] (an exact density matrix): estimates every
    Pauli expectation with shot noise, reconstructs, and projects to a
    physical state unless [project] is [false]. [shots] is the budget per
    measurement setting.

    [budget] (default: today's fixed behavior) selects the shot policy:
    [`Fixed n] overrides [shots]; [`Sequential s] draws shot blocks per
    expectation and stops each estimate as soon as its smoothed standard
    error matches what [s.max_shots] shots would guarantee at worst case
    (variance-matched stopping) — sharply peaked outcomes stop after
    O(sqrt max_shots) shots. Shots saved against the fixed equivalent are
    recorded in the [verify_shots_saved_total] / [verify_early_stop_total]
    counters; [result.shots_used] reports actual spend (per-setting max
    over the Pauli strings the setting covers). The fixed path is
    bit-identical to the pre-budget code. *)
val run :
  ?project:bool ->
  ?budget:Stats.Tests.budget ->
  Stats.Rng.t ->
  shots:int ->
  truth:Linalg.Cmat.t ->
  unit ->
  result

(** [probs_only ?budget rng ~shots ~truth ()] estimates only the
    computational-basis distribution (the paper's Strategy-prop
    short-cut): one setting, [shots] samples, returning the diagonal
    reconstruction. [budget] as in {!run}: sequential stopping ends the
    draw once every category's smoothed standard error is at worst what
    the full [max_shots] would guarantee. *)
val probs_only :
  ?budget:Stats.Tests.budget ->
  Stats.Rng.t ->
  shots:int ->
  truth:Linalg.Cmat.t ->
  unit ->
  result
