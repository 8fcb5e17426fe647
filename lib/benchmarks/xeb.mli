(** Cross-entropy benchmarking circuits (random circuit sampling, in the
    style of the Google quantum-supremacy experiment the paper cites).

    Each cycle applies a random single-qubit gate from [{sqrt X, sqrt Y,
    sqrt W}] on every qubit (never repeating on the same qubit in
    consecutive cycles) followed by a CZ ladder alternating between even
    and odd pairings. *)

(** [make rng ~n ~depth] builds a random circuit with [depth] cycles, with
    tracepoint 1 on the full input and 2 on the full output. *)
val make : Stats.Rng.t -> n:int -> depth:int -> Circuit.t

(** [linear_xeb ~ideal_probs ~samples] computes the linear cross-entropy
    fidelity estimate [2^n * mean(p_ideal(sampled)) - 1]. *)
val linear_xeb : ideal_probs:float array -> samples:int array -> float
