(** Metamorphic properties derived from the paper's isomorphism lemmas:
    transformations with a known effect on the program whose outcome must
    therefore be invariant (or monotone). Each returns [true] on success,
    for direct use inside QCheck properties. *)

(** [adjoint_cancels c] — running the gates of [c] followed by their
    reversed inverses returns the register to [|0...0>] (up to global
    phase; [sx]'s inverse is [rx(-pi/2)], which differs from [sx]^dagger by
    a phase). *)
val adjoint_cancels : Gen.circ -> bool

(** [global_phase_invariant c] — prefixing the global-phase gadget
    [z; x; z; x = -I] changes neither the final-state fidelity nor any
    tracepoint density matrix. *)
val global_phase_invariant : Gen.circ -> bool

(** [confidence_monotone ~n_in ~samples] — Theorem 3's confidence is
    nondecreasing in the sample count (the theoretical mean accuracy
    [min 1 (n_sample / 2^(n_in+1))] grows with [n_sample]). [samples] are
    made positive and sorted internally. *)
val confidence_monotone : n_in:int -> samples:int list -> bool

(** [traces_domain_invariant ?noise ~trajectories ~domains c] — trajectory-
    averaged tracepoint states are bit-identical for every domain count in
    [domains] under a fixed seed (the deterministic-parallelism contract).
    Runs the full program class: measurements, feedback and noise exercise
    the multi-trajectory path. *)
val traces_domain_invariant :
  ?noise:Sim.Noise.t -> trajectories:int -> domains:int list -> Gen.circ -> bool
