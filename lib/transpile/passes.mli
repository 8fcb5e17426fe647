(** Peephole circuit optimization. Shrinking a circuit before
    characterization reduces both hardware time and accumulated noise; the
    passes below preserve the unitary semantics exactly (property-tested
    against the simulator) and never move gates across tracepoints,
    measurements or barriers — those act as optimization fences, so
    tracepoint states are untouched.

    Passes:
    - cancel adjacent mutually-inverse gate pairs (H H, X X, CX CX, S Sdg, ...)
    - merge adjacent rotations on the same axis (RZ a; RZ b -> RZ (a+b))
    - drop identity rotations (angle ~ 0 mod 4pi, global-phase-exact) *)

(** [cancel_inverses c] removes adjacent inverse pairs (one sweep). *)
val cancel_inverses : Circuit.t -> Circuit.t

(** [merge_rotations c] fuses adjacent same-axis rotations on one qubit
    (one sweep). *)
val merge_rotations : Circuit.t -> Circuit.t

(** [drop_identities ?eps c] removes rotations by ~0 (and [p(0)], [id]). *)
val drop_identities : ?eps:float -> Circuit.t -> Circuit.t

(** [optimize c] iterates all passes to a fixed point, at most 10
    times. *)
val optimize : Circuit.t -> Circuit.t

(** [gate_reduction ~before ~after] is the fraction of gates removed. *)
val gate_reduction : before:Circuit.t -> after:Circuit.t -> float

(** [prune_lightcone c] deletes every instruction outside the union
    lightcone of all tracepoints and measurements
    ({!Analysis.Lightcone.union_keep}): gates, feedback gates and resets
    that provably cannot affect any tracepoint's reduced state or the
    joint measurement distribution. Unlike the peephole passes above this
    does NOT preserve the final statevector on unobserved qubits, so use
    it for characterization pipelines, not general rewriting. Verified
    tracepoint-state-preserving by [Testkit.Oracle.prune_preserves_traces]. *)
val prune_lightcone : Circuit.t -> Circuit.t

(** {2 Certificate-emitting variants}

    Each [_cert] function is the same pass — the plain entry points above
    are [fst] of these, so certified and uncertified runs produce
    bit-identical circuits — additionally returning a translation-validation
    {!Certify.step} (or, for {!optimize_cert}, the chain of steps in
    application order) for {!Certify.check}. *)

val cancel_inverses_cert : Circuit.t -> Circuit.t * Certify.step
val merge_rotations_cert : Circuit.t -> Circuit.t * Certify.step
val drop_identities_cert : ?eps:float -> Circuit.t -> Circuit.t * Certify.step
val optimize_cert : Circuit.t -> Circuit.t * Certify.certificate
val prune_lightcone_cert : Circuit.t -> Circuit.t * Certify.step
