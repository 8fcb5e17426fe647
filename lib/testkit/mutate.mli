(** Deliberately broken certified passes — the independent checker's own
    soundness test. Each constructor runs a genuine certificate-emitting
    pass on the circuit and then doctors the result the way a buggy
    rewrite could; {!Transpile.Certify.check} must reject every mutant
    ({!rejected}), otherwise the checker has a hole. Constructors return
    [None] when the circuit gives the underlying pass nothing to mutate
    (e.g. no mergeable rotation pair, no block in the plan). *)

type mutant = {
  mutant_name : string;
  before : Circuit.t;
  cert : Transpile.Certify.certificate;
  target : Transpile.Certify.target;
}

(** A [merge_rotations] run whose merged rotation has its angle nudged
    by 0.05 — the [Local_equiv] product no longer matches. *)
val wrong_replacement : Circuit.t -> mutant option

(** A [prune_lightcone] run that additionally deletes a kept gate, with a
    forged [Outside_cone] obligation — the checker re-derives the union
    lightcone and finds the instruction inside it. *)
val over_pruned : Circuit.t -> mutant option

(** A gate swapped with the measurement that reads its wire, certified as
    a harmless permutation — caught by order preservation on the shared
    wire. *)
val reordered_measurement : Circuit.t -> mutant option

(** A segment compile whose first fused block has one unitary entry
    corrupted by 0.05 — the plan no longer implements its segment. *)
val wrong_block : Circuit.t -> mutant option

(** Every applicable mutant of the circuit. *)
val mutants : Circuit.t -> mutant list

(** [rejected m] — the checker refuses the mutant (the property every
    mutant must satisfy). *)
val rejected : mutant -> bool

(** The checker's structured diagnostics for the mutant (empty iff the
    mutant was — wrongly — accepted). *)
val failures : mutant -> Transpile.Certify.failure list
