(** Translation validation for the transpile pipeline.

    Certificate-emitting pass variants ({!Passes}, {!Segments}) record, for
    each rewrite, a {!step}: local proof obligations plus the
    order-preserving map of untouched instructions, together with the step's
    output. {!check} is the independent checker — it validates every step of
    the chain against the step's own input and shares nothing with the pass
    implementations beyond the gate-matrix table. Cost is O(total obligation
    size): every [Local_equiv] group is decided by a direct [2^k x 2^k]
    matrix comparison on the group's union support (capped at 8 qubits;
    wider groups are conservatively rejected), never by simulating the
    whole circuit, and
    deletions are re-justified from {!Analysis.Lightcone} or the gate matrix
    itself. See DESIGN.md §16. *)

type obligation =
  | Local_equiv of { before : int list; after : int list }
      (** product of the [before] input instructions ≡ product of the
          [after] output instructions up to global phase on their union
          support; [after = []] claims the product is the identity *)
  | Outside_cone of { index : int }
      (** input instruction [index] is provably outside the union lightcone
          of all tracepoints and measurements (re-derived by the checker) *)
  | Identity_elim of { index : int; eps : float }
      (** input gate [index] is within [eps] of the identity *)
  | Barrier_elim of { index : int }
      (** input barrier [index] was dropped (plans carry no barriers) *)

type target = Circ of Circuit.t | Plan of Sim.Batch.plan

type step = {
  pass : string;  (** pass name, e.g. ["cancel_inverses"] *)
  obligations : obligation list;
  mapped : (int * int) list;
      (** untouched instructions as (input index, output index) pairs; the
          checker requires an order-preserving injection between
          structurally equal instructions, and additionally that per-wire
          instruction order (qubit wires and classical-bit wires) is
          preserved across the whole step *)
  output : target;
}

(** One step per pass application, in application order. The first step's
    input is the original circuit; each later step's input is the previous
    step's output. Only the final step may produce a {!Sim.Batch.plan}. *)
type certificate = step list

type failure = {
  fail_pass : string;
  kind : string;
      (** ["coverage"], ["permutation"], ["local_equiv"], ["outside_cone"],
          ["identity_elim"], ["barrier_elim"] or ["chain"] *)
  reason : string;
  before_index : int option;
  after_index : int option;
  loc : (int * int) option;
      (** source location of the offending input instruction when the
          failing step is the chain's first and [locs] was supplied *)
}

type summary = {
  chain_steps : int;
  local_equiv : int;
  outside_cone : int;
  identity_elim : int;
  barrier_elim : int;
  permutation : int;  (** mapped (untouched) instruction pairs *)
}

(** [check cert before after] validates the certificate chain from [before]
    and requires the last step's output to equal [after] instruction-for-
    instruction. [locs] gives per-instruction source locations of [before]
    (parallel to [Circuit.instrs before]); [eps] (default [1e-9]) bounds
    entrywise matrix comparison. [Ok] carries the obligation counts.
    Instrumented with the ["certify.check"] span and the
    [certify_obligations_total{kind}] / [certify_failures_total] counters. *)
val check :
  ?locs:(int * int) array ->
  ?eps:float ->
  certificate ->
  Circuit.t ->
  Circuit.t ->
  (summary, failure list) result

(** [check_plan cert before plan] is {!check} for a chain ending in a
    simulation plan (segment compilation). *)
val check_plan :
  ?locs:(int * int) array ->
  ?eps:float ->
  certificate ->
  Circuit.t ->
  Sim.Batch.plan ->
  (summary, failure list) result

(** Obligation counts of a certificate, without checking it. *)
val summarize : certificate -> summary

(** Discharged rewrite obligations — everything except the permutation
    pairs. A transpile run that rewrote anything has a nonzero total. *)
val total_obligations : summary -> int

val failure_message : failure -> string
