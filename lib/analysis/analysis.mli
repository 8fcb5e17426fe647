(** Static analyses over the circuit IR: lightcone (cone of influence),
    Clifford classification, classical def/use dataflow, and a diagnostics
    linter built on all three.

    All analyses are purely syntactic — no simulation — and run in one or
    two passes over [Circuit.instrs]. Consumers: [Transpile.Passes.
    prune_lightcone] (delete gates outside the observable cone),
    [Sim.Engine]/[Characterize] (auto-route Clifford programs to the
    stabilizer tableau, restrict tomography to each tracepoint's cone),
    and the [morph-lint] CLI subcommand. *)

module Lightcone : sig
  type cone = {
    id : int;  (** tracepoint id *)
    position : int;  (** instruction index of the tracepoint *)
    qubits : int list;  (** minimal qubit set, sorted ascending *)
    keep : bool array;
        (** per-instruction cone membership; [false] at/after [position] *)
  }

  (** [cones c] computes one backward cone of influence per tracepoint:
      the minimal set of qubits (and the instructions on them) that can
      affect the tracepoint's unconditional reduced state. Feedback is
      tracked through the measurements that wrote the condition bits;
      resets sever the cone on their qubit. *)
  val cones : Circuit.t -> cone list

  val cone_of_tracepoint : Circuit.t -> id:int -> cone option

  (** [union_keep c] marks the instructions inside the union cone of all
      tracepoints and measurements. Deleting unmarked instructions
      preserves every tracepoint state and the joint measurement
      distribution (but not the final state on unobserved qubits). *)
  val union_keep : Circuit.t -> bool array

  (** [restrict c cone] is the cone's subcircuit, remapped onto the cone
      qubits (sorted ascending, local index [j] = global
      [List.nth cone.qubits j]), ending with the tracepoint itself.
      Sound when non-cone qubits start unentangled with cone qubits. *)
  val restrict : Circuit.t -> cone -> Circuit.t * int list
end

module Classify : sig
  type t = Clifford | Near_clifford of int | General

  (** Matches [Stabilizer.Tableau.apply_gate]'s dispatch exactly: a [true]
      gate is guaranteed to execute on the tableau engine. *)
  val gate_is_clifford : Circuit.Gate.t -> bool

  (** Number of non-Clifford gates ([If_gate] bodies included). *)
  val non_clifford_count : Circuit.t -> int

  (** Diagonal in the computational basis (any controls): z, s, sdg, t,
      tdg, rz, p, u1, id. Never creates new basis states. *)
  val gate_is_diagonal : Circuit.Gate.t -> bool

  (** Permutes the computational basis up to phase: x, y (any controls)
      and swap. Preserves the support size. *)
  val gate_is_permutation : Circuit.Gate.t -> bool

  (** Neither diagonal nor a permutation — may double the sparse support
      on its targets. *)
  val gate_is_branching : Circuit.Gate.t -> bool

  (** [support_bound ?cap c] — upper bound (a power of two, saturated at
      [cap]) on the occupied-basis-state count reachable from any single
      basis input: [2^|B|] where [B] collects branching-gate targets,
      controlled-x/y targets and swap operands. *)
  val support_bound : ?cap:int -> Circuit.t -> int

  (** Gates the stabilizer-rank engine can execute: Clifford gates, plus
      uncontrolled single-qubit t, tdg, p, u1, rz, rx, ry, sx, sy (each
      splits into two weighted Clifford branches). *)
  val gate_rank_decomposable : Circuit.Gate.t -> bool

  (** [circuit ?cutoff c] classifies the whole circuit; [Near_clifford k]
      for [0 < k <= cutoff] (default 8) non-Clifford gates. *)
  val circuit : ?cutoff:int -> Circuit.t -> t

  (** [gates gs] classifies a gate list (e.g. one fusion segment). *)
  val gates : ?cutoff:int -> Circuit.Gate.t list -> t

  val pp : Format.formatter -> t -> unit
end

module Dataflow : sig
  type report = {
    unwritten_reads : (int * int list) list;
        (** ([If_gate] instruction index, clbits read before any write) *)
    dead_writes : (int * int) list;
        (** (shadowed [Measure] instruction index, its clbit) *)
  }

  (** Def/use liveness over the classical register in one forward pass. *)
  val clbits : Circuit.t -> report
end

module Lint : sig
  type severity = Error | Warning | Info

  type diagnostic = {
    severity : severity;
    code : string;
    message : string;
    loc : (int * int) option;  (** (line, column) in the QASM source *)
    instr : int option;  (** index in [Circuit.instrs] order *)
  }

  (** The diagnostic table: (code, severity, description). *)
  val codes : (string * severity * string) list

  val severity_of_code : string -> severity
  val severity_string : severity -> string

  (** [check ?locs c] runs the semantic checks (MQ004-MQ012) over a
      well-formed circuit; [locs] from {!Qasm.parse_with_locs} attaches
      source positions. Diagnostics are sorted by instruction index. *)
  val check : ?locs:(int * int) array -> Circuit.t -> diagnostic list

  (** [check_tracepoint_ids ?locs c] is {!check}'s MQ004 rule alone: a
      tracepoint id declared twice, and id 0, which predicate specs read
      as the program input. A duplicate's message cites the first
      declaration's source position ([line:col]), or its instruction
      index when [locs] has none. *)
  val check_tracepoint_ids :
    ?locs:(int * int) array -> Circuit.t -> diagnostic list

  (** [check_cost ~estimate ?threshold c] emits MQ017 when the estimated
      characterization cost of [c] — [estimate c], in device seconds —
      exceeds [threshold] (default {!cost_threshold}). The estimator is a
      callback because this layer sits below the simulator; callers
      usually pass [Sim.Cost]'s
      [estimate_characterization >> hardware_seconds]. *)
  val check_cost :
    estimate:(Circuit.t -> float) ->
    ?threshold:float ->
    Circuit.t ->
    diagnostic list

  (** Default MQ017 threshold in estimated device seconds: the
      [MORPHQPV_LINT_COST_THRESHOLD] environment variable when set to a
      positive float, else 1.0. *)
  val cost_threshold : unit -> float

  (** [check_sim_class ~classify ?threshold c] emits MQ018: an Info
      diagnostic reporting [classify c] (the simulation class the
      engine auto-router would estimate — ["dense"], ["sparse"],
      ["stabilizer"] or ["stabilizer-rank 2^k"]), plus a Warning when
      the class is ["dense"] and the register exceeds [threshold]
      qubits (default {!dense_qubit_threshold}). Like {!check_cost},
      [classify] is a callback because the routing logic lives above
      this layer (the CLI passes [Sim.Engine.sim_class]). *)
  val check_sim_class :
    classify:(Circuit.t -> string) ->
    ?threshold:int ->
    Circuit.t ->
    diagnostic list

  (** Default MQ018 dense-warning threshold in qubits: the
      [MORPHQPV_LINT_DENSE_QUBITS] environment variable when set to a
      positive integer, else 20. *)
  val dense_qubit_threshold : unit -> int

  (** [check_cones ~digests c] emits MQ020: one Info diagnostic per
      tracepoint reporting its backward-cone content hash, plus an Info
      flag for every group of tracepoints sharing an identical cone —
      under content-addressed caching such a group is characterized
      once. [digests] is a callback because canonical hashing lives in
      [morphqpv.cache], above this library (the CLI passes
      [Cache.Canon.cone_digests]). *)
  val check_cones :
    digests:(Circuit.t -> (int * string) list) ->
    Circuit.t ->
    diagnostic list

  (** [expect_violation ?num_qubits ?significance expected] applies
      MQ019's rules to one distribution expectation and returns the
      first broken rule's message: no outcome listed, an index listed
      twice, an index outside the [num_qubits]-qubit register (when
      given; else a negative index), a probability outside [0, 1], a
      significance outside (0, 1), probabilities summing past 1.
      [Assertion.Dist.make] applies the same rules. *)
  val expect_violation :
    ?num_qubits:int -> ?significance:float -> (int * float) list ->
    string option

  (** [check_expects ~num_qubits expects] is MQ019: one Error per
      [expect] pragma that breaks a rule of {!expect_violation}. *)
  val check_expects :
    num_qubits:int -> Qasm.expect_pragma list -> diagnostic list

  (** [read src] is the one reader of QASM text: the parsed program, or
      the diagnostic for a syntax error (MQ000) or a construction error
      (MQ001-MQ003, MQ013-MQ016, located) instead of an exception. *)
  val read : string -> (Qasm.full, diagnostic) result

  (** [check_program full] is {!check} plus {!check_expects}: every
      check that needs only the parsed program. *)
  val check_program : Qasm.full -> diagnostic list

  (** [lint_qasm src] is {!read} then {!check_program}. *)
  val lint_qasm : string -> diagnostic list

  (** [pp ?file ppf d] prints [file:line:col: severity[CODE]: message]. *)
  val pp : ?file:string -> Format.formatter -> diagnostic -> unit
end
