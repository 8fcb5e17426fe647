(** Sized QCheck generators (with shrinking) for gates, circuits and
    programs.

    Random circuits are represented as a flat list of {!spec} values — an
    instruction sketch whose qubit indices are free integers. {!build} maps
    the sketch onto a concrete register (indices wrap modulo the qubit
    count, control/target collisions are repaired deterministically), so
    every sketch denotes a *valid* circuit and the QCheck shrinker can
    remove instructions, lower qubit indices, zero angles and drop whole
    wires without ever producing an ill-formed candidate. That is what
    makes shrunk counterexamples minimal AND runnable.

    Three circuit classes:
    - {!pure} — unitary-only (plus tracepoints/barriers): every engine pair
      can be compared exactly.
    - {!clifford} — gates the stabilizer tableau dispatches ([h x y z s sdg
      cx cz swap]), measurement-free.
    - {!program} — full programs: tracepoints, mid-circuit measurement,
      reset, classical feedback and barriers. *)

(** One instruction sketch. Qubit fields are arbitrary non-negative ints,
    folded onto the register by {!build}. *)
type spec =
  | One of string * float list * int  (** 1q gate: name, params, qubit *)
  | Ctl of string * float list * int * int  (** controlled 1q: control, target *)
  | Swap of int * int
  | Toffoli of int * int * int
  | Trace of int list  (** tracepoint; ids are assigned 1,2,... by build *)
  | Meas of int * int  (** qubit, classical bit (mod 2) *)
  | Reset of int
  | Feedback of int * int * string * float list * int
      (** clbit read, value, gate name, params, target *)
  | Barrier of int list

type circ = { qubits : int; specs : spec list }

(** [build c] realizes the sketch as a circuit (2 classical bits when any
    measurement/feedback is present, 0 otherwise). Total function: every
    generated or shrunk [circ] builds. *)
val build : circ -> Circuit.t

(** [print_circ c] renders the sketch as mini-QASM plus the current repro
    command for the running executable ({!Config.exe}) — this is what
    QCheck prints for a failing case. *)
val print_circ : circ -> string

(* Raw generators (for [QCheck.Gen.generate] loops, e.g. the fuzz bench) *)
val gen_pure : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.Gen.t
val gen_clifford : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.Gen.t

(** Clifford circuits with occasional uncontrolled non-Clifford 1q gates
    ([t tdg sx rx ry rz p]) — the shape the stabilizer-rank engine
    decomposes. *)
val gen_near_clifford :
  ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.Gen.t

val gen_program : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.Gen.t

(** The structural shrinker: drops/simplifies instructions (a controlled or
    feedback gate shrinks to its bare gate, a Toffoli to a CX), lowers
    qubit indices toward 0, zeroes rotation angles, and removes wires. *)
val shrink_circ : circ QCheck.Shrink.t

(* Arbitraries = generator + shrinker + printer *)
val pure : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.arbitrary
val clifford : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.arbitrary
val near_clifford : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.arbitrary
val program : ?min_qubits:int -> ?max_qubits:int -> unit -> circ QCheck.arbitrary

(** Depolarizing+readout noise models, shrinking toward the ideal model. *)
val noise : Sim.Noise.t QCheck.arbitrary
