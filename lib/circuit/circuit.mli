(** Quantum programs as persistent instruction sequences, with a
    pipeline-friendly builder DSL:

    {[
      let ghz =
        Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 1; 2 ])
    ]} *)

(** Re-exported gate and instruction modules (the library's entry point is
    this module; siblings are hidden by dune's main-module convention). *)
module Gate : module type of Gate

module Instr : module type of Instr

(** Structured validation error. [code] is a stable diagnostic code shared
    with [Analysis.Lint] (e.g. ["MQ001"] qubit out of range, ["MQ013"]
    register mismatch, ["MQ014"] adjoint of non-unitary); [loc] is a
    [(line, column)] source location when the error was raised while
    elaborating parsed text (the QASM front end fills it in), [None] for
    programmatically built circuits. *)
type error = { code : string; message : string; loc : (int * int) option }

(** Raised by every construction/validation failure in [Gate] and
    [Circuit] (range checks, malformed gates, register mismatch, adjoint
    of non-unitary instructions). *)
exception Error of error

type t = private {
  num_qubits : int;
  num_clbits : int;
  rev_instrs : Instr.t list;
}

(** [empty ?clbits n] is a program over [n] qubits and [clbits] classical
    bits (default 0 — measuring automatically grows the classical register
    is NOT supported; declare what you need). *)
val empty : ?clbits:int -> int -> t

val num_qubits : t -> int
val num_clbits : t -> int

(** [instrs c] returns instructions in program order. *)
val instrs : t -> Instr.t list

(** [add i c] appends an instruction after validating qubit/clbit ranges
    and that a tracepoint names each qubit once (MQ003). *)
val add : Instr.t -> t -> t

(** [append a b] concatenates the instructions of [b] after [a] (registers
    must match in size). *)
val append : t -> t -> t

(** [gate ?params ?controls name targets c] appends a gate. *)
val gate : ?params:float list -> ?controls:int list -> string -> int list -> t -> t

(* Single-qubit gate builders *)
val h : int -> t -> t
val x : int -> t -> t
val y : int -> t -> t
val z : int -> t -> t
val s : int -> t -> t
val sdg : int -> t -> t
val t_gate : int -> t -> t
val tdg : int -> t -> t
val sx : int -> t -> t
val rx : float -> int -> t -> t
val ry : float -> int -> t -> t
val rz : float -> int -> t -> t
val p : float -> int -> t -> t
val u3 : float -> float -> float -> int -> t -> t

(* Controlled / multi-qubit builders *)
val cx : int -> int -> t -> t
val cy : int -> int -> t -> t
val cz : int -> int -> t -> t
val cp : float -> int -> int -> t -> t
val crx : float -> int -> int -> t -> t
val cry : float -> int -> int -> t -> t
val crz : float -> int -> int -> t -> t
val swap : int -> int -> t -> t
val ccx : int -> int -> int -> t -> t

(** [mcx controls target c] is a multi-controlled X. *)
val mcx : int list -> int -> t -> t

(** [mcz qubits c] is a multi-controlled Z; by Z-symmetry the last qubit is
    taken as target and the rest as controls. *)
val mcz : int list -> t -> t

val mcry : float -> int list -> int -> t -> t

(* Non-gate instructions *)
val tracepoint : int -> int list -> t -> t
val measure : int -> int -> t -> t
val reset : int -> t -> t

(** [if_gate clbits value g c] appends a gate applied when the classical
    bits [clbits] (least significant first) read as the integer [value]. *)
val if_gate : int list -> int -> Gate.t -> t -> t

val barrier : int list -> t -> t

(* Inspection *)

(** [gate_count c] counts gate and feedback-gate instructions. *)
val gate_count : t -> int

(** [two_qubit_count c] counts gates touching two or more qubits. *)
val two_qubit_count : t -> int

(** [depth c] is the circuit depth counting gates (tracepoints/barriers are
    free, measurements count as depth-1 events on their qubit). *)
val depth : t -> int

(** [tracepoints c] lists [(id, qubits)] in program order. *)
val tracepoints : t -> (int * int list) list

(** [has_measurement_before c ~tracepoint_id] tells whether a measurement
    occurs before the given tracepoint (approximation caveat in Theorem 1). *)
val has_measurement_before : t -> tracepoint_id:int -> bool

(** [adjoint c] reverses the circuit and inverts each gate. Fails on programs
    with measurements, resets or feedback. *)
val adjoint : t -> t

(** [map_gates f c] rewrites every gate (dropping it when [f] returns [None]);
    other instructions are kept. *)
val map_gates : (Gate.t -> Gate.t option) -> t -> t

val pp : Format.formatter -> t -> unit
