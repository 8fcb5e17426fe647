(** A single gate application: a named base operation with optional real
    parameters, an optional list of control qubits, and one or two target
    qubits. Multi-controlled gates (e.g. the paper's [mcz], [mcry]) are plain
    gates with several controls. *)

type t = private {
  name : string;
  params : float list;
  controls : int list;
  targets : int list;
}

(** [make ?params ?controls name targets] builds a gate after validating that
    targets are distinct from controls and that [name] is a known base gate
    (any of {!Qstate.Gates.known_names} plus ["cx"]-style aliases resolved by
    the simulator: ["swap"] with two targets). *)
val make : ?params:float list -> ?controls:int list -> string -> int list -> t

(** [qubits g] lists all qubits the gate touches (controls then targets). *)
val qubits : t -> int list

(** [is_two_qubit_or_more g] holds when the gate touches at least two qubits. *)
val is_two_qubit_or_more : t -> bool

(** [inverse g] is the gate implementing the adjoint unitary. *)
val inverse : t -> t

(** [remap f g] renames every qubit through [f]. *)
val remap : (int -> int) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
