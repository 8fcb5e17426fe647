(** Canonical circuit serialization for content-addressed cache keys.

    The cache invariant (QCheck-pinned in [test/test_cache.ml]): circuits
    with equal {!canonical_bytes} are the same program up to qubit/clbit
    relabeling and are therefore simulation-equivalent on every
    tracepoint's reduced state. *)

(** One tracepoint's characterization unit: the backward cone plus the
    program's input qubits, remapped into canonical first-use order. *)
type unit_circuit = {
  circuit : Circuit.t;
      (** cone instructions + closing tracepoint in canonical qubit order
          (the tracepoint keeps its original id for trace lookup) *)
  width : int;  (** unit register size, |cone qubits ∪ input qubits| *)
  embed : int array;
      (** [embed.(j)] is the unit-local qubit carrying input qubit [j]
          (in the order the caller listed input qubits) *)
  bytes : string;
      (** canonical serialization including width and embedding — the
          unit's cache identity *)
}

val canonical_bytes : Circuit.t -> string
(** Qubits/clbits renumbered to first-use order, parameters normalized
    (-0.0 folded to 0.0, shortest round-trippable decimal), barriers and
    tracepoint ids excluded, register sizes excluded. *)

val exact_bytes : Circuit.t -> string
(** Verbatim serialization: register sizes, barriers, tracepoint ids and
    global indices intact — for memo layers whose value depends on the
    concrete representation (segment plans, whole-program results). *)

val digest : string -> string
(** [digest bytes] is {!Fnv.hex}[ bytes]. *)

val cone_digests : Circuit.t -> (int * string) list
(** [(tracepoint id, cone digest)] per tracepoint, program order. *)

val cone_unit :
  Circuit.t -> input_qubits:int list -> Analysis.Lightcone.cone -> unit_circuit
(** Build the characterization unit for one cone. Simulating
    [unit.circuit] from an input state embedded via [unit.embed] is a
    pure function of [unit.bytes] — differently-labeled programs with
    equal unit bytes replay identical float operations. *)
