(** Quantum random access memory (paper Section 7.3).

    [a] addressing qubits select a cell of a [2^a]-entry table of angles
    [theta_i in [0, 2pi)]; the data qubit ends in
    [|theta_i> = cos theta_i |0> + sin theta_i |1>]. Each cell is read by a
    multi-controlled rotation whose controls match the address bits.

    Layout: qubits [0..a-1] are the address (bit order), qubit [a] is data.
    Tracepoint 1 labels the address input, 2 the data output, and 3 (when
    requested) sits after the first half of the cells for the paper's
    binary-search debugging. *)

type t = {
  circuit : Circuit.t;
  addr_qubits : int list;
  data_qubit : int;
  table : float array;
  corrupted : (int * float) option;
      (** address whose stored angle was overwritten, with the bad value *)
}

(** [make ?corrupt ?midpoint_tracepoint ~table a] builds a QRAM over [a]
    address qubits; [table] must have [2^a] entries. [corrupt (addr, bad)]
    plants a wrong value at [addr]. *)
val make :
  ?corrupt:int * float -> ?midpoint_tracepoint:bool -> table:float array -> int -> t

(** A QRAM built from an explicit cell list — unlisted addresses hold
    angle 0 and the dense [2^a] table never exists, so the address
    register can be far wider than any dense simulation could hold. *)
type sparse = {
  s_circuit : Circuit.t;
  s_addr_qubits : int list;
  s_data_qubit : int;
  cells : (int * float) list;  (** (address, angle), unique addresses *)
}

(** [make_cells ?addr_tracepoint ~cells a] builds the sparse QRAM over
    [a] address qubits; only the listed cells are materialized.
    [addr_tracepoint] (default [true]) emits tracepoint 1 over the whole
    address register — turn it off at large [a] to stay on the sparse
    simulation route. Tracepoint 2 labels the data output. *)
val make_cells :
  ?addr_tracepoint:bool -> cells:(int * float) list -> int -> sparse

(** [expected_p1_cells t addr] is [sin^2] of the angle stored at [addr]
    ([0.] when unlisted). *)
val expected_p1_cells : sparse -> int -> float

(** [read t addr] runs the QRAM with basis address [addr] and returns the
    Bloch-angle estimate of the data qubit [(p1 -> angle)] as the probability
    of reading 1, which should be [sin^2 theta_addr]. *)
val read : t -> int -> float

(** [expected_p1 t addr] is [sin^2 (table.(addr))] per the specification. *)
val expected_p1 : t -> int -> float

(** [uniform_table rng a] draws a random table of [2^a] angles. *)
val uniform_table : Stats.Rng.t -> int -> float array
