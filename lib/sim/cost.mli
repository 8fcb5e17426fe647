(** Mutable cost meters for verification-overhead accounting.

    The paper reports overhead as the number of quantum operations and
    program executions, and estimates hardware wall-clock from IBMQ gate
    times (60 ns single-qubit, 340 ns two-qubit, 732 ns readout). *)

type t = {
  mutable executions : int;  (** circuit submissions (one input, many shots) *)
  mutable shots : int;  (** total repetitions across executions *)
  mutable gate_ops : int;  (** quantum gate applications, all shots counted *)
  mutable one_qubit_gates : int;
  mutable two_qubit_gates : int;
  mutable measurements : int;
}

val create : unit -> t
val reset : t -> unit

(** What the meter counts of a circuit, per shot: gate applications
    (classically controlled gates included), the two-qubit-or-wider ones
    among them, and measurements. *)
type shape = { gates : int; two_qubit : int; measures : int }

(** [shape c] counts [c]'s instructions once — the only function that
    does; callers metering many executions of one circuit take it once
    and hand it to every {!record_circuit} / {!record_total}. *)
val shape : Circuit.t -> shape

(** [record_circuit t shape ~shots] accounts one execution of a circuit
    of this [shape] with the given number of shots (at least one
    measurement per shot). *)
val record_circuit : t -> shape -> shots:int -> unit

(** [record_total t shape ~executions ~total_shots] accounts
    [executions] submissions of (variants of) a circuit of this [shape]
    spending [total_shots] shots in total — e.g. one tomography pass over
    many measurement settings, or a sequential shot budget, where
    executions spend unequal shots. Each shot counts one measurement. *)
val record_total : t -> shape -> executions:int -> total_shots:int -> unit

(** [add t other] accumulates [other] into [t]. *)
val add : t -> t -> unit

(** [estimate_characterization ?shots c] statically estimates the device
    cost of characterizing [c]: one state-tomography pass per tracepoint
    (3^k settings for k tracepoint qubits, saturated against overflow),
    [shots] (default 256) shots per setting. Feeds the [MQ017] lint
    diagnostic's cost threshold. *)
val estimate_characterization : ?shots:int -> Circuit.t -> t

(** [dense_sim_ops c] — amplitude updates of one dense statevector run:
    [2^n * (gates + 1)], as a float (no overflow at any width). *)
val dense_sim_ops : Circuit.t -> float

(** [sparse_sim_ops c] — per-tracepoint lightcone runs on the sparse
    engine: [Analysis.Classify.support_bound] of each cone times its
    gate count. *)
val sparse_sim_ops : Circuit.t -> float

(** [rank_sim_ops c] — per-tracepoint lightcone runs on the
    stabilizer-rank engine: [2^k] Pauli frames ([k] non-Clifford gates
    in the cone) times gates times [n^2] tableau work. *)
val rank_sim_ops : Circuit.t -> float

(** [hardware_seconds t] estimates device wall-clock from the paper's quoted
    IBMQ timings. *)
val hardware_seconds : t -> float

val pp : Format.formatter -> t -> unit
