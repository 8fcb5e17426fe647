(** A program under verification: a circuit plus the designation of which
    qubits carry the (variable) input state. Non-input qubits start in
    [|0>]. Tracepoint id 0 is reserved for the input itself. *)

type t = { circuit : Circuit.t; input_qubits : int list }

(** [make ?input_qubits circuit] defaults to all qubits being input. *)
val make : ?input_qubits:int list -> Circuit.t -> t

(** [num_input_qubits p] is the size of the variable input. *)
val num_input_qubits : t -> int

(** [embed p input] lifts a state on the input qubits to a full-register
    initial state (zeros elsewhere). *)
val embed : t -> Qstate.Statevec.t -> Qstate.Statevec.t

(** [run_traces ?pool ?rng ?noise ?trajectories p ~input] executes the
    program on the given input state and returns tracepoint states, with the
    reserved id 0 mapping to the input's density matrix. [pool] is forwarded
    to [Sim.Engine.tracepoint_states] for parallel trajectory averaging. *)
val run_traces :
  ?pool:Parallel.Pool.t ->
  ?rng:Stats.Rng.t ->
  ?noise:Sim.Noise.t ->
  ?trajectories:int ->
  t ->
  input:Qstate.Statevec.t ->
  (int * Linalg.Cmat.t) list

(** [tracepoint_ids p] lists tracepoint ids in program order (without the
    reserved 0). *)
val tracepoint_ids : t -> int list
