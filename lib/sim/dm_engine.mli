(** Exact density-matrix execution with noise channels.

    Measurements split the simulation into weighted classical branches so
    that feedback ([If_gate]) stays exactly correlated with outcomes; the
    engine therefore costs O(2^m) density simulations for [m] measurements.
    Intended for small registers (<= ~9 qubits). *)

type branch = {
  weight : float;
  rho : Qstate.Density.t;
  clbits : int array;
}

type outcome = {
  branches : branch list;  (** weights sum to 1 *)
  traces : (int * Linalg.Cmat.t) list;
      (** tracepoint id -> branch-averaged reduced density matrix *)
}

(** [run ?noise ?initial c] executes the circuit exactly. *)
val run :
  ?noise:Noise.t ->
  ?initial:Qstate.Density.t ->
  Circuit.t ->
  outcome

(** [final_density o] is the weighted mixture over branches. *)
val final_density : outcome -> Qstate.Density.t

(** [probs ?noise ?initial c] is the exact final basis distribution. *)
val probs : ?noise:Noise.t -> ?initial:Qstate.Density.t -> Circuit.t -> float array
