(** Matrices of the standard gate set. Single-qubit gates are 2 x 2; two-qubit
    primitives are 4 x 4 with qubit 0 of the pair as the least significant
    index bit. *)

val h : Linalg.Cmat.t
val x : Linalg.Cmat.t
val y : Linalg.Cmat.t
val z : Linalg.Cmat.t
val s : Linalg.Cmat.t
val sdg : Linalg.Cmat.t
val t : Linalg.Cmat.t
val tdg : Linalg.Cmat.t

(** Square root of X (used by XEB-style random circuits). *)
val sx : Linalg.Cmat.t

(** Square root of Y. *)
val sy : Linalg.Cmat.t

(** Square root of W = (X + Y)/sqrt(2). *)
val sw : Linalg.Cmat.t

val rx : float -> Linalg.Cmat.t
val ry : float -> Linalg.Cmat.t
val rz : float -> Linalg.Cmat.t

(** [phase lambda] is diag(1, e^{i lambda}). *)
val phase : float -> Linalg.Cmat.t

(** [u3 theta phi lambda] is the generic single-qubit rotation (OpenQASM u3). *)
val u3 : float -> float -> float -> Linalg.Cmat.t

(** [u2x2 params] decodes an arbitrary 2 x 2 matrix from 8 row-major
    [(re, im)] parameters — the encoding of the ["u2x2"] gate that
    [Circuit.Gate.inverse] emits for [sx] and [sy]. *)
val u2x2 : float list -> Linalg.Cmat.t

(** [by_name name params] looks up a single-qubit gate by its QASM name,
    e.g. ["h"], ["rx"] with one parameter. Parameterless gates resolve
    through a precomputed memo table (one shared immutable matrix per name).
    Raises [Invalid_argument] for unknown names or wrong parameter counts. *)
val by_name : string -> float list -> Linalg.Cmat.t

(** Names accepted by {!by_name}. *)
val known_names : string list
