(** Pauli strings over [n] qubits.

    Convention used throughout the library: qubit 0 is the least significant
    bit of a computational-basis index, so basis state [|q_{n-1} ... q_1 q_0>]
    has index [sum_k q_k * 2^k]. A Pauli string stores one operator per qubit,
    indexed by qubit number. *)

type op = I | X | Y | Z
type t = op array

(** [single n q o] is the string acting as [o] on qubit [q] of [n] and
    identity elsewhere. *)
val single : int -> int -> op -> t

(** [identity n] is the all-[I] string. *)
val identity : int -> t

(** [weight p] counts non-identity factors. *)
val weight : t -> int

(** [matrix1 o] is the 2 x 2 matrix of a single Pauli operator. *)
val matrix1 : op -> Linalg.Cmat.t

(** [matrix p] is the full [2^n x 2^n] matrix (tensor product respecting the
    qubit-0-least-significant convention). *)
val matrix : t -> Linalg.Cmat.t

(** [all n] enumerates all [4^n] Pauli strings in lexicographic (I,X,Y,Z)
    order, identity first. *)
val all : int -> t list

(** [expectation_dm p rho] is [Re tr(P rho)] without materializing the full
    Pauli matrix. *)
val expectation_dm : t -> Linalg.Cmat.t -> float

(** [density_of_expectations keep expectation] is
    [2^-k sum_P (expectation P) P] over the [4^k] Pauli strings [P] on the
    [k] qubits of [keep]: the reduced density on [keep] of a state whose
    Pauli expectations are [expectation] (bit [j] of the result index is
    [List.nth keep j]). [expectation ~x ~z] receives a string as register
    masks — X on qubit [q] when bit [q] of [x] is set, Z when bit [q] of
    [z], Y when both. Strings run in ascending [sum_j letter_j 4^j]
    (I = 0, X = 1, Y = 2, Z = 3) and one with expectation 0 adds nothing.
    A string has one nonzero per row, so the cost is [4^k] calls of
    [expectation] plus [2^k] additions per nonzero string. *)
val density_of_expectations :
  int list -> (x:int -> z:int -> float) -> Linalg.Cmat.t

(** [mul a b] multiplies two Pauli strings of equal length, returning the
    resulting string together with its scalar phase in [{1, i, -1, -i}]
    encoded as the exponent of [i] (mod 4): [a * b = i^phase * result]. *)
val mul : t -> t -> int * t

(** [commute a b] — do the two strings commute? *)
val commute : t -> t -> bool

(** [of_string s] parses e.g. ["XIZ"] (leftmost character = highest qubit). *)
val of_string : string -> t

(** [to_string p] renders with the highest qubit leftmost. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
