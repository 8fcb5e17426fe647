(** Isomorphism-based approximation (Section 5.2, Theorem 1).

    From sampled pairs (input, tracepoint state) the approximation expresses
    any input as a real linear combination of the sampled inputs and carries
    the coefficients through the (linear, structure-preserving) program
    evolution:

    [rho_in ~ sum_i alpha_i sigma_in_i  ==>  rho_T ~ sum_i alpha_i sigma_T_i]

    Coefficient recovery supports two modes:
    - [`Least_squares] (default): minimize [|| rho - sum alpha_i sigma_i ||_F]
      over real alpha — exact whenever the input lies in the sampled span;
    - [`Expectation]: the paper's closed form [alpha_i = tr(sigma_i rho)],
      exact only for an orthonormal operator frame. *)

type recovery = [ `Least_squares | `Expectation ]

type t = private {
  n_in : int;  (** input qubits *)
  inputs : Linalg.Cmat.t array;  (** sampled input density matrices *)
  outputs : (int * Linalg.Cmat.t array) list;  (** per-tracepoint states *)
  basis : Linalg.Rmat.t Lazy.t;  (** HS-vectorized inputs for least squares *)
  solver : Linalg.Rmat.lstsq Lazy.t;
      (** cached normal-equation factorization *)
  lstsq_map : Linalg.Rmat.t Lazy.t;
      (** [G], the least-squares map itself: [n_sample] x [4^n_in], column
          [k] the solve of the [k]-th HS unit vector, so
          [decompose_into] computes [G (Hsvec.encode rho)] up to rounding.
          Built on first use from [solver]; the norm bounds of
          {!Verify.validate} read it. *)
}

(** [make ~n_in ~inputs ~outputs] assembles an approximation directly from
    sampled pairs (used by experiments that characterize circuit segments). *)
val make :
  n_in:int ->
  inputs:Linalg.Cmat.t array ->
  outputs:(int * Linalg.Cmat.t array) list ->
  t

(** [of_characterization c] builds the approximation functions for every
    tracepoint recorded in the characterization. *)
val of_characterization : Characterize.t -> t

(** [n_sample t] is the number of sampled inputs. *)
val n_sample : t -> int

(** [tracepoint_ids t] lists the approximable tracepoints (including the
    reserved input id 0). *)
val tracepoint_ids : t -> int list

(** [decompose ?mode t rho] recovers the coefficient vector for an input
    density matrix. *)
val decompose : ?mode:recovery -> t -> Linalg.Cmat.t -> float array

(** Buffers for {!decompose_into}: the HS re-encoding of the input and the
    forced least-squares factorization of one approximation. *)
type workspace

val workspace : t -> workspace

(** [decompose_into w rho ~dst] writes [decompose t rho] (least squares)
    into [dst] without allocating, for the approximation [t] that [w] was
    made from. *)
val decompose_into : workspace -> Linalg.Cmat.t -> dst:float array -> unit

(** [combine_into states alpha ~dst] writes [sum_i alpha_i states_i] into
    [dst] without allocating. Terms with [alpha_i = 0] are skipped; the
    others are added in ascending [i]. *)
val combine_into :
  Linalg.Cmat.t array -> float array -> dst:Linalg.Cmat.t -> unit

(** [input_of_alpha t alpha] is [sum_i alpha_i sigma_in_i]. *)
val input_of_alpha : t -> float array -> Linalg.Cmat.t

(** [tracepoint_of_alpha t ~tracepoint alpha] is [sum_i alpha_i sigma_T_i].
    Raises [Not_found] for an unknown tracepoint. *)
val tracepoint_of_alpha : t -> tracepoint:int -> float array -> Linalg.Cmat.t

(** [state_at ?mode ?physical t ~tracepoint rho_in] approximates the
    tracepoint state under input [rho_in]. When [physical] is true (default)
    the result is projected back to a valid density matrix. *)
val state_at :
  ?mode:recovery -> ?physical:bool -> t -> tracepoint:int -> Linalg.Cmat.t -> Linalg.Cmat.t

(** [accuracy approx_state truth] is the paper's approximation-accuracy
    metric: the Uhlmann fidelity between the (physically projected)
    approximate state and the ground truth. *)
val accuracy : Linalg.Cmat.t -> Linalg.Cmat.t -> float

(** [theoretical_accuracy ~n_in ~n_sample] is Theorem 2's case-2 value
    [min 1 (n_sample / 2^(n_in + 1))]. *)
val theoretical_accuracy : n_in:int -> n_sample:int -> float

(** [samples_for_full_accuracy ~n_in] is [2^(n_in + 1)]. *)
val samples_for_full_accuracy : n_in:int -> int

(** [chain fs rho] composes per-segment approximations (Figure 14's
    intermediate-tracepoint optimization): each function maps a segment
    input to the segment output, applied left to right. *)
val chain : (Linalg.Cmat.t -> Linalg.Cmat.t) list -> Linalg.Cmat.t -> Linalg.Cmat.t
