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

(** The sampled inputs in the coordinates the least squares runs in.
    When [N] inputs cannot fill the [2^n_in]-dimensional input space
    ([N < 2^n_in]; characterized inputs are pure), an isometry [Q] onto
    their joint range is computed once, from the eigendecomposition of
    [sum_i sigma_i] (eigenvalues above [1e-12] of the largest), and each
    input is held as the [r] x [r] matrix [Q^dag sigma_i Q]. Every input
    lies in the range, so Hilbert-Schmidt inner products, the
    least-squares factor and every coefficient equal those of the full
    space. When the inputs fill the space ([r = 2^n_in]) the coordinates
    are the inputs themselves and the arithmetic is the full-space one,
    bit for bit. *)
type range

type t = private {
  n_in : int;  (** input qubits *)
  inputs : Linalg.Cmat.t array;  (** sampled input density matrices *)
  outputs : (int * Linalg.Cmat.t array) list;  (** per-tracepoint states *)
  range : range Lazy.t;
      (** range coordinates and the least-squares factor of their HS
          encodings (ridge [1e-9]), built on first use *)
  lstsq_map : Linalg.Rmat.t Lazy.t;
      (** [G], the least-squares map itself: [n_sample] x [r^2], column
          [k] the solve of the [k]-th HS unit vector of the range
          coordinates, so {!physical_into} computes [G v] for the HS
          encoding [v] of its projected matrix, up to rounding. Built on
          first use; the norm bounds of {!Verify.validate} read it. *)
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
    density matrix. [`Least_squares] restricts [rho] to the inputs' range
    first: its part off the range is HS-orthogonal to every input, so the
    solution is the full-space one. *)
val decompose : ?mode:recovery -> t -> Linalg.Cmat.t -> float array

(** Buffers for {!physical_into}, sized by the range of one
    approximation; making one forces its factor. *)
type workspace

val workspace : t -> workspace

(** [physical_into w alpha ~dst] writes the coefficients of the physical
    input nearest [rho(alpha) = sum_i alpha_i sigma_i]: [rho(alpha)]
    projected onto the PSD cone at unit trace ({!Linalg.Eig.project_psd})
    and decomposed by least squares, all in range coordinates, without
    allocating. A fully clipped spectrum gives the maximally mixed state
    of the whole input space, [I / 2^n_in] ([I_r / 2^n_in] in range
    coordinates). When the inputs fill the space this is
    [decompose t (Eig.project_psd (input_of_alpha t alpha))] bit for
    bit; otherwise it equals it up to rounding. *)
val physical_into : workspace -> float array -> dst:float array -> unit

(** [combine_into states alpha ~dst] writes [sum_i alpha_i states_i] into
    [dst] without allocating. Terms with [alpha_i = 0] are skipped; the
    others are added in ascending [i]. *)
val combine_into :
  Linalg.Cmat.t array -> float array -> dst:Linalg.Cmat.t -> unit

(** [input_of_alpha t alpha] is [sum_i alpha_i sigma_in_i]. *)
val input_of_alpha : t -> float array -> Linalg.Cmat.t

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
