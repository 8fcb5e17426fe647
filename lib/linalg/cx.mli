(** Small helpers over the standard library's [Complex.t]. *)

type t = Complex.t

val zero : t
val one : t
val i : t

(** [make re im] builds a complex number from its parts. *)
val make : float -> float -> t

(** [re z] is the real part of [z]. *)
val re : t -> float

(** [im z] is the imaginary part of [z]. *)
val im : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

(** [conj z] is the complex conjugate of [z]. *)
val conj : t -> t

(** [scale c z] multiplies [z] by the real scalar [c]. *)
val scale : float -> t -> t

(** [norm z] is the modulus |z|. *)
val norm : t -> float

(** [norm2 z] is the squared modulus |z|^2. *)
val norm2 : t -> float

(** [arg z] is the argument (phase) of [z] in (-pi, pi]. *)
val arg : t -> float

(** [exp_i theta] is [exp(i * theta)]. *)
val exp_i : float -> t

(** [of_float x] embeds a real number. *)
val of_float : float -> t

(** [equal ~eps a b] holds when both parts differ by at most [eps]. *)
val equal : ?eps:float -> t -> t -> bool

(** Pretty-printer in the form [a+bi]. *)
val pp : Format.formatter -> t -> unit
