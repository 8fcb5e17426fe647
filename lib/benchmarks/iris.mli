(** Synthetic Iris-like dataset for the QNN case study (paper Section 7.2).

    Two species (Setosa = 0, Virginica = 1), four attributes per flower
    (sepal length/width, petal length/width) drawn from per-class Gaussians
    whose means and spreads mimic the real Iris statistics — in particular
    Setosa sepal lengths concentrate in the [4, 6] cm band the paper's
    prior-knowledge assertion references. *)

type flower = { features : float array; label : int }

(** [generate rng ~count] draws a balanced dataset. *)
val generate : Stats.Rng.t -> count:int -> flower array

(** [normalize_features f] maps raw attribute values into rotation angles in
    [[0, 2pi)] using fixed attribute ranges (paper's encoder convention). *)
val normalize_features : float array -> float array
