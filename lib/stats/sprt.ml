(* Wald's sequential probability ratio test. State is a running
   log-likelihood-ratio log (P1 / P0); crossing log A = log ((1-beta)/alpha)
   rejects H0 with false-reject rate <= alpha, crossing
   log B = log (beta/(1-alpha)) accepts H0 with false-accept rate <= beta. *)

type t = { log_lr : float; n : int; log_a : float; log_b : float }
type verdict = Accept_h0 | Reject_h0 | Continue

let make ~alpha ~beta =
  if alpha <= 0. || alpha >= 1. || beta <= 0. || beta >= 1. then
    invalid_arg "Sprt.make: alpha and beta must be in (0, 1)";
  {
    log_lr = 0.;
    n = 0;
    log_a = log ((1. -. beta) /. alpha);
    log_b = log (beta /. (1. -. alpha));
  }

let observe_llr t llr = { t with log_lr = t.log_lr +. llr; n = t.n + 1 }

let bernoulli_llr ~p0 ~p1 success =
  if p0 <= 0. || p0 >= 1. || p1 <= 0. || p1 >= 1. then
    invalid_arg "Sprt.bernoulli_llr: p0 and p1 must be in (0, 1)";
  if success then log (p1 /. p0) else log ((1. -. p1) /. (1. -. p0))

let observe_bernoulli ~p0 ~p1 t success =
  observe_llr t (bernoulli_llr ~p0 ~p1 success)

let decide t =
  if t.log_lr >= t.log_a then Reject_h0
  else if t.log_lr <= t.log_b then Accept_h0
  else Continue

let log_lr t = t.log_lr
let boundaries t = (t.log_b, t.log_a)
