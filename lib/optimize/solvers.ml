type solution = { x : float array; value : float; evals : int }

let counting_objective (obj : Objective.t) =
  let evals = ref 0 in
  let f x =
    incr evals;
    obj.Objective.f x
  in
  ({ obj with Objective.f }, evals)

let better a b = if b.value > a.value then b else a

(* iteration counts are closed-form in the solver parameters and eval
   counts come from [counting_objective], so both are independent of
   timing and domain count *)
let record_solver name ~iterations ~evals =
  if Obs.enabled () then begin
    let labels = [ ("solver", name) ] in
    Obs.Metrics.counter_add ~labels "solver_iterations_total" iterations;
    Obs.Metrics.counter_add ~labels "solver_evals_total" evals
  end

(* Adam's step size *)
let lr = 0.05

let adam ?(iters = 200) ?(restarts = 4) rng obj =
  Obs.Span.with_ ~name:"solver.sgd-adam" @@ fun () ->
  let obj, evals = counting_objective obj in
  let dim = obj.Objective.dim in
  let best = ref { x = Array.make dim 0.; value = neg_infinity; evals = 0 } in
  for _ = 1 to restarts do
    let x = Objective.random_point obj rng in
    let m = Array.make dim 0. and v = Array.make dim 0. in
    let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
    for t = 1 to iters do
      let g = Objective.num_grad obj x in
      for i = 0 to dim - 1 do
        m.(i) <- (beta1 *. m.(i)) +. ((1. -. beta1) *. g.(i));
        v.(i) <- (beta2 *. v.(i)) +. ((1. -. beta2) *. g.(i) *. g.(i));
        let mh = m.(i) /. (1. -. (beta1 ** float_of_int t)) in
        let vh = v.(i) /. (1. -. (beta2 ** float_of_int t)) in
        x.(i) <- x.(i) +. (lr *. mh /. (sqrt vh +. eps))
      done;
      Objective.clamp obj x
    done;
    let value = obj.Objective.f x in
    best := better !best { x = Array.copy x; value; evals = 0 }
  done;
  record_solver "sgd-adam" ~iterations:(restarts * iters) ~evals:!evals;
  { !best with evals = !evals }

(* the annealing temperature at the first step *)
let temp0 = 1.

let anneal ?(iters = 2000) ?(restarts = 2) rng obj =
  Obs.Span.with_ ~name:"solver.annealing" @@ fun () ->
  let obj, evals = counting_objective obj in
  let dim = obj.Objective.dim in
  let best = ref { x = Array.make dim 0.; value = neg_infinity; evals = 0 } in
  for _ = 1 to restarts do
    let x = Objective.random_point obj rng in
    let fx = ref (obj.Objective.f x) in
    best := better !best { x = Array.copy x; value = !fx; evals = 0 };
    let cooling = exp (log 1e-3 /. float_of_int iters) in
    let temp = ref temp0 in
    for _ = 1 to iters do
      let i = Stats.Rng.int rng dim in
      let width = obj.Objective.upper.(i) -. obj.Objective.lower.(i) in
      let old = x.(i) in
      x.(i) <- x.(i) +. Stats.Rng.gaussian rng ~mu:0. ~sigma:(0.2 *. width *. !temp);
      Objective.clamp obj x;
      let fnew = obj.Objective.f x in
      let accept =
        fnew >= !fx
        || Stats.Rng.float rng 1. < exp ((fnew -. !fx) /. Float.max 1e-12 !temp)
      in
      if accept then begin
        fx := fnew;
        if fnew > !best.value then
          best := { x = Array.copy x; value = fnew; evals = 0 }
      end
      else x.(i) <- old;
      temp := !temp *. cooling
    done
  done;
  record_solver "annealing" ~iterations:(restarts * iters) ~evals:!evals;
  { !best with evals = !evals }

(* the per-coordinate probability that a child mutates *)
let mutation = 0.15

let genetic ?(generations = 60) ?(population = 40) rng obj =
  Obs.Span.with_ ~name:"solver.genetic" @@ fun () ->
  let obj, evals = counting_objective obj in
  let dim = obj.Objective.dim in
  let eval x = obj.Objective.f x in
  let pop =
    Array.init population (fun _ ->
        let x = Objective.random_point obj rng in
        (x, eval x))
  in
  let tournament () =
    let a = Stats.Rng.int rng population and b = Stats.Rng.int rng population in
    if snd pop.(a) >= snd pop.(b) then fst pop.(a) else fst pop.(b)
  in
  for _ = 1 to generations do
    Array.sort (fun (_, fa) (_, fb) -> compare fb fa) pop;
    let next = Array.make population pop.(0) in
    (* elitism: keep the two best *)
    next.(0) <- pop.(0);
    if population > 1 then next.(1) <- pop.(1);
    for k = 2 to population - 1 do
      let pa = tournament () and pb = tournament () in
      let child =
        Array.init dim (fun i ->
            let t = Stats.Rng.float rng 1. in
            let v = (t *. pa.(i)) +. ((1. -. t) *. pb.(i)) in
            if Stats.Rng.float rng 1. < mutation then
              let width = obj.Objective.upper.(i) -. obj.Objective.lower.(i) in
              v +. Stats.Rng.gaussian rng ~mu:0. ~sigma:(0.1 *. width)
            else v)
      in
      Objective.clamp obj child;
      next.(k) <- (child, eval child)
    done;
    Array.blit next 0 pop 0 population
  done;
  Array.sort (fun (_, fa) (_, fb) -> compare fb fa) pop;
  let x, value = pop.(0) in
  record_solver "genetic" ~iterations:generations ~evals:!evals;
  { x; value; evals = !evals }

(* Projected ascent with exact line search under a local quadratic model
   along each search direction: for quadratic objectives the 1-D restriction
   is exactly quadratic, so the step is optimal; curvature is probed by a
   second evaluation. Directions cycle through conjugate-ish gradient
   estimates (Polak-Ribiere on numeric gradients). *)
let qp ?(iters = 80) ?(restarts = 3) rng obj =
  Obs.Span.with_ ~name:"solver.quadratic" @@ fun () ->
  let obj, evals = counting_objective obj in
  let dim = obj.Objective.dim in
  let best = ref { x = Array.make dim 0.; value = neg_infinity; evals = 0 } in
  let dot a b = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) a b) in
  for _ = 1 to restarts do
    let x = Objective.random_point obj rng in
    let g = ref (Objective.num_grad obj x) in
    let d = ref (Array.copy !g) in
    for _ = 1 to iters do
      let dn = sqrt (dot !d !d) in
      if dn > 1e-12 then begin
        let dir = Array.map (fun v -> v /. dn) !d in
        (* quadratic model along dir: f(x + t dir) ~ f0 + a t + b t^2 *)
        let f0 = obj.Objective.f x in
        let h = 1e-3 in
        let probe t =
          let y = Array.mapi (fun i xi -> xi +. (t *. dir.(i))) x in
          Objective.clamp obj y;
          obj.Objective.f y
        in
        let fp = probe h and fm = probe (-.h) in
        let a = (fp -. fm) /. (2. *. h) in
        let b = (fp +. fm -. (2. *. f0)) /. (h *. h) /. 2. in
        let t_star =
          if b < -1e-12 then -.a /. (2. *. b) (* concave: interior max *)
          else if a >= 0. then 1.0 (* convex/linear: jump toward bound *)
          else -1.0
        in
        let t_star = Float.max (-2.) (Float.min 2. t_star) in
        for i = 0 to dim - 1 do
          x.(i) <- x.(i) +. (t_star *. dir.(i))
        done;
        Objective.clamp obj x;
        let g_new = Objective.num_grad obj x in
        (* Polak-Ribiere conjugate direction update *)
        let beta =
          Float.max 0.
            (dot g_new (Array.map2 ( -. ) g_new !g) /. Float.max 1e-12 (dot !g !g))
        in
        d := Array.mapi (fun i gi -> gi +. (beta *. !d.(i))) g_new;
        g := g_new
      end
    done;
    let value = obj.Objective.f x in
    best := better !best { x = Array.copy x; value; evals = 0 }
  done;
  record_solver "quadratic" ~iterations:(restarts * iters) ~evals:!evals;
  { !best with evals = !evals }

type method_ = [ `Adam | `Anneal | `Genetic | `Qp ]

let method_to_string = function
  | `Adam -> "sgd-adam"
  | `Anneal -> "annealing"
  | `Genetic -> "genetic"
  | `Qp -> "quadratic"

let maximize ?(budget = 10_000) method_ rng obj =
  match method_ with
  | `Adam ->
      let iters = max 20 (budget / (4 * (1 + (2 * obj.Objective.dim)))) in
      adam ~iters rng obj
  | `Anneal -> anneal ~iters:(max 100 (budget / 2)) rng obj
  | `Genetic ->
      let population = 40 in
      genetic ~generations:(max 5 (budget / population)) ~population rng obj
  | `Qp ->
      let per_iter = (2 * (1 + (2 * obj.Objective.dim))) + 3 in
      qp ~iters:(max 10 (budget / (3 * per_iter))) rng obj
