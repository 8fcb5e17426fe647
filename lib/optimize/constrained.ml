type problem = {
  objective : Objective.t;
  constraints : (float array -> float) list;
}

type solution = {
  x : float array;
  value : float;
  max_violation : float;
  feasible : bool;
  evals : int;
}

let violation constraints x =
  List.fold_left (fun acc g -> Float.max acc (Float.max 0. (g x))) 0. constraints

let feasible_tol = 1e-3

let maximize ?(budget = 10_000) ?(rounds = 4) ~method_ rng problem =
  let obj = problem.objective in
  let total_evals = ref 0 in
  let best = ref None in
  let mu = ref 10. in
  for _ = 1 to rounds do
    let penalized =
      Objective.make ~dim:obj.Objective.dim ~lower:obj.Objective.lower
        ~upper:obj.Objective.upper (fun x ->
          let pen =
            List.fold_left
              (fun acc g ->
                let v = Float.max 0. (g x) in
                acc +. (v *. v))
              0. problem.constraints
          in
          obj.Objective.f x -. (!mu *. pen))
    in
    let sol = Solvers.maximize ~budget:(budget / rounds) method_ rng penalized in
    total_evals := !total_evals + sol.Solvers.evals;
    let value = obj.Objective.f sol.Solvers.x in
    let max_violation = violation problem.constraints sol.Solvers.x in
    let candidate = { x = sol.Solvers.x; value; max_violation; feasible = max_violation <= feasible_tol; evals = 0 } in
    (match !best with
    | None -> best := Some candidate
    | Some b ->
        (* prefer feasible solutions; among feasible, larger objective *)
        let better =
          match (b.feasible, candidate.feasible) with
          | true, false -> false
          | false, true -> true
          | true, true -> candidate.value > b.value
          | false, false -> candidate.max_violation < b.max_violation
        in
        if better then best := Some candidate);
    mu := !mu *. 10.
  done;
  match !best with
  | Some b -> { b with evals = !total_evals }
  | None -> assert false
