type t = {
  name : string;
  assumes : Predicate.t list;
  guarantees : Predicate.t list;
}

let make ?(name = "assert") ~assumes ~guarantees () =
  if guarantees = [] then invalid_arg "Assertion.make: no guarantees";
  { name; assumes; guarantees }

let holds ?tol t env =
  (not (List.for_all (fun p -> Predicate.holds ?tol p env) t.assumes))
  || List.for_all (fun p -> Predicate.holds ?tol p env) t.guarantees

module Dist = struct
  type t = { expected : (int * float) list; significance : float }

  let make ?(significance = 0.05) expected =
    Option.iter
      (fun msg -> invalid_arg ("Assertion.Dist.make: " ^ msg))
      (Analysis.Lint.expect_violation ~significance expected);
    { expected = List.sort compare expected; significance }

  (* probability mass the expectation leaves to unlisted outcomes *)
  let other_mass t =
    Float.max 0.
      (1. -. List.fold_left (fun acc (_, p) -> acc +. p) 0. t.expected)

  let describe t =
    Printf.sprintf "expect(%g) %s" t.significance
      (String.concat ", "
         (List.map (fun (k, p) -> Printf.sprintf "%d %g" k p) t.expected))
end

let tracepoints t =
  List.sort_uniq compare
    (List.concat_map Predicate.tracepoints (t.assumes @ t.guarantees))

let describe t =
  Printf.sprintf "%s: assume {%s} guarantee {%s}" t.name
    (String.concat "; " (List.map Predicate.describe t.assumes))
    (String.concat "; " (List.map Predicate.describe t.guarantees))
