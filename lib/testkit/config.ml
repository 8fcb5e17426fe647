let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ -> default)
  | None -> default

let count ?(default = 100) () = env_int "QCHECK_COUNT" default
let seed ?(default = 4231) () = env_int "MORPHQPV_SEED" default
let rand () = Random.State.make [| seed () |]

let repro ~exe =
  Printf.sprintf "MORPHQPV_SEED=%d QCHECK_COUNT=%d dune exec %s" (seed ())
    (count ()) exe

(* the path below the build context, _build/<context>/, is the one
   [dune exec] takes *)
let exe () =
  let rec below = function
    | "_build" :: _ :: (_ :: _ as rest) -> Some (String.concat "/" rest)
    | _ :: rest -> below rest
    | [] -> None
  in
  let path = Sys.executable_name in
  Option.value ~default:path (below (String.split_on_char '/' path))

let announce () =
  Printf.printf "testkit: seed=%d count=%d  repro: %s\n%!" (seed ()) (count ())
    (repro ~exe:(exe ()))
