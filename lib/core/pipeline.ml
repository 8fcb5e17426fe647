(* The verify pipeline shared by the CLI and the daemon — see the mli. *)

module Lint = Analysis.Lint

type request = {
  name : string;
  qasm : string;
  fields : (string * string list) list;
  cache : Cache.t option;
}

type event =
  | Accepted of Qasm.full
  | Certified of Verify.certify_report
  | Expect of Qasm.expect_pragma * Verify.counts_result
  | Asserting of Assertion.t
  | Verdict of Verify.verdict

type outcome = { verified : bool; expects_ok : bool; cost : Sim.Cost.t option }

type error =
  | Refused of string
  | Program of Lint.diagnostic
  | Not_certified of Verify.certify_report

let ( let* ) = Result.bind

(* ------------------------------ decode ------------------------------- *)

let defaults =
  [
    ("count", "0");
    ("seed", "2024");
    ("solver", "qp");
    ("budget", "fixed:2048");
    ("mode", "exact");
    ("certify", "false");
  ]

type settings = {
  assumes : string list;
  guarantees : string list;
  count : int;
  seed : int;
  solver : Optimize.Solvers.method_;
  budget : Stats.Tests.budget;
  mode : Characterize.mode;
  certify : bool;
}

let decode fields =
  let values name = Option.value ~default:[] (List.assoc_opt name fields) in
  let field name parse =
    match values name with
    | [] -> parse (List.assoc name defaults)
    | [ v ] -> parse v
    | _ -> Error (Printf.sprintf "%s takes one value" name)
  in
  let int name =
    field name (fun v ->
        Option.to_result
          ~none:(Printf.sprintf "bad %s %S (an integer)" name v)
          (int_of_string_opt (String.trim v)))
  in
  let* count = int "count" in
  let* seed = int "seed" in
  let* solver = field "solver" Spec.parse_solver in
  let* budget = field "budget" Spec.parse_budget in
  let* mode = field "mode" Spec.parse_mode in
  let* certify =
    field "certify" (fun v ->
        Option.to_result
          ~none:(Printf.sprintf "bad certify %S (true | false)" v)
          (bool_of_string_opt v))
  in
  Ok
    {
      assumes = values "assume";
      guarantees = values "guarantee";
      count;
      seed;
      solver;
      budget;
      mode;
      certify;
    }

(* ------------------------------- check ------------------------------- *)

let refuse_first = function [] -> Ok () | d :: _ -> Error (Program d)

let parse_specs circuit n_in specs =
  List.fold_left
    (fun acc spec ->
      let* l = acc in
      let* p = Spec.parse_predicate circuit n_in spec in
      Ok (p :: l))
    (Ok []) specs
  |> Result.map List.rev
  |> Result.map_error (fun e -> Refused e)

(* ------------------------------- run --------------------------------- *)

let run ~emit r =
  let* s = Result.map_error (fun e -> Refused e) (decode r.fields) in
  let* full = Result.map_error (fun d -> Program d) (Lint.read r.qasm) in
  let c = full.Qasm.circuit in
  let program = Program.make c in
  let n_in = Program.num_input_qubits program in
  (* the check phase: nothing below it is spent on a refused request *)
  let* () = refuse_first (Lint.check_tracepoint_ids ~locs:full.Qasm.locs c) in
  let* assumes = parse_specs c n_in s.assumes in
  let* guarantees = parse_specs c n_in s.guarantees in
  let* () =
    refuse_first
      (Lint.check_expects ~num_qubits:(Circuit.num_qubits c)
         full.Qasm.expects)
  in
  let* () =
    if guarantees = [] && full.Qasm.expects = [] then
      Error
        (Refused
           "at least one guarantee (or an expect pragma in the program) is \
            required")
    else Ok ()
  in
  emit (Accepted full);
  let* () =
    if not s.certify then Ok ()
    else
      let report =
        Verify.certify_transpile ?cache:r.cache ~locs:full.Qasm.locs c
      in
      emit (Certified report);
      if report.Verify.certified then Ok () else Error (Not_certified report)
  in
  let rng = Stats.Rng.make s.seed in
  (* sample the final distribution on |0...0> and test it against each
     pragma, stopping at the first that does not hold *)
  let expects_ok =
    List.for_all
      (fun (e : Qasm.expect_pragma) ->
        let dist =
          Assertion.Dist.make ?significance:e.Qasm.significance e.Qasm.expected
        in
        let counts =
          Verify.check_counts ~budget:s.budget ~rng program dist
            ~input:(Qstate.Statevec.basis n_in 0)
        in
        emit (Expect (e, counts));
        counts.Verify.counts_hold)
      full.Qasm.expects
  in
  match guarantees with
  | [] ->
      (* distribution-only verification via the expect pragmas *)
      Ok { verified = expects_ok; expects_ok; cost = None }
  | _ ->
      let assertion = Assertion.make ~name:r.name ~assumes ~guarantees () in
      emit (Asserting assertion);
      let count =
        if s.count > 0 then s.count else Approx.samples_for_full_accuracy ~n_in
      in
      let ch =
        Characterize.run ?cache:r.cache ~rng ~mode:s.mode program ~count
      in
      let approx = Approx.of_characterization ch in
      let options = { Verify.default_options with solver = s.solver } in
      let verdict =
        Verify.validate ~options ~rng ~confirm:program ?cache:r.cache approx
          assertion
      in
      emit (Verdict verdict);
      let holds =
        match verdict with
        | Verify.Verified _ -> true
        | Verify.Violated _ -> false
      in
      Ok
        {
          verified = holds && expects_ok;
          expects_ok;
          cost = Some ch.Characterize.cost;
        }

let pp_error ?file ppf = function
  | Refused msg -> Format.pp_print_string ppf msg
  | Program d -> Lint.pp ?file ppf d
  | Not_certified report ->
      (* the report is never empty when not certified *)
      Lint.pp ?file ppf
        (List.hd (Verify.certify_diagnostics report.Verify.cert_failures))
