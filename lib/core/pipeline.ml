(* The verify pipeline shared by the CLI and the daemon — see the mli. *)

type request = {
  full : Qasm.full;
  name : string;
  assumes : string list;
  guarantees : string list;
  count : int;
  seed : int;
  solver : Optimize.Solvers.method_;
  budget : Stats.Tests.budget;
  mode : Characterize.mode;
  certify : bool;
  cache : Cache.t option;
}

type event =
  | Certified of Verify.certify_report
  | Expect of Qasm.expect_pragma * (Verify.counts_result, string) result
  | Asserting of Assertion.t
  | Verdict of Verify.verdict

type outcome = { verified : bool; expects_ok : bool; cost : Sim.Cost.t option }

type error =
  | Not_certified of Verify.certify_report
  | Bad_spec of string
  | Nothing_to_check

let ( let* ) = Result.bind

(* sample the final distribution on |0...0> and test it against the
   pragma; a malformed pragma is an error value, not an exception *)
let check_expect ~budget ~rng program (e : Qasm.expect_pragma) =
  match
    Assertion.Dist.make ?significance:e.Qasm.significance e.Qasm.expected
  with
  | exception Invalid_argument msg -> Error msg
  | dist ->
      let input = Qstate.Statevec.basis (Program.num_input_qubits program) 0 in
      Ok (Verify.check_counts ~budget ~rng program dist ~input)

let parse_specs circuit n_in specs =
  List.fold_left
    (fun acc spec ->
      let* l = acc in
      let* p = Spec.parse_predicate circuit n_in spec in
      Ok (p :: l))
    (Ok []) specs
  |> Result.map List.rev
  |> Result.map_error (fun e -> Bad_spec e)

let run ~emit r =
  let c = r.full.Qasm.circuit in
  let* () =
    (* lint MQ004: specs would read id 0 as the input, not this state *)
    if List.mem_assoc 0 (Circuit.tracepoints c) then
      Error (Bad_spec "tracepoint id 0 is reserved for the program input")
    else Ok ()
  in
  let* () =
    if not r.certify then Ok ()
    else
      let report =
        Verify.certify_transpile ?cache:r.cache ~locs:r.full.Qasm.locs c
      in
      emit (Certified report);
      if report.Verify.certified then Ok () else Error (Not_certified report)
  in
  let rng = Stats.Rng.make r.seed in
  let program = Program.make c in
  let n_in = Program.num_input_qubits program in
  let expects_ok =
    List.for_all
      (fun e ->
        let result = check_expect ~budget:r.budget ~rng program e in
        emit (Expect (e, result));
        match result with
        | Ok counts -> counts.Verify.counts_hold
        | Error _ -> false)
      r.full.Qasm.expects
  in
  let* assumes = parse_specs c n_in r.assumes in
  let* guarantees = parse_specs c n_in r.guarantees in
  match guarantees with
  | [] when r.full.Qasm.expects <> [] ->
      (* distribution-only verification via the expect pragmas *)
      Ok { verified = expects_ok; expects_ok; cost = None }
  | [] -> Error Nothing_to_check
  | _ ->
      let assertion = Assertion.make ~name:r.name ~assumes ~guarantees () in
      emit (Asserting assertion);
      let count =
        if r.count > 0 then r.count else Approx.samples_for_full_accuracy ~n_in
      in
      let ch =
        Characterize.run ?cache:r.cache ~rng ~mode:r.mode program ~count
      in
      let approx = Approx.of_characterization ch in
      let options = { Verify.default_options with solver = r.solver } in
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
