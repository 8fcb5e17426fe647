(** The verify pipeline behind both [morphqpv verify] and the daemon's
    [verify] RPC: one front door that decodes, reads and checks a
    request, then spends on it. The front ends hand over the program text
    and the request's named string fields and render the {!event}s, the
    {!outcome} and the {!error}s.

    Steps, in order:
    - decode the fields ({!defaults} fills the ones not given);
    - read the program ({!Analysis.Lint.read});
    - the check phase: lint's MQ004 rule, the predicate specs ({!Spec}),
      lint's MQ019 rules on every [expect] pragma, and at least one
      guarantee or pragma. A request refused here has drawn no shot, run
      no certificate check and characterized nothing;
    - translation validation (when [certify]), every [expect] pragma,
      then — when there is a guarantee — characterization, the
      approximation and {!Verify.validate} with the program as
      confirmation. *)

type request = {
  name : string;
      (** assertion name; part of the verdict cache key (the CLI uses the
          file path, the daemon ["rpc"]) *)
  qasm : string;  (** the program text *)
  fields : (string * string list) list;
      (** named string fields, CLI flags or JSON params: [assume] and
          [guarantee] (predicate specs), [count], [seed], [solver],
          [budget], [mode] and [certify] (one value each). Other names
          are ignored; the first binding of a name counts. *)
  cache : Cache.t option;
}

(** The one table of defaults of a verify request's fields: [count] 0
    (selects the Theorem-2 count), [seed] 2024, [solver] qp, [budget]
    fixed:2048 (the [expect] checks' shot budget), [mode] exact and
    [certify] false. *)
val defaults : (string * string) list

type event =
  | Accepted of Qasm.full  (** the request passed the check phase *)
  | Certified of Verify.certify_report
      (** the checker's report, passed or not *)
  | Expect of Qasm.expect_pragma * Verify.counts_result
      (** one pragma's counts verdict; checking stops at the first
          pragma that does not hold *)
  | Asserting of Assertion.t  (** characterization starts *)
  | Verdict of Verify.verdict

type outcome = {
  verified : bool;  (** the verdict (if any) and every pragma held *)
  expects_ok : bool;
  cost : Sim.Cost.t option;
      (** characterization cost; [None] when only pragmas were checked *)
}

type error =
  | Refused of string
      (** a field that does not decode, a spec that does not parse or
          names a state the program lacks, or nothing to check *)
  | Program of Analysis.Lint.diagnostic
      (** a program that does not read (MQ000, a construction error) or
          breaks MQ004 or MQ019 *)
  | Not_certified of Verify.certify_report

(** [run ~emit request] calls [emit] on each event as its step finishes.
    The generator seeded with the [seed] field feeds the pragmas, then
    characterization, then the solver, so equal requests reach equal
    verdicts. *)
val run : emit:(event -> unit) -> request -> (outcome, error) result

(** [pp_error ?file] prints an error as lint prints a diagnostic
    ({!Analysis.Lint.pp}): a program error with its code and location
    (prefixed with [file] when given), [Not_certified] as its first MQ021
    failure, a refusal as its message. *)
val pp_error : ?file:string -> Format.formatter -> error -> unit
