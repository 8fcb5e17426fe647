(** The verify pipeline behind both [morphqpv verify] and the daemon's
    [verify] RPC. {!run} decides the order of the steps and the default
    sample count; the front ends parse their own input into a {!request}
    and render the {!event}s, the {!outcome} and the {!error}s.

    Steps, in order: translation validation (when [certify]), every
    [expect] pragma, predicate-spec parsing ({!Spec}), then — when there
    is a guarantee — characterization, the approximation and
    {!Verify.validate} with the program as confirmation. *)

type request = {
  full : Qasm.full;  (** the program and its [expect] pragmas *)
  name : string;
      (** assertion name; part of the verdict cache key (the CLI uses the
          file path, the daemon ["rpc"]) *)
  assumes : string list;  (** predicate specs *)
  guarantees : string list;
  count : int;  (** sampled inputs; [<= 0] selects the Theorem-2 count *)
  seed : int;
  solver : Optimize.Solvers.method_;
  budget : Stats.Tests.budget;  (** shot budget of the [expect] checks *)
  mode : Characterize.mode;
  certify : bool;  (** translation-validate the transpile pipeline first *)
  cache : Cache.t option;
}

type event =
  | Certified of Verify.certify_report
      (** the checker's report, passed or not *)
  | Expect of Qasm.expect_pragma * (Verify.counts_result, string) result
      (** one pragma's counts verdict, or why the pragma is malformed;
          checking stops at the first pragma that does not hold *)
  | Asserting of Assertion.t  (** specs parsed; characterization starts *)
  | Verdict of Verify.verdict

type outcome = {
  verified : bool;  (** the verdict (if any) and every pragma held *)
  expects_ok : bool;
  cost : Sim.Cost.t option;
      (** characterization cost; [None] when only pragmas were checked *)
}

type error =
  | Not_certified of Verify.certify_report
  | Bad_spec of string
      (** a spec that does not parse or names a state the program lacks,
          or a program with a tracepoint 0 (the id specs read as the
          input; lint MQ004) *)
  | Nothing_to_check  (** no guarantee and no [expect] pragma *)

(** [run ~emit request] calls [emit] on each event as its step finishes.
    The generator seeded with [request.seed] feeds the pragmas, then
    characterization, then the solver, so equal requests reach equal
    verdicts. *)
val run : emit:(event -> unit) -> request -> (outcome, error) result
