(** A mini-QASM (OpenQASM-2-flavoured) front end with the paper's tracepoint
    pragma.

    Supported statements:
    - [OPENQASM 2.0;] and [include "...";] headers (ignored)
    - [qreg q[n];] / [creg c[m];] (one register of each kind)
    - gate applications [name(params) q[i], q[j], ...;] — a multi-index
      argument such as [x q[2,3,4];] broadcasts a single-qubit gate, and
      [mcz q[1,2,3],q[4];]-style names starting with [mc] treat the first
      argument as the control list
    - the tracepoint pragma [T 1 q[2,3,4];]
    - the distribution expectation pragma [expect 0 0.5, 7 0.5;]
      (optionally [expect(0.01) ...;] with a significance level) asserting
      the final measurement distribution — carried as a side channel (see
      {!parse_full}), not as a circuit instruction
    - [measure q[i] -> c[j];], [reset q[i];], [barrier q[...];]
    - feedback [if (c[i]==v) name q[j];] and [if (c==v) ...;] (whole
      register)
    - user gate definitions
      [gate name(p1, p2) a, b { h a; rz(p1) b; ... }] with parameters,
      nesting and recursive expansion at use sites

    Parameters accept float literals, [pi], unary minus and [* / + -]
    arithmetic. *)

exception
  Parse_error of {
    line : int;
    column : int;  (** 1-based; 0 when no precise column is known *)
    token : string;  (** offending token text; [""] when not token-level *)
    message : string;
  }

(** [parse src] parses a program into a circuit. Raises {!Parse_error} on
    syntax errors and {!Circuit.Error} (with [loc] filled in) on semantic
    validation errors such as out-of-range qubits. *)
val parse : string -> Circuit.t

(** [parse_file path] reads and parses a file. *)
val parse_file : string -> Circuit.t

(** [parse_with_locs src] additionally returns, for each instruction of the
    circuit (in [Circuit.instrs] order), the [(line, column)] of the QASM
    statement that produced it — gates expanded from a user gate definition
    or broadcast from a multi-index argument all share their statement's
    location. Used by [Analysis.Lint] to report [file:line:col]. *)
val parse_with_locs : string -> Circuit.t * (int * int) array

(** One [expect] pragma, purely syntactic: [(basis index, probability)]
    pairs and the optional significance. Semantic validation (probability
    and index ranges, duplicates, mass sum) is the job of
    [Analysis.Lint] (MQ019) and [Assertion.Dist.make], so a malformed
    pragma still parses to a diagnosable value. *)
type expect_pragma = {
  expected : (int * float) list;
  significance : float option;
  expect_loc : int * int;  (** (line, column) of the pragma *)
}

type full = {
  circuit : Circuit.t;
  locs : (int * int) array;  (** as in {!parse_with_locs} *)
  expects : expect_pragma list;  (** in source order *)
}

(** [parse_full src] is {!parse_with_locs} plus the [expect] pragmas. The
    pragmas ride a side channel so [Circuit.t] — and every consumer of
    it — is unchanged. *)
val parse_full : string -> full

val parse_file_full : string -> full

(** [to_string c] renders a circuit back to mini-QASM; [parse (to_string c)]
    reproduces the circuit up to gate-name canonicalization. *)
val to_string : Circuit.t -> string
