(** Bench-regression gate: compare the last two [BENCH_results.json]
    runs and flag statistically significant slowdowns and counter
    drifts (the [bench check] subcommand / [make bench-check]).

    Timing rows are compared with a one-sided Welch t-test on
    log-transformed per-repetition wall times (see the [samples] field
    written by [bench/util.ml]); a row regresses only when the test is
    significant at [alpha] AND the median ratio current/previous
    exceeds [min_ratio] — the practical-significance guard that keeps
    microsecond jitter from failing CI. Rows with fewer than two
    samples on either side are skipped (and listed as such). Counter
    deltas are deterministic under the pinned bench seeds, so they are
    compared exactly on the keys both runs share. *)

(** One row of a results file. *)
type row = {
  name : string;
  seconds : float;
  samples : float array;  (** empty when the run predates the field *)
  metrics : (string * int) list;
}

type run = { schema : string; rows : row list }

(** [parse_run src] reads a [morphqpv-bench-v2] results document from a
    string with the program's one JSON reader ({!Jsonx}). *)
val parse_run : string -> (run, string) result

(** [load path] is {!parse_run} on the file's contents. *)
val load : string -> (run, string) result

(** One flagged regression, carrying everything needed to reproduce the
    verdict: the record name, what moved, the test statistic and its
    p-value (absent for exact counter comparisons). *)
type finding = {
  record : string;
  what : string;  (** human-readable: which quantity drifted and how *)
  statistic : float;
  pvalue : float option;
}

type report = {
  regressions : finding list;
  skipped : string list;
      (** rows not timing-tested: missing from one run, or < 2 samples *)
  compared : int;  (** rows subjected to the timing test *)
}

(** [compare_runs ?alpha ?min_ratio ~prev cur] — defaults
    [alpha = 0.01] (per-row; the gate runs tens of rows per push, so a
    loose level would trip on noise weekly) and [min_ratio = 1.3]. *)
val compare_runs :
  ?alpha:float -> ?min_ratio:float -> prev:run -> run -> report

val pp_report : Format.formatter -> report -> unit
