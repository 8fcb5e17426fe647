.PHONY: build test test-fast test-full lint certify examples bench bench-smoke bench-check profile clean

build:
	dune build

test:
	dune build @runtest

# Quick iteration loop: same tests, QCheck case counts lowered. --force
# reruns cached tests (dune does not see env vars as dependencies).
test-fast:
	QCHECK_COUNT=15 dune build @runtest --force

# Full sweep: default QCheck counts plus the fuzz experiment (pass/fail
# counts land in BENCH_results.json). Override MORPHQPV_SEED / QCHECK_COUNT
# / MORPHQPV_FUZZ_N to reproduce a reported failure.
test-full: build
	dune build @runtest --force
	dune exec bench/main.exe -- fuzz

# Static-analysis diagnostics over the example corpus; --strict makes any
# warning fail the target, so the shipped examples must stay lint-clean.
lint: build
	dune exec bin/main.exe -- lint --strict examples/qasm/*.qasm

# Translation validation over the example corpus: every transpile pass
# emits a certificate, the independent checker re-proves each obligation
# (exit 1 = MQ021), and the grep asserts the runs discharged real rewrite
# obligations rather than certifying vacuously.
certify: build
	dune exec bin/main.exe -- certify examples/qasm/*.qasm | tee certify.out
	@grep -q 'certified' certify.out
	@if grep -E 'obligations=[1-9]' certify.out >/dev/null; then \
	  echo "certify: all examples certified with nonzero obligations"; \
	  rm -f certify.out; \
	else \
	  echo "certify: FAILED — zero obligations discharged (vacuous run)" >&2; \
	  rm -f certify.out; exit 1; \
	fi

# End-to-end run of the paper's case studies (lock, QRAM, QNN pruning,
# teleport, Grover, QEC, ...): every example executable must exit 0.
EXAMPLES = quickstart quantum_lock_debug qnn_pruning qram_debug teleport_qasm \
  grover_assert transpile_verify qec_threshold

examples: build
	@set -e; for e in $(EXAMPLES); do \
	  echo "== examples/$$e"; \
	  dune exec examples/$$e.exe; \
	done; echo "examples: all $(words $(EXAMPLES)) exited 0"

bench: build
	dune exec bench/main.exe

# Deterministic-parallelism smoke check: the fig1b and scale experiments
# must print byte-identical output with 1 and 2 domains (timing lines
# stripped). scale also asserts its routing invariants — every 24-32q
# workload runs on the sparse/stabilizer/rank engines, never dense.
bench-smoke: build
	@MORPHQPV_DOMAINS=1 dune exec bench/main.exe -- cache certify fig1b scale \
	  | grep -v -E 'finished in|done in' > bench_smoke_1.out
	@MORPHQPV_DOMAINS=2 dune exec bench/main.exe -- cache certify fig1b scale \
	  | grep -v -E 'finished in|done in' > bench_smoke_2.out
	@if diff -u bench_smoke_1.out bench_smoke_2.out; then \
	  echo "bench-smoke: outputs identical across 1 and 2 domains"; \
	  rm -f bench_smoke_1.out bench_smoke_2.out; \
	else \
	  echo "bench-smoke: FAILED — outputs diverge between domain counts" >&2; \
	  exit 1; \
	fi

# Statistical regression gate over the last two BENCH_results.json runs
# (the writer rotates the previous run to BENCH_results.prev.json).
# Fails on a significant slowdown (one-sided Welch t on log wall times,
# alpha 0.01, median ratio > 1.3x) or on any counter drift, printing the
# offending record, statistic and p-value. Run any bench target twice
# first — bench-smoke is enough.
bench-check: build
	dune exec bench/main.exe -- check

# Where the pipeline time goes on the teleport example: per-span table on
# stdout, Chrome trace_event JSONL + metrics JSON next to it (load the
# trace in chrome://tracing or ui.perfetto.dev). See DESIGN.md §12.
profile: build
	dune exec bin/main.exe -- profile examples/qasm/teleport.qasm \
	  --trace profile_trace.jsonl --metrics profile_metrics.json

clean:
	dune clean
	rm -f bench_smoke_*.out certify.out BENCH_results.json BENCH_results.prev.json
