# Build, test, and smoke-benchmark entry points (used by CI).

.PHONY: all build test test-verify bench-smoke bench ci

all: build

build:
	dune build

test:
	dune runtest

# The whole suite again with the structural plan verifier running
# once on each plan the compilers produce (Plan_cache verifies each
# plan it compiles, Fplan_compile.fuse each fused relay plan).  The
# variable is not part of any cache key, so this compiles exactly the
# plans, and shows the same cache behavior, as the default run.
test-verify:
	FLICK_VERIFY_PLANS=1 dune runtest --force

# The fast artifacts: the compiled-plan/cache report (BENCH_1.json),
# the scatter-gather wire report (BENCH_2.json), the decode-plan
# report (BENCH_3.json), the concurrent-server sweep (BENCH_4.json), and
# the forward-relay report (BENCH_6.json) with its fused-vs-materialize
# throughput and zero-copy gates; the verifier/engine-equality/
# scaling/backpressure/byte-identity self-checks make the run exit
# non-zero on any regression.  The
# gateway artifact runs twice: first with fusion forced off
# (--no-forward), proving the materialize fallback still relays every
# cell byte-identically, then fused, which is the BENCH_6.json that
# check_bench gates on.  The value-dependent-encoding report
# (BENCH_7.json) runs the {msgpack,cbor} parity matrix with verifier,
# byte-identity, decode-equality and whole-message-consumption checks
# per cell.  The request-tracing report (BENCH_8.json) runs the phase
# attribution sweep with its exact phase-sum == client-RTT
# reconciliation (direct and two-hop gateway), exemplar-coverage, and
# disabled-recorder overhead gates; it must run last in the process,
# since its recorder-absent baseline is the state before the recorder
# is ever enabled.  check_bench re-parses every BENCH_*.json and fails
# on any recorded self-check failure, malformed serve sweep,
# missing/failed gateway gate, unsound selfdesc matrix, or
# unreconciled/uncovered tail report.  The artifacts are written to and
# checked in a fresh temporary directory, so the committed BENCH_*.json
# stay as they are; `make bench` writes them in the tree.
bench-smoke:
	dune build bench/main.exe bench/check_bench.exe
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cd "$$tmp" && \
	  $(CURDIR)/_build/default/bench/main.exe gateway --smoke --no-forward && \
	  $(CURDIR)/_build/default/bench/main.exe planopt sgwire decplan serve gateway selfdesc tail --smoke && \
	  $(CURDIR)/_build/default/bench/check_bench.exe

# Every artifact at default sizes (see EXPERIMENTS.md; --full for
# paper-scale sweeps).
bench:
	dune exec bench/main.exe

ci: build test test-verify bench-smoke
