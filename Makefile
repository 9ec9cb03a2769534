# Convenience targets; dune does the real work. See doc/CI.md.

.PHONY: all build test quick-test lint lint-graph witness check sim equiv ha-check shard-check stats bench bench-smoke clean

all: build

build:
	dune build @all

test: build
	dune runtest

quick-test:
	ALCOTEST_QUICK_TESTS=1 dune runtest

# The static analyzer alone (also runs as part of `dune runtest`).
# `--json` output: dune exec bin/rrq_lint.exe -- --json --baseline lint.baseline lib
lint:
	dune exec bin/rrq_lint.exe -- --baseline lint.baseline lib

# Call graph and static lock-order graph as Graphviz under doc/; rendered
# to SVG when the dot tool is installed.
lint-graph:
	dune exec bin/rrq_lint.exe -- --baseline lint.baseline --dot doc lib
	@if command -v dot >/dev/null 2>&1; then \
	  dot -Tsvg doc/callgraph.dot -o doc/callgraph.svg; \
	  dot -Tsvg doc/lockorder.dot -o doc/lockorder.svg; \
	  echo "rendered doc/callgraph.svg and doc/lockorder.svg"; \
	else echo "dot not installed; wrote .dot files only"; fi

# The runtime lock-order witness alone (also runs as part of `dune
# runtest`): observed acquisition-order edges must be contained in the
# static R7 lock-order graph.
witness:
	dune exec bin/rrq_witness.exe

# The simulation tester alone: explored schedules, then a crash-site
# sweep of every correct scenario (each armed crash must fire and recover).
sim:
	dune exec bin/rrq_demo.exe -- check --budget 25
	dune exec bin/rrq_demo.exe -- check --scenario quickstart --sites
	dune exec bin/rrq_demo.exe -- check --scenario quickstart-large --sites
	dune exec bin/rrq_demo.exe -- check --scenario ha --sites
	dune exec bin/rrq_demo.exe -- check --scenario sharded --sites
	dune exec bin/rrq_demo.exe -- check --scenario sharded-ha --sites
	dune exec bin/rrq_demo.exe -- check --scenario chain --sites

# Virtual-behaviour equivalence with another revision (not part of `dune
# runtest`): `make sim`'s commands, 200 schedules per correct scenario and
# bench/load's virtual lines, run on both trees and diffed. See doc/CI.md.
equiv:
	@test -n "$(REF)" || { echo "usage: make equiv REF=<rev>" >&2; exit 2; }
	sh tools/equiv.sh $(REF)

# The failover campaign alone (also runs as part of `dune runtest`):
# HA explorer + lag-bug catch + replication crash-site sweep, then the
# B15 failover-latency benchmark at smoke scale.
ha-check:
	dune exec test/test_ha.exe
	dune exec test/test_check.exe -- test ha
	dune exec bench/main.exe -- --smoke --only B15

# The shard campaign alone (also runs as part of `dune runtest`):
# sharded explorer + misroute-bug catch + shard crash-site sweep, then the
# B13 scale-out benchmark at smoke scale.
shard-check:
	dune exec test/test_check.exe -- test sharded
	dune exec bin/rrq_demo.exe -- check --scenario sharded --sites
	dune exec bench/main.exe -- --smoke --only B13

# Observability smoke: a fault-free recorded run, metrics registry dump.
stats:
	dune exec bin/rrq_demo.exe -- stats

# The CI gate: build, lint, full tests, simulation-tester smoke.
check: build lint test sim

bench:
	dune exec bench/main.exe

# The perf-path smoke (also runs as part of `dune runtest`): B1 (queue op
# micro-costs, stable against volatile queues), B12 (group commit against
# the one-sync-per-commit ceiling) and B13 (sharded scale-out) at tiny
# iteration counts —
# exercises the measurement harness and group commit's batch counters, does
# not produce meaningful numbers.
bench-smoke:
	dune exec bench/main.exe -- --smoke --only B1 --only B12 --only B13

clean:
	dune clean
