#!/bin/sh
# Virtual-behaviour equivalence against another revision.
#
#   sh tools/equiv.sh REF        (or: make equiv REF=<rev>)
#
# Run from the root of the checkout. Unpacks `git archive REF` into a
# temporary directory, builds it and this working tree, and runs on each:
#   - `make sim`'s commands (explorer smoke, crash-site sweep per scenario);
#   - 200 explored schedules at --seed 7 on each correct scenario;
#   - bench/load at --seed 1, one rep, --trace 0 and --trace 1, per
#     workload, keeping only virtual lines (host_us_per_req, setup_s,
#     peak_heap_mb, obs.* and host.* and the JSON summary are dropped).
# Exit status: 0 if the two outputs are identical, 1 on any difference
# (printed as a unified diff), 2 on a usage error.
set -e

if [ $# -ne 1 ] || [ -z "$1" ]; then
  echo "usage: sh tools/equiv.sh REF" >&2
  exit 2
fi
ref=$1
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
  echo "equiv: unknown revision $ref" >&2
  exit 2
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/equiv.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

scenarios="quickstart quickstart-large ha sharded sharded-ha chain"
workloads="single ha-sync shard4 read-mostly large-body"

virtual_only() {
  awk '$0 !~ /^\{/ && $1 != "all" &&
       $2 !~ /^(host_us_per_req|setup_s|peak_heap_mb)$/ && $2 !~ /^(obs|host)\./'
}

# Everything one tree prints about its virtual behaviour; a command's
# nonzero exit status is part of the output.
outputs() (
  cd "$1"
  dune build --root . --display quiet bin/rrq_demo.exe bench/load/main.exe 1>&2
  demo=./_build/default/bin/rrq_demo.exe
  load=./_build/default/bench/load/main.exe
  "$demo" check --budget 25 || echo "exit $?"
  for s in $scenarios; do "$demo" check --scenario "$s" --sites || echo "exit $?"; done
  for s in $scenarios; do
    "$demo" check --scenario "$s" --budget 200 --seed 7 || echo "exit $?"
  done
  for w in $workloads; do
    for tr in 0 1; do
      echo "load $w --trace $tr"
      { "$load" --workload "$w" --trace "$tr" --seed 1 --reps 1 || echo "exit $?"; } | virtual_only
    done
  done
)

echo "equiv: $ref" >&2
outputs "$tmp/ref" >"$tmp/ref.out"
echo "equiv: working tree" >&2
outputs . >"$tmp/new.out"
if diff -u "$tmp/ref.out" "$tmp/new.out"; then
  echo "equiv: no difference ($(wc -l <"$tmp/new.out") lines)"
else
  echo "equiv: outputs differ from $ref" >&2
  exit 1
fi
