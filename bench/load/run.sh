#!/bin/sh
# Build the request-path benchmark from the sources of this checkout, then
# run it with the given arguments (see README.md next to this file). Run it
# from the root of the checkout: sh bench/load/run.sh --workload single ...
set -e
dune build --root . --cache=disabled --display quiet bench/load/main.exe 1>&2
exec ./_build/default/bench/load/main.exe "$@"
