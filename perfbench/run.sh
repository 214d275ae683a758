#!/bin/sh
# Build the benchmark and the program it measures from this checkout's
# sources, then run it; every argument goes to the load generator (pb.exe).
#
#   sh perfbench/run.sh --workload mesh-explore --seed 1 --seconds 12 --trace 0
#   sh perfbench/run.sh --self-test
#
# Run from the repository root.  Build output goes to .bench_build/ and to
# stderr, so pb.exe's JSON result stays the last line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a pmtbr checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  perfbench/pb.exe perfbench/pb_daemon.exe 1>&2
exec .bench_build/default/perfbench/pb.exe "$@"
