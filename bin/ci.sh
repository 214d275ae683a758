#!/bin/sh
# CI entry point: build everything, run every suite, and re-check the
# shift-engine determinism contract with backtraces on.  The dev profile
# already treats warnings as errors, so a clean build is part of the gate.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
OCAMLRUNPARAM=b dune runtest

echo "== shift-engine determinism"
OCAMLRUNPARAM=b dune exec test/test_shift_engine.exe -- test determinism

echo "== adaptive-sampling smoke bench"
OCAMLRUNPARAM=b dune exec bench/adaptive_bench.exe -- --smoke

echo "== variant-pipeline smoke bench (cross-Gramian pencil + variant determinism)"
OCAMLRUNPARAM=b dune exec bench/variants_bench.exe -- --smoke

echo "== dense-kernel smoke bench (GEMM/QR bitwise worker-invariance + Jacobi sigma drift)"
OCAMLRUNPARAM=b dune exec bench/dense_bench.exe -- --smoke

echo "== sweep-engine smoke bench (worker-invariance + replay/Hessenberg agreement)"
OCAMLRUNPARAM=b dune exec bench/sweep_bench.exe -- --smoke

echo "== low-rank Lyapunov smoke bench (LR-ADI vs dense agreement + handle reuse)"
OCAMLRUNPARAM=b dune exec bench/lyap_bench.exe -- --smoke

echo "== reduction-service smoke bench (warm/cold gate + tier counters + bitwise identity)"
OCAMLRUNPARAM=b dune exec bench/serve_bench.exe -- --smoke

echo "== realizable-ROM smoke bench (parse throughput + passive col-solve ratio + roundtrip)"
OCAMLRUNPARAM=b dune exec bench/export_bench.exe -- --smoke

echo "== hierarchical-reduction smoke bench (flat-vs-hier agreement + worker invariance)"
OCAMLRUNPARAM=b dune exec bench/hier_bench.exe -- --smoke

echo "== perfbench self-test (release build of the frozen benchmark + failure counting)"
sh perfbench/run.sh --self-test

echo "== real-multicore lane (shift/sweep/hier smoke at 4 workers)"
# each bench asserts its pool really expanded past one domain, or prints
# a documented SKIP on single-core hosts (the correctness gates above
# run either way)
OCAMLRUNPARAM=b dune exec bench/shift_bench.exe -- --smoke --workers 4 --assert-multicore
OCAMLRUNPARAM=b dune exec bench/sweep_bench.exe -- --smoke --workers 4 --assert-multicore
OCAMLRUNPARAM=b dune exec bench/hier_bench.exe -- --smoke --workers 4 --assert-multicore
# the nested-dissection CLI path end to end: budget-driven recursive
# partitioning plus interface compression, asking for 4 workers (the CLI
# caps the count at the host's recommended domain count; the result is
# bitwise-identical for any count, which is what the suites assert)
OCAMLRUNPARAM=b dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 6 \
    --method hier --partition auto --max-part-states 20 --interface-tol 1e-8 \
    --samples 8 --tol 1e-10 --workers 4 --stats

echo "== CLI export roundtrip (tbr-passive reduce --export, file re-parsed and swept)"
EXPORT_NL=".ci_export_$$.sp"
rm -f "$EXPORT_NL"
dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 6 --method tbr-passive \
    --order 8 --export "$EXPORT_NL"
[ -s "$EXPORT_NL" ] || { echo "export file missing or empty" >&2; exit 1; }
# the exported netlist is a valid circuit source in its own right
dune exec bin/pmtbr_cli.exe -- info --spice "$EXPORT_NL"
rm -f "$EXPORT_NL"

echo "== ordering rule (--stats reports the fill rule's pick)"
# a 2-D mesh factors in nested-dissection order, a line keeps RCM
dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 32 --stats \
    | grep -q '^ordering: *nested-dissection ' \
    || { echo "rc-mesh --size 32 should order by nested dissection" >&2; exit 1; }
dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-line --stats | grep -q '^ordering: *rcm ' \
    || { echo "rc-line should order by RCM" >&2; exit 1; }

echo "== LR-ADI accumulator (a factor that reaches the state count is factored once)"
# 20 ports on 20 states: the first flush already holds n columns, so the
# Gramian takes the factor's place and one eigendecomposition factors it
dune exec bin/pmtbr_cli.exe -- reduce --circuit substrate --ports 20 --method tbr-passive \
    --order 10 --stats | grep -q '^gramian columns: .*compressions: 1)$' \
    || { echo "a 20-port, 20-state tbr-passive job must run one eigendecomposition" >&2; exit 1; }

echo "== unsolvable netlists (non-zero exit, an error naming the nodes)"
ISLAND=".ci_island_$$.sp"
NOCAP=".ci_nocap_$$.sp"
ERR=".ci_unsolvable_$$.err"
printf 'R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nC2 2 0 1p\nR3 3 4 1k\nC3 3 4 1p\n.port 1\n' > "$ISLAND"
# node 2 has no capacitor: E is singular, which only the exact-TBR methods invert
printf 'R1 1 0 1k\nC1 1 0 1p\nR2 1 2 1k\nR3 2 3 1k\nC3 3 0 1p\n.port 1\n' > "$NOCAP"
# expect_refusal MESSAGE CLI-ARGS...: the run exits non-zero, prints
# MESSAGE and no uncaught exception
expect_refusal() {
    want="$1"; shift
    if dune exec bin/pmtbr_cli.exe -- "$@" > /dev/null 2> "$ERR"; then
        echo "pmtbr $* must fail" >&2; exit 1
    fi
    grep -qF "$want" "$ERR" || { echo "pmtbr $*: error does not say: $want" >&2; cat "$ERR" >&2; exit 1; }
    if grep -q 'internal error' "$ERR"; then echo "pmtbr $* escaped as an internal error" >&2; exit 1; fi
}
for sub in info hsv sweep adaptive reduce; do
    expect_refusal 'floating nodes (no element path to ground): 3 4' "$sub" --spice "$ISLAND"
done
expect_refusal 'nodes with no capacitive path to ground (E is singular): 2' \
    reduce --method tbr-passive --spice "$NOCAP"
dune exec bin/pmtbr_cli.exe -- reduce --spice "$NOCAP" > /dev/null \
    || { echo "pmtbr must reduce a network whose E is singular" >&2; exit 1; }
# nodes 1 and 2 reach ground through capacitors alone: A is singular, so
# the exact-TBR methods refuse it, hsv skips its exact column, pmtbr reduces
NODC=".ci_nodc_$$.sp"
NODC_MSG='nodes with no resistive or inductive path to ground (A is singular): 1 2'
printf 'C1 1 0 1p\nR1 1 2 1k\nC2 2 0 1p\n.port 1\n' > "$NODC"
for meth in tbr tbr-lr tbr-passive; do
    expect_refusal "$NODC_MSG" reduce --method "$meth" --spice "$NODC"
done
dune exec bin/pmtbr_cli.exe -- hsv --spice "$NODC" > "$ERR" 2>&1 \
    || { echo "hsv must print its estimates without a DC path" >&2; cat "$ERR" >&2; exit 1; }
grep -qF "(exact skipped: $NODC_MSG)" "$ERR" \
    || { echo "hsv must name the nodes without a DC path" >&2; cat "$ERR" >&2; exit 1; }
if grep -q 'internal error' "$ERR"; then echo "hsv escaped as an internal error" >&2; exit 1; fi
dune exec bin/pmtbr_cli.exe -- reduce --spice "$NODC" > /dev/null \
    || { echo "pmtbr must reduce a network whose A is singular" >&2; exit 1; }
# a malformed card is a usage error naming the file and line on every
# subcommand; a port-less netlist on every one that reduces or sweeps
# (info still prints its statistics)
MALFORMED=".ci_malformed_$$.sp"
NOPORT=".ci_noport_$$.sp"
printf 'R1 1\n' > "$MALFORMED"
printf 'R1 1 0 1k\nC1 1 0 1p\n' > "$NOPORT"
for sub in info hsv sweep adaptive reduce; do
    expect_refusal "$MALFORMED: netlist parse error at line 1: wrong number of fields: R1 1" \
        "$sub" --spice "$MALFORMED"
done
for sub in hsv sweep adaptive reduce; do
    expect_refusal 'netlist declares no .port' "$sub" --spice "$NOPORT"
done
expect_refusal 'netlist declares no .port' reduce --method tbr-passive --spice "$NOPORT"

echo "== job options (one validator: refused by name, never an internal error)"
expect_refusal 'samples must be in [1, 100000] (got 0)' reduce --circuit rc-mesh --size 4 --samples 0
expect_refusal 'order must be >= 1 (got 0)' reduce --circuit rc-mesh --size 4 --order 0
expect_refusal 'tol must be finite and > 0 (got nan)' reduce --circuit rc-mesh --size 4 --tol=nan
expect_refusal 'draws' reduce --circuit rc-mesh --size 4 --draws 0
expect_refusal 'batch must be >= 1 (got 0)' adaptive --circuit rc-mesh --size 4 --batch 0
expect_refusal 'order 100 needs 50 multipoint points' \
    reduce --circuit rc-mesh --size 4 --method multipoint --order 100
expect_refusal 'tol does not apply to method prima' \
    reduce --circuit rc-mesh --size 4 --method prima --tol 1e-3
# order and tol together: the smaller of the order and what tol alone picks
dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 6 --method tbr-passive \
    --order 5 --tol 1e-6 > /dev/null \
    || { echo "tbr-passive must take --order with --tol" >&2; exit 1; }
rm -f "$ISLAND" "$NOCAP" "$NODC" "$MALFORMED" "$NOPORT" "$ERR"

echo "== unboxed dense kernels (allocation guards in an optimised build)"
# the dev profile compiles with -opaque, so no call is inlined across
# modules there and test_la skips the Mat.get guard; this release build
# (the one perfbench uses) runs it, next to the guards that the dense
# operations allocate nothing on the minor heap beyond their result
dune build --root . --build-dir .bench_build --profile release test/test_la.exe
OCAMLRUNPARAM=b .bench_build/default/test/test_la.exe test 'eig_sym|alloc'

echo "== reduction-service daemon round trip (pmtbr serve / pmtbr batch)"
SOCK=".ci_serve_$$.sock"
SERVE_PID=""
# a killed CI run must not leave a daemon or a stale socket behind
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -f "$SOCK"
}
trap cleanup EXIT INT TERM
# two job workers: on a host with two or more cores the store's
# hierarchical fan, and its lock order with part lookups on the calling
# domain, run on several domains end to end
dune exec bin/pmtbr_cli.exe -- serve --socket "$SOCK" --workers 2 --job-workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "daemon socket never appeared" >&2; exit 1; }
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --ping
# cold + warm repeats of one job: digests must agree, warm must be faster
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --band 0:2e10 --order 8 --samples 10 --repeat 3 --assert-warm-speedup 2
# re-finish: the first job's network, band and samples at another order
# answers from the samples tier with no solve (and, the cache holding
# the finish's decomposition, no SVD); the repeat must carry its digest
REFINISH_OUT=".ci_refinish_$$.out"
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --band 0:2e10 --order 6 --samples 10 --repeat 2 > "$REFINISH_OUT"
cat "$REFINISH_OUT"
grep '^job 1 ' "$REFINISH_OUT" | grep -q 'tier=samples-hit .*solves=0 ' \
    || { echo "a re-order must be a samples-tier hit with no solves" >&2; exit 1; }
rm -f "$REFINISH_OUT"
# incremental: new band on the same network reuses the prepared handle
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --band 1e8:1e10 --order 8 --samples 10
# fs-pmtbr job: the flat finish on the band's Gauss points (the samples
# tier the pmtbr job above warmed), repeated so the ROM-tier answer must
# carry the first run's digest
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --method fs-pmtbr --band 1e8:1e10 --order 8 --samples 10 --repeat 2
# hierarchical job: partitioned sampling tiers, repeated so the second
# run lands on warm per-subdomain sample caches
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 8 \
    --method hier --partition 2 --band 0:2e10 --order 8 --samples 8 --repeat 2
# the new dissection job fields over the wire: partition auto +
# max-part-states + interface-tol, repeated so the re-run re-finds every
# leaf's sample tier warm
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 8 \
    --method hier --partition auto --max-part-states 20 --interface-tol 1e-8 \
    --band 0:2e10 --order 8 --samples 8 --repeat 2
# a tbr-passive export job: the response body carries the synthesized
# netlist, which must re-parse as a circuit source
DAEMON_NL=".ci_daemon_export_$$.sp"
rm -f "$DAEMON_NL"
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --method tbr-passive --band 0:2e10 --order 8 --export "$DAEMON_NL"
[ -s "$DAEMON_NL" ] || { echo "daemon export body missing or empty" >&2; exit 1; }
dune exec bin/pmtbr_cli.exe -- info --spice "$DAEMON_NL"
rm -f "$DAEMON_NL"
# the daemon serves pmtbr, fs-pmtbr, tbr-passive and hier: any other
# method is refused by name
CLI_ONLY_ERR=".ci_cli_only_$$.err"
if dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --method tbr --band 0:2e10 --order 8 > /dev/null 2> "$CLI_ONLY_ERR"; then
    echo "the daemon must refuse --method tbr" >&2; exit 1
fi
grep -qF 'method tbr is CLI-only' "$CLI_ONLY_ERR" \
    || { echo "batch --method tbr must name tbr as CLI-only" >&2; cat "$CLI_ONLY_ERR" >&2; exit 1; }
rm -f "$CLI_ONLY_ERR"
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --server-stats
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --shutdown
wait "$SERVE_PID"
SERVE_PID=""
if [ -S "$SOCK" ]; then echo "daemon left its socket behind" >&2; exit 1; fi
# with the daemon gone, batch is a usage error naming the socket
expect_refusal 'cannot reach the daemon at' batch --socket "$SOCK" --ping
rm -f "$ERR"

echo "CI OK"
