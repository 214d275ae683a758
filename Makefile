.PHONY: all build test check bench bench-adaptive bench-variants bench-dense bench-sweep bench-lyap bench-serve bench-export bench-hier clean

all: build

build:
	dune build @all

test:
	dune runtest

# the full CI gate: build + every suite + determinism re-check
check:
	sh bin/ci.sh

# The bench targets build in the release profile: dune's dev profile
# compiles with -opaque, so nothing is inlined across modules there and
# the kernel ratios would measure the profile.  Each BENCH_*.json records
# the profile it was built in.

# regenerate BENCH_shift.json (fails if the rc-mesh speedup gate regresses)
bench:
	dune exec --profile release bench/shift_bench.exe

# regenerate BENCH_adaptive.json (fails if the incremental adaptive loop
# drops below 3x over the from-scratch baseline, or outputs diverge)
bench-adaptive:
	dune exec --profile release bench/adaptive_bench.exe

# regenerate BENCH_variants.json (fails if the cross-Gramian compressed
# pencil drops below 2x over the dense state-dimension QR, the spectra
# disagree, or any cached variant loses batch/worker determinism)
bench-variants:
	dune exec --profile release bench/variants_bench.exe

# regenerate BENCH_dense.json (fails if the kernel-layer SVD drops below
# 2x over the serial cyclic Jacobi on the 1089-state sample matrix, any
# dense kernel loses bitwise worker-invariance, the round-robin
# singular values drift past 1e-12 relative of the cyclic reference, or
# the symmetric eigensolver differs from, or is under 3x, the
# element-wise kernel it replaced)
bench-dense:
	dune exec --profile release bench/dense_bench.exe

# regenerate BENCH_sweep.json (fails if the sweep engine drops below 3x
# over the per-point fresh-factorisation path on the 1089-state mesh x
# 200-point grid, the sweep loses bitwise worker-invariance, or the
# Hessenberg ROM tier drifts past 1e-12 relative of the dense-LU
# reference)
bench-sweep:
	dune exec --profile release bench/sweep_bench.exe

# regenerate BENCH_lyap.json (fails if low-rank exact TBR drops below 5x
# over the dense Bartels-Stewart baseline on the 1089-state mesh, the
# Hankel values drift past 1e-8 relative of dense, the reduction loses
# bitwise worker-invariance, or more than one symbolic analysis is paid)
bench-lyap:
	dune exec --profile release bench/lyap_bench.exe

# regenerate BENCH_serve.json (fails if a warm repeat query through the
# daemon drops below 10x over the cold path, any incremental job misses
# its tier or re-pays solves/symbolic analyses, or a warm-path ROM is
# not bitwise-identical to the cold-path one)
bench-serve:
	dune exec --profile release bench/serve_bench.exe

# regenerate BENCH_export.json (fails if the one-Gramian passive
# reduction spends more than 0.55x the two-sided tbr-lr shifted-solve
# RHS columns on the 30-port substrate, the synthesized netlist's
# re-parsed sweep drifts past 1e-9 of the in-memory ROM, the rendering
# is not generation-stable, or the streaming-parse operand shrinks
# below 100k elements)
bench-export:
	dune exec --profile release bench/export_bench.exe

# regenerate BENCH_hier.json (fails if flat-vs-hier transfer agreement
# drifts past 1e-6, the over-capacity case misses its factorization
# budget, the recombined ROM is not bitwise worker-invariant, or — on
# hosts with >= 4 real cores — the hierarchical speedup at 4 workers
# drops below 2x; on fewer cores the speedup gate records a documented
# skip)
bench-hier:
	dune exec --profile release bench/hier_bench.exe

clean:
	dune clean
