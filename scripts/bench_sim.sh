#!/usr/bin/env bash
# Simulation-engine benchmark: time every registered evaluation engine
# (jacobi, levelized, compiled — the driver reads the registry, so a new
# engine shows up automatically) on the fig7 (systolic) and fig8
# (PolyBench) workloads and write BENCH_sim.json (cycles/sec per engine
# per workload, plus batched stimuli/sec rows at batch 1/64/4096 per
# engine and thread count — sim/batch.h lane planes). The driver itself
# verifies that all engines produce identical cycle counts and
# architectural state, and skips the compiled engine when the host has
# no C++ toolchain. Under --check the batched rows are gated too: on
# gemm, compiled batch-1 must be >= 0.8x the scalar compiled stimuli/sec
# and batch-4096 >= batch-1, and on multi-core hosts levelized batch-64
# with all threads >= 2x single-thread on systolic_8x8.
#
# Usage: scripts/bench_sim.sh [path/to/bench_sim_engines] [extra flags]
#   e.g. scripts/bench_sim.sh build/bench_sim_engines --small --check
#
# CI runs the --small --check configuration: small workloads, hard
# failure if the compiled engine is slower than levelized on any of
# them. Set CALYX_CPPSIM_CACHE to persist the compiled engine's JIT
# cache across runs (CI restores it between jobs).
set -u

bench="${1:-build/bench_sim_engines}"
shift 2>/dev/null || true
if [ ! -x "$bench" ]; then
    echo "bench_sim: bench binary not found at '$bench'" >&2
    exit 1
fi

# A caller-supplied --out wins (the driver takes the last --out given);
# track it so the output check validates the right file.
out="BENCH_sim.json"
prev=""
for arg in "$@"; do
    if [ "$prev" = "--out" ]; then
        out="$arg"
    fi
    prev="$arg"
done

"$bench" --out "$out" "$@"
status=$?
if [ $status -ne 0 ]; then
    echo "bench_sim: driver failed (exit $status)" >&2
    exit $status
fi

if [ ! -s "$out" ]; then
    echo "bench_sim: $out missing or empty" >&2
    exit 1
fi
echo "bench_sim: wrote $out"
