#!/usr/bin/env bash
# Compile-service benchmark: requests/sec through the content-addressed
# compile cache (src/cache/) on a mutated PolyBench stream, written to
# BENCH_service.json with the host it ran on. The driver itself
# verifies that every cached and incremental artifact is byte-identical
# to a cold compile. Under --check the throughput gates are enforced
# too: warm must beat cold, and by at least 5x.
#
# Usage: scripts/bench_service.sh [path/to/bench_service] [extra flags]
#   e.g. scripts/bench_service.sh build/bench_service --small --check
#
# CI runs the --small --check configuration: two kernels, short
# streams, hard failure on any identity or throughput gate.
set -u

bench="${1:-build/bench_service}"
shift 2>/dev/null || true
if [ ! -x "$bench" ]; then
    echo "bench_service: bench binary not found at '$bench'" >&2
    exit 1
fi

# A caller-supplied --out wins (the driver takes the last --out given);
# track it so the output check validates the right file.
out="BENCH_service.json"
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
    echo "bench_service: driver failed (exit $status)" >&2
    exit $status
fi

if [ ! -s "$out" ]; then
    echo "bench_service: $out missing or empty" >&2
    exit 1
fi
echo "bench_service: wrote $out"
