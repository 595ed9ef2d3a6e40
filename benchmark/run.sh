#!/usr/bin/env bash
# The repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       Builds the compiler and calyx_bench in Release under .bench_build/
#       (about a minute the first time), then measures one workload. The
#       last line of stdout is the result JSON; the full results, with
#       raw samples and the host block, go to .bench_build/results/
#       (or $CALYX_BENCH_RESULTS).
#
#   benchmark/run.sh --compare A B
#       For each workload x end-to-end metric, the medians of two sets
#       of runs (result files or directories of them), their difference,
#       and PASS or FAIL against the metric's bound in BENCHMARK.json.
#
# Everything the benchmark writes stays under .bench_build/: the build,
# the JIT caches, temporary files of the host compiler, and the results.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
    echo "run.sh: the compiler sources are not beside the benchmark" \
         "(no CMakeLists.txt and src/ in $root)" >&2
    exit 2
fi

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
log="$build/build.log"
generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$here" -B "$build" "${generator[@]}" \
            -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
        tail -n 40 "$log" >&2
        exit 1
    fi
fi
if ! cmake --build "$build" --target calyx_bench futil -j "$(nproc)" \
        >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    exit 1
fi

if [[ "${1:-}" == "--compare" ]]; then
    exec "$build/calyx_bench" "$@" --spec "$root/BENCHMARK.json"
fi

# Provenance: the git revision, or a digest of the compiler sources when
# the checkout is not a git repository.
rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
if [[ -z "$rev" ]]; then
    rev="src-$(cd "$root" && find src tools CMakeLists.txt -type f -print0 |
        sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

exec "$build/calyx_bench" "$@" \
    --futil "$build/calyx/futil" \
    --work "$build/work" \
    --results "${CALYX_BENCH_RESULTS:-$build/results}" \
    --rev "$rev"
