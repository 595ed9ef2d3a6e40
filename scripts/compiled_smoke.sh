#!/usr/bin/env bash
# Compiled-engine smoke test: run `futil --sim --sim-engine=compiled`
# three times over every textual example and check that (1) the cycle
# counts match the levelized engine, (2) the second run services every
# module from the on-disk cache — no new files may appear in the cache
# directory, proving the content-addressed digest is stable and the JIT
# is skipped — (3) a third, traced run (`--trace`) keeps the cycle
# counts and adds no files either: observers read the same module — (4)
# `--batch 64` at the default thread count prints the cycles
# `--threads 1` prints and reports `nproc` threads, and (5) concurrent
# cold builds of one module all succeed: 8 processes per round, 10
# rounds, each round on a fresh cache and pinned to one CPU.
#
# Skips (exit 0) when no host C++ compiler is available, since the
# compiled engine is an optional acceleration, not a requirement.
#
# Usage: scripts/compiled_smoke.sh [path/to/futil] [cache-dir]
set -u

futil="${1:-build/futil}"
cache="${2:-$(mktemp -d /tmp/calyx-cppsim-smoke.XXXXXX)}"
if [ ! -x "$futil" ]; then
    echo "compiled_smoke: futil binary not found at '$futil'" >&2
    exit 1
fi

# Graceful skip without a toolchain (mirrors
# sim::compiledEngineUnavailableReason()).
cxx="${CXX:-}"
if [ -z "$cxx" ]; then
    for c in c++ g++ clang++; do
        if command -v "$c" > /dev/null 2>&1; then
            cxx="$c"
            break
        fi
    done
fi
if [ -z "$cxx" ]; then
    echo "compiled_smoke: no host C++ compiler; skipping"
    exit 0
fi

examples=$(ls examples/*.futil 2>/dev/null)
if [ -z "$examples" ]; then
    echo "compiled_smoke: no examples/*.futil inputs found" >&2
    exit 1
fi

export CALYX_CPPSIM_CACHE="$cache"
tmp="${TMPDIR:-/tmp}"
errlog=$(mktemp "$tmp/compiled_smoke_err.XXXXXX")
failures=0

run_all() {
    # Prints "example cycles" per line; empty cycle field on failure.
    # Extra arguments are passed to every futil run.
    for example in $examples; do
        cycles=$("$futil" --sim --sim-engine=compiled "$@" "$example" \
                     2>"$errlog" | awk '{ print $2 }')
        if [ -z "$cycles" ]; then
            echo "FAIL $example --sim-engine=compiled" >&2
            cat "$errlog" >&2
            failures=$((failures + 1))
        fi
        echo "$example $cycles"
    done
}

# First pass: compile-and-run, comparing against the levelized engine.
first=$(run_all)
while read -r example cycles; do
    [ -z "$cycles" ] && continue
    ref=$("$futil" --sim --sim-engine=levelized "$example" \
              2>/dev/null | awk '{ print $2 }')
    if [ "$cycles" != "$ref" ]; then
        echo "FAIL $example: compiled=$cycles levelized=$ref" >&2
        failures=$((failures + 1))
    else
        echo "ok   $example ($cycles cycles)"
    fi
done <<EOF
$first
EOF

# Second pass: every module must come from cache. A cache hit adds no
# files (no new sources, objects, or temporaries).
before=$(ls "$cache" | wc -l)
second=$(run_all)
after=$(ls "$cache" | wc -l)
if [ "$first" != "$second" ]; then
    echo "FAIL: second (cached) run disagrees with the first" >&2
    failures=$((failures + 1))
fi
if [ "$after" -ne "$before" ]; then
    echo "FAIL: cached rerun changed the cache dir ($before -> $after files)" >&2
    failures=$((failures + 1))
else
    echo "ok   cached rerun added no files ($after in $cache)"
fi

# Third pass: traced. The trace must not need a module of its own.
trace=$(mktemp "$tmp/compiled_smoke_trace.XXXXXX")
third=$(run_all --trace "$trace")
traced=$(ls "$cache" | wc -l)
rm -f "$trace"
if [ "$first" != "$third" ]; then
    echo "FAIL: traced run disagrees with the first" >&2
    failures=$((failures + 1))
fi
if [ "$traced" -ne "$after" ]; then
    echo "FAIL: traced run changed the cache dir ($after -> $traced files)" >&2
    failures=$((failures + 1))
else
    echo "ok   traced run added no files ($traced in $cache)"
fi

# Fourth pass: batched. The default spreads tiles over every usable CPU
# (or runs a short batch on one); either way every lane retires as on
# one thread.
usable=$(nproc)
for example in $examples; do
    spread=$("$futil" --batch 64 "$example" 2>"$errlog")
    serial=$("$futil" --batch 64 --threads 1 "$example" 2>>"$errlog")
    cycles=$(echo "$spread" | sed -n 's/.*cycles: \([0-9.]*\),.*/\1/p')
    ref=$(echo "$serial" | sed -n 's/.*cycles: \([0-9.]*\),.*/\1/p')
    threads=$(echo "$spread" | sed -n 's/.*, \([0-9]*\) threads\{0,1\},.*/\1/p')
    if [ -z "$cycles" ] || [ "$cycles" != "$ref" ] ||
           [ "$threads" != "$usable" ]; then
        echo "FAIL $example --batch 64: cycles $cycles (1 thread: $ref)," \
             "threads $threads (nproc: $usable)" >&2
        cat "$errlog" >&2
        failures=$((failures + 1))
    else
        echo "ok   $example --batch 64 on $threads threads ($cycles cycles)"
    fi
done

# Fifth pass: concurrent cold builds of one digest. Each process
# builds from files of its own and publishes by rename, so none may
# read another's partly written source or object. Pinning every
# process of a round to one CPU (taskset, where present) interleaves
# them, and the module is small enough to build as one translation
# unit whatever the host.
pin=()
if command -v taskset > /dev/null 2>&1; then
    pin=(taskset -c 0)
fi
raced=0
for round in $(seq 1 10); do
    rcache=$(mktemp -d "$tmp/compiled_smoke_race.XXXXXX")
    pids=()
    for j in $(seq 1 8); do
        CALYX_CPPSIM_CACHE="$rcache" ${pin[@]+"${pin[@]}"} "$futil" -p all \
            --sim --sim-engine=compiled examples/counter.futil \
            > /dev/null 2> "$rcache.err$j" &
        pids+=($!)
    done
    for j in $(seq 1 8); do
        if ! wait "${pids[$((j - 1))]}"; then
            echo "FAIL concurrent cold build, round $round, process $j" >&2
            cat "$rcache.err$j" >&2
            raced=$((raced + 1))
        fi
    done
    rm -rf "$rcache" "$rcache".err*
done
if [ $raced -ne 0 ]; then
    failures=$((failures + raced))
else
    echo "ok   80 concurrent cold builds (8 per round, 10 rounds) succeeded"
fi
rm -f "$errlog"

if [ $failures -ne 0 ]; then
    echo "compiled_smoke: $failures failure(s)" >&2
    exit 1
fi
echo "compiled_smoke: all examples ran compiled, cached, traced and" \
    "batched; concurrent cold builds succeeded"
