#!/usr/bin/env bash
# Backend smoke test: run `futil -b <backend>` for every registered
# backend over every textual example, failing on non-zero exit or empty
# output. Used by CI after the unit-test suite.
#
# Usage: scripts/backend_smoke.sh [path/to/futil]
set -u

futil="${1:-build/futil}"
if [ ! -x "$futil" ]; then
    echo "backend_smoke: futil binary not found at '$futil'" >&2
    exit 1
fi

# Backend names are the first token of each listing row.
backends=$("$futil" --list-backends | awk 'NR > 1 { print $1 }')
if [ -z "$backends" ]; then
    echo "backend_smoke: --list-backends reported no backends" >&2
    exit 1
fi

examples=$(ls examples/*.futil 2>/dev/null)
if [ -z "$examples" ]; then
    echo "backend_smoke: no examples/*.futil inputs found" >&2
    exit 1
fi

failures=0
for example in $examples; do
    for backend in $backends; do
        out=$("$futil" -b "$backend" "$example" 2>/tmp/backend_smoke_err)
        status=$?
        if [ $status -ne 0 ]; then
            echo "FAIL $example -b $backend: exit $status" >&2
            cat /tmp/backend_smoke_err >&2
            failures=$((failures + 1))
        elif [ -z "$out" ]; then
            echo "FAIL $example -b $backend: empty output" >&2
            failures=$((failures + 1))
        else
            echo "ok   $example -b $backend ($(printf '%s\n' "$out" | wc -l) lines)"
        fi
    done
done

# The unknown-backend path must be a hard error with a suggestion.
if "$futil" -b nonsense examples/counter.futil > /dev/null 2>&1; then
    echo "FAIL: futil -b nonsense exited zero" >&2
    failures=$((failures + 1))
else
    echo "ok   futil -b nonsense fails hard"
fi

# --threads spreads batch tiles only; alone it is a usage error.
"$futil" --sim --threads 2 examples/counter.futil > /dev/null 2>&1
status=$?
if [ $status -ne 2 ]; then
    echo "FAIL: futil --sim --threads 2 exited $status, want 2" >&2
    failures=$((failures + 1))
else
    echo "ok   futil --threads without --batch/--serve is rejected"
fi

# --threads takes a count from 1 to 1024; anything else is a usage
# error, reported before a thread starts.
for count in 0 -1 1025 100000; do
    "$futil" --batch 2 --threads "$count" examples/counter.futil \
        > /dev/null 2>&1
    status=$?
    if [ $status -ne 2 ]; then
        echo "FAIL: futil --batch 2 --threads $count exited $status," \
             "want 2" >&2
        failures=$((failures + 1))
    else
        echo "ok   futil --threads $count is rejected"
    fi
done

# --batch takes a count from 1 to 65536; anything else is a usage
# error, reported before a stimulus is allocated.
for count in -1 0 abc 65537; do
    "$futil" --batch "$count" examples/counter.futil > /dev/null 2>&1
    status=$?
    if [ $status -ne 2 ]; then
        echo "FAIL: futil --batch $count exited $status, want 2" >&2
        failures=$((failures + 1))
    else
        echo "ok   futil --batch $count is rejected"
    fi
done

# The tile width is a constant: --lane-tile is an unknown option.
"$futil" --lane-tile 4 --batch 2 examples/counter.futil > /dev/null 2>&1
status=$?
if [ $status -ne 2 ]; then
    echo "FAIL: futil --lane-tile 4 exited $status, want 2" >&2
    failures=$((failures + 1))
else
    echo "ok   futil --lane-tile is an unknown option"
fi

if [ $failures -ne 0 ]; then
    echo "backend_smoke: $failures failure(s)" >&2
    exit 1
fi
echo "backend_smoke: all backends emitted non-empty output"
