#!/usr/bin/env bash
# Same-program check: does the working tree print exactly what <base-rev>
# prints? A change that claims "no output byte moves" runs this once
# against its parent and quotes the verdict line.
#
# Usage: scripts/same_program.sh <base-rev>
#
# It builds <base-rev> in a temporary `git worktree` with its own target
# directory, and the working tree in `target/`. Then, on both sides, at
# STELLAR_THREADS=1 and 8, in a fresh directory each, it runs
#   reproduce all --quick --json --check --trace
#   reproduce all --quick
#   reproduce --list
# and `cmp`s every stdout and every TRACE_*.json pairwise. It also
# compares the `check:` line of the checked run, each run's exit status,
# and the suite's event total from one `reproduce all --quick --json
# --perf` run per side (`total.events` in its BENCH_reproduce.json). It
# prints one verdict line, "same_program: same as <base-rev> ..." (exit
# 0) or "same_program: DIFFERENT from <base-rev>: ..." (exit 1).
#
# Temporary files go under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/same_program.sh <base-rev>}"
base_sha="$(git rev-parse --verify "$base^{commit}")"
work="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$work/tree" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/tree" "$base_sha"
CARGO_TARGET_DIR="$work/target" cargo build --quiet --release --offline --workspace \
    --manifest-path "$work/tree/Cargo.toml"
cargo build --quiet --release --offline --workspace

# Run every command of one side into $work/<side>/: `run_side SIDE BIN`.
# Each run's exit status is kept next to its stdout.
run_side() {
    local side="$1" bin="$2" t dir status
    for t in 1 8; do
        dir="$work/$side/t$t"
        mkdir -p "$dir/trace"
        status=0
        (cd "$dir/trace" && STELLAR_THREADS=$t "$bin" all --quick --json --check --trace \
            >"$dir/json.out" 2>"$dir/json.err") || status=$?
        echo "$status" >"$dir/json.status"
        grep '^check:' "$dir/json.err" >"$dir/check.line" || true
        status=0
        STELLAR_THREADS=$t "$bin" all --quick >"$dir/table.out" 2>/dev/null || status=$?
        echo "$status" >"$dir/table.status"
        status=0
        STELLAR_THREADS=$t "$bin" --list >"$dir/list.out" 2>/dev/null || status=$?
        echo "$status" >"$dir/list.status"
    done
    mkdir -p "$work/$side/perf"
    (cd "$work/$side/perf" && "$bin" all --quick --json --perf >/dev/null 2>&1) || true
    python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["total"]["events"])' \
        "$work/$side/perf/BENCH_reproduce.json" >"$work/$side/events" 2>/dev/null || true
}
run_side base "$work/target/release/reproduce"
run_side head "$PWD/target/release/reproduce"

diffs=()
compared=0
same_file() {
    compared=$((compared + 1))
    cmp -s "$work/base/$1" "$work/head/$1" || diffs+=("$1")
}
traces=0
for t in 1 8; do
    for f in json.out json.status check.line table.out table.status list.out list.status; do
        same_file "t$t/$f"
    done
    names="$( (cd "$work/base/t$t/trace" && ls) ; (cd "$work/head/t$t/trace" && ls) )"
    for f in $(sort -u <<<"$names"); do
        same_file "t$t/trace/$f"
        traces=$((traces + 1))
    done
done
same_file events

check="$(sed 's/^check: //' "$work/head/t8/check.line")"
events="$(cat "$work/head/events")"
if [ "${#diffs[@]}" -eq 0 ] && [ -s "$work/head/events" ]; then
    echo "same_program: same as $base ($compared files cmp-identical at 1 and 8 workers," \
        "$traces traces; check: ${check:-none}; suite events $events)"
else
    echo "same_program: DIFFERENT from $base: ${diffs[*]:-no event total}"
    exit 1
fi
