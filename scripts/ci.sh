#!/usr/bin/env bash
# Tier-1 gate for the stellar workspace. Every command runs --offline:
# the workspace has zero external dependencies by policy (see DESIGN.md,
# "Determinism & zero-dependency policy"), so a network fetch during CI
# is itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Test, bench and example code is linted too, so a helper left dead by
# a deleted test fails here.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Intra-doc links must resolve: a deleted or renamed item fails here,
# not as a dead link in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Benchmark harness: benchmark/ is its own package that builds against
# these crates by path, so an API break of `Fabric`, of the fabric
# constructors or of the `*_with` workload drivers must fail here, not
# first in a benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The per-connection scaling probe (DESIGN.md §14, "Hot and cold
# layout"): its smallest point of each sweep, so the example keeps
# building and running. The full sweep is a manual measurement.
cargo run -q --release --offline -p stellar-bench --example conn_scaling -- --smallest

# Run `reproduce` (built above) with the given arguments, passing its
# stdout through, and fail if its peak RSS exceeds a ceiling in MB. The
# box has no /usr/bin/time, so perl forks the run and reads the child's
# high-water mark with getrusage. A child's reading starts at its
# parent's RSS when it forked or execed, so perl forks before it loads
# anything: the floor is about 2 MB (a python3 parent's is about 14 MB,
# above the smallest run gated here). Usage: run_capped LABEL
# CEILING_MB ARGS...
run_capped() {
    perl - "$@" <<'PL'
my ($label, $ceiling, @args) = @ARGV;
my $pid = fork() // die "fork: $!";
if (!$pid) {
    exec("target/release/reproduce", @args) or die "exec: $!";
}
waitpid($pid, 0);
exit(($? >> 8) || 1) if $?;
require "syscall.ph";
my $usage = "\0" x 144;  # struct rusage: 18 longs on 64-bit Linux
syscall(&SYS_getrusage, -1, $usage) == 0 or die "getrusage: $!";  # RUSAGE_CHILDREN
my $mb = (unpack "q18", $usage)[4] / 1024;  # ru_maxrss, KB
my $ok = $mb <= $ceiling;
printf STDERR "memory gate: %s peak RSS %.1f MB (ceiling %g MB) %s\n",
    $label, $mb, $ceiling, $ok ? "ok" : "REGRESSION";
exit($ok ? 0 : 1);
PL
}

# Fail unless stdout captured from `reproduce` matches a recorded golden
# file byte for byte. Usage: match_golden LABEL GOLDEN_FILE OUTPUT
match_golden() {
    if [ "$3" != "$(cat "$2")" ]; then
        echo "$1 gate: reproduce output differs from $2" >&2
        diff "$2" <(printf '%s\n' "$3") >&2 || true
        exit 1
    fi
}

# Queue gate, part 1 (DESIGN.md §13): the timing-wheel event queue must
# stay observably identical to the binary-heap reference. The workspace
# tests above ran the differential suite (wheel vs heap in lockstep).
# Here: the mutation drill (a sabotaged wheel must *diverge*, proving the
# differential suite still has teeth), and the golden corpus replayed
# with `EventQueue` aliased back to the reference heap: every run the
# gate table in crates/bench/tests/conformance.rs (`GATES`) lists. An
# empty filter match would pass, so at least one test must run.
cargo test -q --offline -p stellar-sim --features queue-drill --test queue_drill
ref_log="$(cargo test -q --offline -p stellar-bench --features stellar-sim/reference-queue \
    --test conformance matches_golden 2>&1)" || { printf '%s\n' "$ref_log" >&2; exit 1; }
printf '%s\n' "$ref_log"
grep -Eq '^running [1-9][0-9]* tests?$' <<<"$ref_log" ||
    { echo "reference-queue gate: the filter matches_golden selected no test" >&2; exit 1; }

# Suite gate: the whole quick suite runs on 8 workers under the
# stellar-check invariant engine (`--check`: any violation prints a
# sim-time-stamped report and exits 1), then `--perf` re-runs it
# unchecked on one worker and exits 1 if any stdout byte differs. That
# one comparison is the determinism gate (wall clock or unseeded
# randomness would diverge), the thread-count gate (DESIGN.md §5) and
# the check gate (checks may observe, never perturb). It runs in a
# scratch directory so the committed BENCH_reproduce.json stays as is.
# The `scale` and `recovery` lines of its stdout must match their golden
# files: they are the CI-gated rows of the conformance test's gate
# table, too slow for that debug test.
suite_dir="$(mktemp -d)"
trap 'rm -rf "$suite_dir"' EXIT
(cd "$suite_dir" && STELLAR_THREADS=8 "$OLDPWD"/target/release/reproduce \
    all --quick --json --check --perf >suite.json)
for exp in scale recovery; do
    match_golden "suite $exp" "crates/bench/tests/golden/$exp.json" \
        "$(grep "^{\"experiment\":\"$exp\"," "$suite_dir/suite.json")"
done

# Memory gates: the two flow-level experiments on one worker, each in a
# fresh process, since peak RSS is a per-process high-water mark. With
# bounded message state (DESIGN.md §11), per-connection state sized to
# use (§14) and per-link state allocated as a run touches it (§10),
# `scale` peaks at 31.3 MB and `recovery` at 14.6 MB, measured on a
# 2-vCPU x86-64 Linux host (673 and 818 MB with every message live, 254
# and 122 MB with full-size per-connection tables, 41.9 and 15.8 MB with
# eagerly allocated link tables and a 512-byte path selector). Each
# ceiling is 1.5x its measured peak, rounded up to a whole MB. Both
# text tables must match their golden files, as the suite's JSON lines
# did above.
scale_out="$(STELLAR_THREADS=1 run_capped "scale --quick" 47 scale --quick)"
match_golden scale crates/bench/tests/golden/scale.txt "$scale_out"
rec_out="$(STELLAR_THREADS=1 run_capped "recovery --quick --check" 22 recovery --quick --check)"
match_golden recovery crates/bench/tests/golden/recovery.txt "$rec_out"
# The packet-level fig9 sweep posts 1 MiB per flow per period, open loop,
# so lagging flows build a backlog. Messages are cut into packets as they
# are sent (DESIGN.md §14), so a backlog costs its messages, not one
# queue entry per packet: fig9 peaks near 3.5 MB (6.5 MB with the
# per-packet queue). Its bytes are pinned by the conformance test.
STELLAR_THREADS=1 run_capped "fig9 --quick" 5.5 fig9 --quick --json >/dev/null

# Trace gate on incomplete messages: chaos faults leave messages
# unfinished on dead connections, which fig11 (the traced golden file)
# never does. `--perf --trace` byte-compares the 8-worker TRACE_chaos.json
# with a 1-worker re-run. Its own scratch directory, so the suite's
# BENCH_reproduce.json read below stays the suite's.
chaos_dir="$(mktemp -d)"
trap 'rm -rf "$suite_dir" "$chaos_dir"' EXIT
(cd "$chaos_dir" && STELLAR_THREADS=8 "$OLDPWD"/target/release/reproduce \
    chaos --quick --trace --perf >/dev/null)

# Queue gate, part 2, read from the suite's report:
# - perf floor: event throughput on the packet-level poles (fig9, fig16)
#   must not collapse back toward the binary-heap era. Both sides are
#   single-worker rates: `events / baseline_wall_ms` from the 1-worker
#   re-run (an 8-worker job's clock includes time-sliced waiting) against
#   the committed single-worker report. The floor is half that rate:
#   shared-CI clocks are noisy (±30% observed), but the wheel's margin
#   over the heap is >2.5x.
# - depth ceiling (DESIGN.md §13): one RTO timer per connection. fig16
#   peaked at 201,528 pending events with per-packet timers, 12,122 with
#   them cancelled on the ACK, and 6,158 with one timer per connection.
python3 - BENCH_reproduce.json "$suite_dir/BENCH_reproduce.json" <<'PY'
import json, sys
base = {s["name"]: s for s in json.load(open(sys.argv[1]))["scenarios"]}
fresh = {s["name"]: s for s in json.load(open(sys.argv[2]))["scenarios"]}
failed = False
for name in ("fig9", "fig16"):
    b = base[name]["events_per_sec"]
    f = fresh[name]["events"] / (fresh[name]["baseline_wall_ms"] / 1e3)
    floor = 0.5 * b
    status = "ok" if f >= floor else "REGRESSION"
    print(f"queue perf gate: {name} {f:,.0f} ev/s on 1 worker vs archived {b:,.0f} "
          f"(floor {floor:,.0f}) {status}")
    failed |= f < floor
depth, ceiling = fresh["fig16"]["peak_queue_depth"], 9_000
status = "ok" if depth <= ceiling else "REGRESSION"
print(f"queue depth gate: fig16 peak_queue_depth {depth:,} (ceiling {ceiling:,}) {status}")
failed |= depth > ceiling
sys.exit(1 if failed else 0)
PY
echo "this build's BENCH_reproduce.json (committed copy unchanged):"
cat "$suite_dir/BENCH_reproduce.json"
