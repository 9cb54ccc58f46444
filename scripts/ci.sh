#!/usr/bin/env bash
# Tier-1 gate for the stellar workspace. Every command runs --offline:
# the workspace has zero external dependencies by policy (see DESIGN.md,
# "Determinism & zero-dependency policy"), so a network fetch during CI
# is itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace -- -D warnings

# Queue gate, part 1 (DESIGN.md §13): the timing-wheel event queue must
# stay observably identical to the binary-heap reference. Three layers:
# the differential property suite (wheel vs heap in lockstep), the
# mutation drill (a wheel sabotaged with a wrong-tier cascade, a dropped
# overflow migration, or a LIFO slot drain must *diverge* — proving the
# differential suite still has teeth), and the golden corpus replayed
# with `EventQueue` aliased back to the reference heap, so both queue
# implementations pin the exact same rendered bytes. (The default-build
# golden runs below cover the wheel side.)
cargo test -q --offline -p stellar-sim --test queue_diff
cargo test -q --offline -p stellar-sim --features queue-drill --test queue_drill
cargo test -q --offline -p stellar-bench --features stellar-sim/reference-queue --test golden

# Chaos suite: multi-fault plans must keep their graceful-degradation
# verdicts (and the unhardened counterfactual must keep failing).
cargo run --release --offline -p stellar-bench --bin reproduce -- chaos --quick >/dev/null

# Hybrid-fabric scale gate: the 16k-rank 3D-parallel job and the
# HPN-scale permutation must complete, and — like every experiment —
# the table must be byte-identical on one worker and eight. (The
# fig9/fig16 hybrid-vs-packet tolerance asserts run in the workspace
# test suite above; the experiment's events/sec lands in
# BENCH_reproduce.json via the --perf pass below, which covers the
# whole registry.)
scale_one="$(STELLAR_THREADS=1 cargo run --release --offline -p stellar-bench --bin reproduce -- scale --quick --json)"
scale_many="$(STELLAR_THREADS=8 cargo run --release --offline -p stellar-bench --bin reproduce -- scale --quick --json)"
if [ "$scale_one" != "$scale_many" ]; then
    echo "scale gate: reproduce scale --json differs between 1 and 8 workers" >&2
    diff <(printf '%s\n' "$scale_one") <(printf '%s\n' "$scale_many") >&2 || true
    exit 1
fi
# ...and must match the recorded table byte-for-byte. These flow-level
# runs are too slow for the debug golden test, so the comparison lives
# here (see the golden-corpus gate below for the rest of the corpus).
if [ "$scale_one" != "$(cat crates/bench/tests/golden/scale.json)" ]; then
    echo "scale gate: reproduce scale --json differs from crates/bench/tests/golden/scale.json" >&2
    diff crates/bench/tests/golden/scale.json <(printf '%s\n' "$scale_one") >&2 || true
    exit 1
fi

# Determinism gate: the same figure must serialize byte-identically on
# consecutive runs — any divergence means wall-clock or unseeded
# randomness leaked into an experiment.
a="$(cargo run --release --offline -p stellar-bench --bin reproduce -- fig11 --quick --json)"
b="$(cargo run --release --offline -p stellar-bench --bin reproduce -- fig11 --quick --json)"
if [ "$a" != "$b" ]; then
    echo "determinism gate: reproduce fig11 --json differs between runs" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
    exit 1
fi

# Thread-count gate: the full experiment suite must emit byte-identical
# JSON whether it runs on one worker or eight — parallelism may change
# only wall-clock, never results (see DESIGN.md, "Determinism under
# parallelism").
one="$(STELLAR_THREADS=1 cargo run --release --offline -p stellar-bench --bin reproduce -- all --quick --json)"
many="$(STELLAR_THREADS=8 cargo run --release --offline -p stellar-bench --bin reproduce -- all --quick --json)"
if [ "$one" != "$many" ]; then
    echo "thread-count gate: reproduce all --json differs between 1 and 8 workers" >&2
    diff <(printf '%s\n' "$one") <(printf '%s\n' "$many") >&2 || true
    exit 1
fi

# Trace gate: --trace must produce a well-formed TRACE_<exp>.json whose
# bytes are identical between one worker and eight — the telemetry fold
# is job-ordered, so the flight-recorder window, span histograms and
# counters may not depend on scheduling (see DESIGN.md §6).
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && STELLAR_THREADS=1 "$OLDPWD"/target/release/reproduce fig11 --quick --trace >/dev/null)
mv "$trace_dir/TRACE_fig11.json" "$trace_dir/TRACE_fig11.one.json"
(cd "$trace_dir" && STELLAR_THREADS=8 "$OLDPWD"/target/release/reproduce fig11 --quick --trace >/dev/null)
if ! cmp -s "$trace_dir/TRACE_fig11.one.json" "$trace_dir/TRACE_fig11.json"; then
    echo "trace gate: TRACE_fig11.json differs between 1 and 8 workers" >&2
    diff "$trace_dir/TRACE_fig11.one.json" "$trace_dir/TRACE_fig11.json" >&2 || true
    rm -rf "$trace_dir"
    exit 1
fi
rm -rf "$trace_dir"

# Strict-check gate: run representative experiments under the
# stellar-check invariant engine (`--check` opens a capture scope, so
# every quiesce point in every layer evaluates its cross-layer
# invariants). Any violation prints a sim-time-stamped report on stderr
# and exits nonzero. stdout must stay byte-identical to an unchecked
# run: the checks may observe, never perturb.
checked="$(cargo run --release --offline -p stellar-bench --bin reproduce -- fig11 --quick --json --check)"
if [ "$a" != "$checked" ]; then
    echo "check gate: reproduce fig11 --json output changed under --check" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$checked") >&2 || true
    exit 1
fi
cargo run --release --offline -p stellar-bench --bin reproduce -- chaos --quick --json --check >/dev/null

# Recovery gate: the compound-chaos recovery suite (connection
# re-establishment, plane failover, vStellar churn, 4k-rank fleet) must
# pass every invariant under --check — in particular
# transport.recovery_exactly_once and net.blacklist_readmit — and must
# be byte-identical on one worker and eight. (Its events/sec lands in
# BENCH_reproduce.json via the --perf pass below, like every experiment.)
rec_one="$(STELLAR_THREADS=1 cargo run --release --offline -p stellar-bench --bin reproduce -- recovery --quick --json --check)"
rec_many="$(STELLAR_THREADS=8 cargo run --release --offline -p stellar-bench --bin reproduce -- recovery --quick --json)"
if [ "$rec_one" != "$rec_many" ]; then
    echo "recovery gate: reproduce recovery --json differs between 1 and 8 workers" >&2
    diff <(printf '%s\n' "$rec_one") <(printf '%s\n' "$rec_many") >&2 || true
    exit 1
fi
if [ "$rec_one" != "$(cat crates/bench/tests/golden/recovery.json)" ]; then
    echo "recovery gate: reproduce recovery --json differs from crates/bench/tests/golden/recovery.json" >&2
    diff crates/bench/tests/golden/recovery.json <(printf '%s\n' "$rec_one") >&2 || true
    exit 1
fi

# Cluster gate: the multi-tenant scheduling table (policy pair,
# background contention, churn storm, admission wave, hybrid scale)
# must pass every invariant under --check — in particular the
# cluster.slot_capacity / cluster.admitted_capacity /
# cluster.departed_quiesced ledger checks at every scheduler quiesce
# point — and the placement + SLO report must be byte-identical on one
# worker and eight.
clu_one="$(STELLAR_THREADS=1 cargo run --release --offline -p stellar-bench --bin reproduce -- cluster --quick --json --check)"
clu_many="$(STELLAR_THREADS=8 cargo run --release --offline -p stellar-bench --bin reproduce -- cluster --quick --json)"
if [ "$clu_one" != "$clu_many" ]; then
    echo "cluster gate: reproduce cluster --json differs between 1 and 8 workers" >&2
    diff <(printf '%s\n' "$clu_one") <(printf '%s\n' "$clu_many") >&2 || true
    exit 1
fi

# Golden-corpus gate: the recorded reproduce outputs under
# crates/bench/tests/golden/ must match fresh runs byte-for-byte at one
# worker and at eight (the golden tests run both internally).
STELLAR_THREADS=1 cargo test -q --offline -p stellar-bench --test golden
STELLAR_THREADS=8 cargo test -q --offline -p stellar-bench --test golden

# Perf harness: archive the wall-clock/event report for this build. The
# run doubles as a third determinism pass (--perf re-runs everything on
# one worker and fails if any output byte differs, trace documents
# included). The committed report is saved first so the queue gate below
# can compare against it.
perf_baseline="$(mktemp)"
cp BENCH_reproduce.json "$perf_baseline"
cargo run --release --offline -p stellar-bench --bin reproduce -- all --quick --perf >/dev/null

# Queue gate, part 2 — perf regression: scheduled-event throughput on
# the two packet-level poles (fig9 permutation, fig16 LLM training) must
# not collapse back toward the binary-heap era. The floor is half the
# committed report's events/sec: shared-CI wall clocks are noisy (±30%
# observed), but the wheel's margin over the heap is >2.5x, so a genuine
# queue regression still trips this while timer jitter does not.
python3 - "$perf_baseline" BENCH_reproduce.json <<'PY'
import json, sys
base = {s["name"]: s for s in json.load(open(sys.argv[1]))["scenarios"]}
fresh = {s["name"]: s for s in json.load(open(sys.argv[2]))["scenarios"]}
failed = False
for name in ("fig9", "fig16"):
    b, f = base[name]["events_per_sec"], fresh[name]["events_per_sec"]
    floor = 0.5 * b
    status = "ok" if f >= floor else "REGRESSION"
    print(f"queue perf gate: {name} {f:,.0f} ev/s vs archived {b:,.0f} (floor {floor:,.0f}) {status}")
    failed |= f < floor
sys.exit(1 if failed else 0)
PY
rm -f "$perf_baseline"

# Queue gate, part 3 — cancellation (DESIGN.md §13): ACKs cancel their
# packet's RTO timer, so dead timers no longer pile up in the queue.
# fig16 peaked at 201,528 pending events when every timer waited out its
# 250 us; with cancellation it peaks near 12k. A change that stops
# cancelling blows through this ceiling.
python3 - BENCH_reproduce.json <<'PY'
import json, sys
fig16 = {s["name"]: s for s in json.load(open(sys.argv[1]))["scenarios"]}["fig16"]
depth, ceiling = fig16["peak_queue_depth"], 20_000
status = "ok" if depth <= ceiling else "REGRESSION"
print(f"queue cancel gate: fig16 peak_queue_depth {depth:,} (ceiling {ceiling:,}) {status}")
sys.exit(0 if depth <= ceiling else 1)
PY
echo "archived BENCH_reproduce.json:"
cat BENCH_reproduce.json
