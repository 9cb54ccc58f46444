//! Golden-trace conformance corpus: recorded `reproduce --quick --json`
//! and `--trace` outputs for a representative experiment set, compared
//! byte-for-byte against a fresh in-process run.
//!
//! The corpus pins the *rendered bytes*, not just the numbers: any
//! change to an RNG stream, an event schedule, a JSON field order, or a
//! float formatting path shows up as a corpus diff. Regenerate a golden
//! file only for an intentional behavior change, with:
//!
//! ```text
//! cargo run --release --bin reproduce -- <exp> --quick --json \
//!     > crates/bench/tests/golden/<exp>.json
//! cargo run --release --bin reproduce -- fig11 --quick --json --trace
//! mv TRACE_fig11.json crates/bench/tests/golden/
//! ```
//!
//! Each document line is rendered by `stellar_bench::json_line`, the
//! function the binary prints with. Each comparison runs at 1 and 8
//! workers: the corpus is also a thread-count-invariance gate for the
//! exact bytes the binary prints. The analytic experiments (`fig6`,
//! `fig13`, `fig14`, `table1`, `claims`) run in milliseconds and pin
//! every field type a row can carry, `null`s and arrays included.
//! `cluster` pins the multi-tenant scheduler's per-tenant tail
//! latencies, which its app records from the completions it owns.
//!
//! `golden/scale.json` and `golden/recovery.json` (recorded with
//! `STELLAR_THREADS=1 reproduce <exp> --quick --json`) pin the
//! flow-level experiments. Those runs take seconds even in release, so
//! `scripts/ci.sh` compares them against its release runs instead of
//! this debug test.

use stellar_bench::{self as b, json_line};
use stellar_sim::par::with_thread_override;
use stellar_telemetry::TelemetryConfig;

/// Render `run` at 1 and at 8 workers and compare both against `golden`.
fn assert_golden(what: &str, golden: &str, run: impl Fn() -> String) {
    for threads in [1usize, 8] {
        let got = with_thread_override(threads, &run);
        assert_eq!(
            got, golden,
            "{what} drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

#[test]
fn fig6_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig6 --quick --json",
        include_str!("golden/fig6.json"),
        || json_line("fig6", &b::fig06_startup::run(true)),
    );
}

#[test]
fn fig8_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig8 --quick --json",
        include_str!("golden/fig8.json"),
        || json_line("fig8", &b::fig08_atc::run(true)),
    );
}

#[test]
fn fig11_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig11 --quick --json",
        include_str!("golden/fig11.json"),
        || json_line("fig11", &b::fig11_failures::run(true)),
    );
}

#[test]
fn fig13_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig13 --quick --json",
        include_str!("golden/fig13.json"),
        || json_line("fig13", &b::fig13_micro::run(true)),
    );
}

#[test]
fn fig14_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig14 --quick --json",
        include_str!("golden/fig14.json"),
        || json_line("fig14", &b::fig14_gdr::run(true)),
    );
}

#[test]
fn table1_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "table1 --quick --json",
        include_str!("golden/table1.json"),
        || json_line("table1", &b::table1_comm::run(true)),
    );
}

#[test]
fn claims_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "claims --quick --json",
        include_str!("golden/claims.json"),
        || json_line("claims", &b::claims::run(true)),
    );
}

#[test]
fn chaos_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "chaos --quick --json",
        include_str!("golden/chaos.json"),
        || json_line("chaos", &b::chaos::run(true)),
    );
}

#[test]
fn cluster_json_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "cluster --quick --json",
        include_str!("golden/cluster.json"),
        || json_line("cluster", &b::cluster::run(true)),
    );
}

/// The fig11 flight-recorder document, rendered exactly as
/// `reproduce fig11 --quick --json --trace` writes `TRACE_fig11.json`:
/// the capture scope brackets the run *and* the JSON rendering, matching
/// the binary's job body.
#[test]
fn fig11_trace_matches_golden_at_1_and_8_threads() {
    assert_golden(
        "fig11 --trace document",
        include_str!("golden/TRACE_fig11.json"),
        || {
            let (_, tel) = stellar_telemetry::capture(TelemetryConfig::default(), || {
                json_line("fig11", &b::fig11_failures::run(true))
            });
            tel.to_json("fig11")
        },
    );
}
