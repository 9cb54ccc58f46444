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
//! Each comparison runs at 1 and 8 workers: the corpus is also a
//! thread-count-invariance gate for the exact bytes the binary prints.
//!
//! `golden/scale.json` and `golden/recovery.json` (recorded with
//! `STELLAR_THREADS=1 reproduce <exp> --quick --json`) pin the
//! flow-level experiments. Those runs take seconds even in release, so
//! `scripts/ci.sh` compares them against its release runs instead of
//! this debug test.

use stellar_bench as b;
use stellar_sim::json::rows_to_json;
use stellar_sim::par::with_thread_override;
use stellar_telemetry::TelemetryConfig;

/// Render one experiment exactly as `reproduce --quick --json` prints it.
fn json_line(name: &str, rows_json: &str) -> String {
    format!("{{\"experiment\":\"{name}\",\"rows\":{rows_json}}}\n")
}

fn fig8() -> String {
    json_line("fig8", &rows_to_json(&b::fig08_atc::run(true)))
}

fn fig11() -> String {
    json_line("fig11", &rows_to_json(&b::fig11_failures::run(true)))
}

fn chaos() -> String {
    json_line("chaos", &rows_to_json(&b::chaos::run(true)))
}

/// Render the fig11 flight-recorder document exactly as
/// `reproduce fig11 --quick --json --trace` writes `TRACE_fig11.json`:
/// the capture scope brackets the run *and* the JSON rendering, matching
/// the binary's job body.
fn trace_fig11() -> String {
    let (_, tel) = stellar_telemetry::capture(TelemetryConfig::default(), || {
        json_line("fig11", &rows_to_json(&b::fig11_failures::run(true)))
    });
    tel.to_json("fig11")
}

#[test]
fn fig8_json_matches_golden_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let got = with_thread_override(threads, fig8);
        assert_eq!(
            got,
            include_str!("golden/fig8.json"),
            "fig8 --quick --json drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

#[test]
fn fig11_json_matches_golden_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let got = with_thread_override(threads, fig11);
        assert_eq!(
            got,
            include_str!("golden/fig11.json"),
            "fig11 --quick --json drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

#[test]
fn chaos_json_matches_golden_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let got = with_thread_override(threads, chaos);
        assert_eq!(
            got,
            include_str!("golden/chaos.json"),
            "chaos --quick --json drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

#[test]
fn fig11_trace_matches_golden_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let got = with_thread_override(threads, trace_fig11);
        assert_eq!(
            got,
            include_str!("golden/TRACE_fig11.json"),
            "fig11 --trace document drifted from the golden corpus at {threads} thread(s)"
        );
    }
}
