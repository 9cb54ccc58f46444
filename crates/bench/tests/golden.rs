//! Golden-trace conformance corpus: recorded `reproduce --quick --json`,
//! `reproduce --quick` and `--trace` outputs for a representative
//! experiment set, compared byte-for-byte against a fresh in-process run.
//!
//! The corpus pins the *rendered bytes*, not just the numbers: any
//! change to an RNG stream, an event schedule, a JSON field order, a
//! table column, or a float formatting path shows up as a corpus diff.
//! Regenerate a golden file only for an intentional behavior change,
//! with:
//!
//! ```text
//! cargo run --release --bin reproduce -- <exp> --quick --json \
//!     > crates/bench/tests/golden/<exp>.json
//! cargo run --release --bin reproduce -- <exp> --quick \
//!     > crates/bench/tests/golden/<exp>.txt
//! cargo run --release --bin reproduce -- fig11 --quick --json --trace
//! mv TRACE_fig11.json crates/bench/tests/golden/
//! ```
//!
//! Each experiment runs once per worker count, and both documents are
//! rendered from those rows: the JSON line by `stellar_bench::json_line`
//! and the text table by the module's `render`, the functions the binary
//! prints with. Each comparison runs at 1 and 8 workers: the corpus is
//! also a thread-count-invariance gate for the exact bytes the binary
//! prints. The analytic experiments (`fig6`, `fig13`, `fig14`, `table1`,
//! `claims`) run in milliseconds and pin every field type a row can
//! carry, `null`s and arrays included. `cluster` pins the multi-tenant
//! scheduler's per-tenant tail latencies, which its app records from the
//! completions it owns.
//!
//! `golden/scale.json` and `golden/recovery.json` (recorded with
//! `STELLAR_THREADS=1 reproduce <exp> --quick --json`) pin the
//! flow-level experiments, and `golden/fig9.json` and `golden/fig10.json`
//! the packet-level path-count sweeps. Those runs take seconds even in
//! release, so `scripts/ci.sh` compares them against its single-worker
//! release runs instead of this debug test.

use stellar_bench::{self as b, json_line};
use stellar_sim::json::ToJsonRow;
use stellar_sim::par::with_thread_override;

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

/// Run experiment `exp` once at 1 and once at 8 workers, and compare
/// both renderings of its rows against the recorded `.json` and `.txt`.
fn assert_golden_rows<R: ToJsonRow>(
    exp: &str,
    json: &str,
    text: &str,
    run: fn(bool) -> Vec<R>,
    render: fn(&[R]) -> String,
) {
    for threads in [1usize, 8] {
        let rows = with_thread_override(threads, || run(true));
        assert_eq!(
            json_line(exp, &rows),
            json,
            "{exp} --quick --json drifted from the golden corpus at {threads} thread(s)"
        );
        // The binary follows every table with a blank line.
        assert_eq!(
            render(&rows) + "\n",
            text,
            "{exp} --quick table drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

macro_rules! golden_rows {
    ($($test:ident: $exp:literal => $module:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            assert_golden_rows(
                $exp,
                include_str!(concat!("golden/", $exp, ".json")),
                include_str!(concat!("golden/", $exp, ".txt")),
                b::$module::run,
                b::$module::render,
            );
        }
    )*};
}

golden_rows! {
    fig6_matches_golden_at_1_and_8_threads: "fig6" => fig06_startup,
    fig8_matches_golden_at_1_and_8_threads: "fig8" => fig08_atc,
    fig11_matches_golden_at_1_and_8_threads: "fig11" => fig11_failures,
    fig13_matches_golden_at_1_and_8_threads: "fig13" => fig13_micro,
    fig14_matches_golden_at_1_and_8_threads: "fig14" => fig14_gdr,
    table1_matches_golden_at_1_and_8_threads: "table1" => table1_comm,
    claims_matches_golden_at_1_and_8_threads: "claims" => claims,
    chaos_matches_golden_at_1_and_8_threads: "chaos" => chaos,
    cluster_matches_golden_at_1_and_8_threads: "cluster" => cluster,
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
            let (_, tel) = stellar_telemetry::capture(|| {
                json_line("fig11", &b::fig11_failures::run(true))
            });
            tel.to_json("fig11")
        },
    );
}
