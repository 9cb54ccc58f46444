//! Conformance pass for the quick experiments: each experiment's
//! `run(true)` rows are simulated once per worker count they are gated
//! at, cached for the process, and read by every gate below.
//!
//! - **Golden corpus.** `reproduce --quick --json`, `reproduce --quick`
//!   and `--trace` outputs, compared byte-for-byte at 1 and 8 workers
//!   and rendered by the functions the binary prints with
//!   (`stellar_bench::json_line`, each module's `render`). It pins the
//!   *rendered bytes*: a change to an RNG stream, an event schedule, a
//!   JSON field order, a table column or a float format is a corpus
//!   diff, at either worker count. The analytic experiments (`fig6`,
//!   `fig13`, `fig14`, `table1`, `claims`) pin every field type a row
//!   can carry, `null`s and arrays included; `cluster` pins the
//!   scheduler's per-tenant tail latencies.
//! - **JSON round trip.** Rows serialize with the expected fields and
//!   parse → render → parse to the identical `Value` tree.
//! - **Thread identity.** fig11's table, JSON and `--trace` document and
//!   fig16's JSON are byte-identical at 1, 2 and 8 workers: every job
//!   draws from its own `SimRng` seed and lands in its input-order slot.
//! - **Trace consistency.** The fig8 and chaos traces account for every
//!   ATC lookup, DMA'd page and message the figures report.
//! - **Trace counters.** Every traced experiment's hub counters, as its
//!   `--trace` document renders them, match `golden/trace_counters.json`
//!   at 1 and 8 workers.
//! - **Strict invariants.** The 1-worker fig8 (pcie + rnic) and fig11
//!   (net + transport, every multipath algorithm) runs happen inside
//!   `stellar_check::strict`. Its gate and collector are process-wide:
//!   experiments simulated alongside a strict run are checked with it,
//!   and a violation fails whichever strict run drains the collector
//!   first, so it always fails some test, not always the one that made it.
//! - **Figure shapes.** Each figure keeps the paper's qualitative result.
//!
//! fig8, fig11, chaos, cluster and fig14 run under
//! `stellar_telemetry::capture`, which
//! records without perturbing rows, so one run serves traced and
//! untraced gates. The worker count is a per-thread override, so tests
//! running side by side each simulate at the count they name.
//!
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
//! `golden/trace_counters.json` holds one line per [`TRACED`]
//! experiment: its name and the `counters` array of its
//! `reproduce <exp> --quick --json --trace` document.
//!
//! `golden/{scale,recovery,fig9,fig10}.json` take seconds even in
//! release, so `scripts/ci.sh` compares them against its release runs
//! instead of this debug test.

use std::sync::OnceLock;

use stellar_bench::{self as b, json_line};
use stellar_sim::json::{self, rows_to_json, ToJsonRow, Value};
use stellar_sim::par::with_thread_override;
use stellar_telemetry::{capture, Stage, Subsystem, Telemetry};

/// The worker counts a run can be cached at.
const WORKERS: [usize; 3] = [1, 2, 8];
/// Experiments whose runs are captured: their traces are gated.
const TRACED: [&str; 5] = ["fig8", "fig11", "chaos", "cluster", "fig14"];
/// Experiments whose 1-worker run is held to every invariant.
const STRICT: [&str; 2] = ["fig8", "fig11"];

/// One experiment's quick rows at one worker count.
struct Run<R> {
    rows: Vec<R>,
    /// What the capture around the run recorded, for a [`TRACED`] one.
    tel: Option<Telemetry>,
}

impl<R> Run<R> {
    fn tel(&self) -> &Telemetry {
        self.tel.as_ref().expect("a traced experiment")
    }
}

/// `exp`'s rows at `threads` workers from `runs`, simulating them on
/// first use. A run that panics leaves its slot empty, so the next test
/// to ask re-runs it and fails the same way.
fn cached<R: Send + Sync>(
    runs: &'static [OnceLock<Run<R>>; WORKERS.len()],
    exp: &str,
    threads: usize,
    run: fn(bool) -> Vec<R>,
) -> &'static Run<R> {
    let slot = WORKERS
        .iter()
        .position(|&w| w == threads)
        .expect("a cached worker count");
    runs[slot].get_or_init(|| {
        with_thread_override(threads, || {
            let simulate = || {
                let (rows, tel) = if TRACED.contains(&exp) {
                    let (rows, tel) = capture(|| run(true));
                    (rows, Some(tel))
                } else {
                    (run(true), None)
                };
                Run { rows, tel }
            };
            if threads == 1 && STRICT.contains(&exp) {
                stellar_check::strict(simulate)
            } else {
                simulate()
            }
        })
    })
}

/// One accessor per experiment: `fig11(8)` is fig11's 8-worker run.
macro_rules! experiments {
    ($($name:ident => $module:ident),* $(,)?) => {$(
        fn $name(threads: usize) -> &'static Run<b::$module::Row> {
            static RUNS: [OnceLock<Run<b::$module::Row>>; WORKERS.len()] =
                [const { OnceLock::new() }; WORKERS.len()];
            cached(&RUNS, stringify!($name), threads, b::$module::run)
        }
    )*};
}

experiments! {
    fig6 => fig06_startup,
    fig8 => fig08_atc,
    fig9 => fig09_permutation,
    fig10 => fig10_background,
    fig11 => fig11_failures,
    fig12 => fig12_imbalance,
    fig13 => fig13_micro,
    fig14 => fig14_gdr,
    fig15 => fig15_virt,
    fig16 => fig16_llm,
    table1 => table1_comm,
    claims => claims,
    chaos => chaos,
    cluster => cluster,
    timeline => timeline,
}

/// Compare experiment `exp`'s 1- and 8-worker rows, rendered both ways,
/// against the recorded `.json` and `.txt`.
fn assert_golden_rows<R: ToJsonRow>(
    exp: &str,
    json: &str,
    text: &str,
    rows_at: fn(usize) -> &'static Run<R>,
    render: fn(&[R]) -> String,
) {
    for threads in [1usize, 8] {
        let rows = &rows_at(threads).rows;
        assert_eq!(
            json_line(exp, rows),
            json,
            "{exp} --quick --json drifted from the golden corpus at {threads} thread(s)"
        );
        // The binary follows every table with a blank line.
        assert_eq!(
            render(rows) + "\n",
            text,
            "{exp} --quick table drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

macro_rules! golden_rows {
    ($($test:ident: $name:ident, $module:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            assert_golden_rows(
                stringify!($name),
                include_str!(concat!("golden/", stringify!($name), ".json")),
                include_str!(concat!("golden/", stringify!($name), ".txt")),
                $name,
                b::$module::render,
            );
        }
    )*};
}

golden_rows! {
    fig6_matches_golden_at_1_and_8_threads: fig6, fig06_startup,
    fig8_matches_golden_at_1_and_8_threads: fig8, fig08_atc,
    fig11_matches_golden_at_1_and_8_threads: fig11, fig11_failures,
    fig13_matches_golden_at_1_and_8_threads: fig13, fig13_micro,
    fig14_matches_golden_at_1_and_8_threads: fig14, fig14_gdr,
    table1_matches_golden_at_1_and_8_threads: table1, table1_comm,
    claims_matches_golden_at_1_and_8_threads: claims, claims,
    chaos_matches_golden_at_1_and_8_threads: chaos, chaos,
    cluster_matches_golden_at_1_and_8_threads: cluster, cluster,
    timeline_matches_golden_at_1_and_8_threads: timeline, timeline,
}

/// The fig11 flight-recorder document, as
/// `reproduce fig11 --quick --json --trace` writes `TRACE_fig11.json`.
/// The binary's capture also brackets the JSON rendering, which records
/// nothing: it only formats row fields.
#[test]
fn fig11_trace_matches_golden_at_1_and_8_threads() {
    let golden = include_str!("golden/TRACE_fig11.json");
    for threads in [1usize, 8] {
        assert_eq!(
            fig11(threads).tel().to_json("fig11"),
            golden,
            "fig11 --trace document drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

/// Every traced experiment's `counters` array, cut from its `--trace`
/// document, matches its line of the golden file at 1 and 8 workers.
/// Together these traces carry 35 of the 37 counter names a quick
/// trace can show; the other two appear only in `recovery`, which is
/// too slow for this debug test.
#[test]
fn trace_counters_match_golden_at_1_and_8_threads() {
    let golden = include_str!("golden/trace_counters.json");
    let tel = |exp: &str, threads| match exp {
        "fig8" => fig8(threads).tel(),
        "fig11" => fig11(threads).tel(),
        "chaos" => chaos(threads).tel(),
        "cluster" => cluster(threads).tel(),
        "fig14" => fig14(threads).tel(),
        _ => unreachable!("{exp} is not traced"),
    };
    for threads in [1usize, 8] {
        let lines: Vec<String> = TRACED
            .iter()
            .map(|exp| {
                let doc = tel(exp, threads).to_json(exp);
                let (_, counters) = doc.split_once(r#","counters":"#).expect("a counters field");
                let (counters, _) = counters
                    .split_once(r#","recorder":"#)
                    .expect("a recorder field");
                format!("\"{exp}\":{counters}")
            })
            .collect();
        assert_eq!(
            format!("{{\n{}\n}}\n", lines.join(",\n")),
            golden,
            "trace counters drifted from the golden corpus at {threads} thread(s)"
        );
    }
}

fn to_json<T: ToJsonRow>(rows: &[T]) -> Vec<Value> {
    let rendered = json::rows_to_json(rows);
    match json::parse(&rendered).expect("valid JSON array") {
        Value::Arr(vals) => vals,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

/// Render a parsed `Value` back to JSON text using the same in-tree
/// string/number formatters the row builders use.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => json::number(*n),
        Value::Str(s) => json::string(s),
        Value::Arr(vals) => {
            let inner: Vec<String> = vals.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// parse → render → parse is the identity on the `Value` domain: the
/// in-tree writer emits nothing the in-tree parser loses or reshapes.
/// (Byte-level identity is pinned separately by the golden corpus;
/// integer-valued floats legitimately re-render as `1.0` vs `1`.)
fn assert_roundtrip<T: ToJsonRow>(name: &str, rows: &[T]) {
    assert!(!rows.is_empty(), "{name} must produce rows");
    let first = json::parse(&json::rows_to_json(rows)).expect("valid JSON array");
    let second = json::parse(&render(&first))
        .unwrap_or_else(|e| panic!("{name} re-render must stay parseable: {e}"));
    assert_eq!(first, second, "{name} rows must round-trip through parse/render");
    assert_eq!(first.as_array().map(<[Value]>::len), Some(rows.len()));
}

/// Every experiment's row struct round-trips, read from its 8-worker
/// run, and its first row carries each listed field.
macro_rules! roundtrip_tests {
    ($($test:ident => $name:ident $([$($field:literal),*])?),* $(,)?) => {
        $(#[test]
        fn $test() {
            let rows = &$name(8).rows;
            assert_roundtrip(stringify!($name), rows);
            $(let vals = to_json(rows);
            $(assert!(vals[0].get($field).is_some(), "missing field {}", $field);)*)?
        })*
    };
}

roundtrip_tests![
    fig6_rows_roundtrip => fig6 ["memory_gib", "speedup"],
    fig8_rows_roundtrip => fig8,
    fig9_rows_roundtrip => fig9,
    fig10_rows_roundtrip => fig10,
    fig11_rows_roundtrip => fig11,
    fig12_rows_roundtrip => fig12,
    fig13_rows_roundtrip => fig13 ["latency_us", "gbps"],
    fig14_rows_roundtrip => fig14,
    fig15_rows_roundtrip => fig15,
    fig16_rows_roundtrip => fig16,
    table1_rows_roundtrip => table1,
    claims_rows_roundtrip => claims ["measured", "paper"],
    timeline_rows_roundtrip => timeline,
    chaos_rows_roundtrip => chaos ["scenario", "bridged_rel", "verdict"],
    cluster_rows_roundtrip => cluster,
];

/// `recovery::run(true)` drives a 4 096-rank fleet — debug-profile
/// tests pin the row schema on a hand-built row instead (the run itself
/// is exercised in release by `reproduce recovery --quick` in CI).
#[test]
fn recovery_rows_serialize_with_fields() {
    let row = b::recovery::Row {
        scenario: "recovery",
        fabric: "packet",
        ranks: 8,
        recoveries: 12,
        replayed: 2880,
        p50_ms: 4.12,
        p99_ms: 32.12,
        max_ms: 32.12,
        dip_rel: 0.0,
        restore_rel: 1.06,
        exactly_once: "ok",
        verdict: "degraded",
    };
    let vals = to_json(&[row]);
    assert_eq!(vals.len(), 1);
    for field in [
        "scenario", "fabric", "ranks", "recoveries", "replayed", "p50_ms", "p99_ms",
        "max_ms", "dip_rel", "restore_rel", "exactly_once", "verdict",
    ] {
        assert!(vals[0].get(field).is_some(), "missing field {field}");
    }
    assert_roundtrip("recovery", &[b::recovery::Row {
        scenario: "no-recovery",
        fabric: "packet",
        ranks: 8,
        recoveries: 0,
        replayed: 0,
        p50_ms: -1.0,
        p99_ms: -1.0,
        max_ms: -1.0,
        dip_rel: -1.0,
        restore_rel: -1.0,
        exactly_once: "violated",
        verdict: "transport_error",
    }]);
}

/// The row schema and its `-1` sentinel, on hand-built rows (the
/// golden corpus and the round trip above cover `cluster::run(true)`).
#[test]
fn cluster_rows_serialize_with_fields() {
    let row = b::cluster::Row {
        scenario: "topo-aware",
        policy: "topo",
        fabric: "packet",
        tenants: 4,
        ranks: 24,
        peak_ranks: 24,
        capacity: 32,
        max_wait_ms: 0.0,
        goodput_gbs: 11.5,
        p99_us: 410.2,
        x_solo: 1.8,
        recoveries: 0,
        errors: 0,
        verdict: "beats-binpack",
    };
    let vals = to_json(std::slice::from_ref(&row));
    assert_eq!(vals.len(), 1);
    for field in [
        "scenario", "policy", "fabric", "tenants", "ranks", "peak_ranks", "capacity",
        "max_wait_ms", "goodput_gbs", "p99_us", "x_solo", "recoveries", "errors", "verdict",
    ] {
        assert!(vals[0].get(field).is_some(), "missing field {field}");
    }
    assert_roundtrip("cluster", &[row, b::cluster::Row {
        scenario: "churn-storm",
        policy: "topo",
        fabric: "packet",
        tenants: 2,
        ranks: 12,
        peak_ranks: 12,
        capacity: 32,
        max_wait_ms: 0.0,
        goodput_gbs: 9.0,
        p99_us: 512.0,
        x_solo: -1.0,
        recoveries: 10,
        errors: 0,
        verdict: "zero-loss",
    }]);
}

#[test]
fn table1_rows_serialize_with_fields() {
    let rows = &table1(8).rows;
    let vals = to_json(rows);
    assert_eq!(vals.len(), 4);
    assert!(vals[0].get("dp_pct").is_some());
    assert!(vals[0].get("paper").is_some());
}

/// fig11 (a parallel multi-combo experiment with per-job RNGs) renders
/// the same table and JSON, and the seed-averaged fig16 the same JSON,
/// at 1, 2 and 8 workers.
#[test]
fn fig11_and_fig16_bytes_are_thread_count_invariant() {
    let render_all = |threads| {
        let fig11 = &fig11(threads).rows;
        (
            b::fig11_failures::render(fig11),
            rows_to_json(fig11),
            rows_to_json(&fig16(threads).rows),
        )
    };
    let one = render_all(1);
    let two = render_all(2);
    let eight = render_all(8);
    assert_eq!(one.0, two.0, "fig11 table differs between 1 and 2 workers");
    assert_eq!(one.0, eight.0, "fig11 table differs between 1 and 8 workers");
    assert_eq!(one.1, two.1, "fig11 JSON differs between 1 and 2 workers");
    assert_eq!(one.1, eight.1, "fig11 JSON differs between 1 and 8 workers");
    assert_eq!(one.2, two.2, "fig16 JSON differs between 1 and 2 workers");
    assert_eq!(one.2, eight.2, "fig16 JSON differs between 1 and 8 workers");
}

/// The `--trace` determinism gate: the fully rendered telemetry document
/// of a traced experiment (ring events, stage histograms, counters) must
/// be byte-identical at every worker count, exactly like the experiment's
/// own output. fig11 exercises the transport/net event paths, where
/// per-job recorder folding is the only thing standing between the ring
/// and completion-order nondeterminism.
#[test]
fn fig11_trace_bytes_are_thread_count_invariant() {
    let render_trace = |threads| fig11(threads).tel().to_json("fig11");
    let one = render_trace(1);
    let two = render_trace(2);
    let eight = render_trace(8);
    assert_eq!(one, two, "fig11 trace differs between 1 and 2 workers");
    assert_eq!(one, eight, "fig11 trace differs between 1 and 8 workers");
}

/// The fig8 trace must tell the same story as the figure itself: every
/// ATC lookup is either a hit or a walk, every DMA'd page contributes one
/// TLP-completion sample, and the hub's cache counters equal the
/// per-stage sample counts — the cross-layer attribution is
/// bookkeeping-exact, not approximate.
#[test]
fn fig8_trace_is_consistent_with_the_figure() {
    let tel = fig8(1).tel();
    let hub = &tel.hub;
    let hits = hub.get(Subsystem::Pcie, "atc.hit");
    let misses = hub.get(Subsystem::Pcie, "atc.miss");
    assert!(hits > 0 && misses > 0, "fig8 must exercise both ATC outcomes");
    assert_eq!(tel.stage(Stage::AtcHit).count() as u64, hits);
    assert_eq!(tel.stage(Stage::AtsWalk).count() as u64, misses);
    let pages = hub.get(Subsystem::Rnic, "dma.pages_rc") + hub.get(Subsystem::Rnic, "dma.pages_p2p");
    assert_eq!(
        tel.stage(Stage::DmaTlpCompletion).count() as u64,
        pages
    );
    assert_eq!(
        tel.stage(Stage::DoorbellDmaFetch).count() as u64,
        hub.get(Subsystem::Rnic, "dma.ops")
    );
    // ATS walks are the slow path: their mean must dominate the hit path.
    let walk = tel.stage(Stage::AtsWalk).percentiles().mean().unwrap();
    let hit = tel.stage(Stage::AtcHit).percentiles().mean().unwrap();
    assert!(walk > hit * 10.0, "walks ({walk}) must dwarf hits ({hit})");
}

/// The chaos trace accounts for every message: fault scenarios leave 8
/// messages incomplete on dead connections, and each completed message
/// contributes exactly one message-latency sample.
#[test]
fn chaos_trace_accounts_for_incomplete_messages() {
    let tel = chaos(1).tel();
    let posted = tel.hub.get(Subsystem::Transport, "msg.posted");
    let completed = tel.hub.get(Subsystem::Transport, "msg.completed");
    assert_eq!(posted - completed, 8, "messages left incomplete");
    assert_eq!(tel.stage(Stage::TransportMsg).count() as u64, completed);
}

/// fig8 and fig11's 1-worker runs are simulated inside
/// `stellar_check::strict` by whichever test asks for them first; a
/// violation panics with the full report.
#[test]
fn quick_experiments_hold_every_invariant_in_strict_mode() {
    fig8(1);
    fig11(1);
}

#[test]
fn fig6_shape() {
    let rows = &fig6(8).rows;
    assert_eq!(rows.len(), 4);
    // PVDMA stays under 20 s everywhere.
    assert!(rows.iter().all(|r| r.pvdma_s < 20.0));
    // Full pin grows monotonically and hits minutes at 1.6 TB.
    assert!(rows.windows(2).all(|w| w[1].full_pin_s > w[0].full_pin_s));
    let last = rows.last().unwrap();
    assert!(last.full_pin_s > 300.0);
    assert!(last.speedup >= 15.0, "speedup={}", last.speedup);
}

#[test]
fn fig8_shape() {
    const MB: u64 = 1024 * 1024;
    let rows = &fig8(8).rows;
    let small = rows.iter().find(|r| r.msg_bytes == MB).unwrap();
    let mid = rows.iter().find(|r| r.msg_bytes == 8 * MB).unwrap();
    let large = rows.iter().find(|r| r.msg_bytes == 32 * MB).unwrap();
    // CX6 starts near line rate, declines past the ATC cliff, and
    // declines further once the IOTLB also misses.
    assert!(small.cx6_gbps > 180.0, "small={}", small.cx6_gbps);
    assert!(mid.cx6_gbps < small.cx6_gbps - 5.0, "mid={}", mid.cx6_gbps);
    assert!(large.cx6_gbps < mid.cx6_gbps + 1.0, "large={}", large.cx6_gbps);
    assert!(large.cx6_gbps < 175.0, "large={}", large.cx6_gbps);
    // vStellar stays flat near its 400 Gbps line rate for the sizes
    // the figure plots (per-message overhead matters below ~1 MB).
    let vs: Vec<f64> = rows
        .iter()
        .filter(|r| r.msg_bytes >= MB)
        .map(|r| r.vstellar_gbps)
        .collect();
    let vs_min = vs.iter().copied().fold(f64::MAX, f64::min);
    let vs_max = vs.iter().copied().fold(f64::MIN, f64::max);
    assert!(vs_min > 350.0, "vs_min={vs_min}");
    assert!(vs_max - vs_min < 30.0, "vStellar not flat: {vs_min}..{vs_max}");
}

#[test]
fn fig9_shape() {
    let rows = &fig9(8).rows;
    let find = |algo: &str, paths: u32| {
        rows.iter()
            .find(|r| r.algo == algo && r.paths == paths)
            .unwrap()
    };
    let obs128 = find("OBS", 128);
    let rr128 = find("RR", 128);
    let obs4 = find("OBS", 4);
    let best128 = find("BestRTT", 128);
    let single = find("SinglePath", 4);
    // 128 paths beat 4 paths on worst-case queues for spraying.
    assert!(
        obs128.max_queue_kb < obs4.max_queue_kb,
        "obs128 max {} vs obs4 max {}",
        obs128.max_queue_kb,
        obs4.max_queue_kb
    );
    // Spray never loses goodput to single-path ECMP, and wins when
    // the hash collides.
    assert!(obs128.goodput_gbps >= single.goodput_gbps * 0.99);
    // BestRTT concentrates load: the worst maximum queue of the
    // 128-path family (the paper's Fig. 9 outlier).
    assert!(best128.max_queue_kb > obs128.max_queue_kb);
    // RR and OBS are close at 128 (paper: "performance of most
    // algorithms was similar").
    let rel = (rr128.goodput_gbps - obs128.goodput_gbps).abs() / obs128.goodput_gbps;
    assert!(rel < 0.10, "rr vs obs diverge: {rel}");
}

#[test]
fn fig10_shape() {
    let rows = &fig10(8).rows;
    let get = |algo: &str, bg: &str| {
        rows.iter()
            .find(|r| r.algo == algo && r.background == bg)
            .unwrap()
            .probe_busbw_gbs
    };
    // Static background: 128-path spraying beats single path.
    assert!(get("OBS-128", "static") > get("SinglePath", "static"));
    // 128 paths beats 4 paths for OBS under bursty background.
    assert!(get("OBS-128", "bursty") >= get("OBS-4", "bursty") * 0.95);
    // Every algorithm still completes with positive bandwidth.
    assert!(rows.iter().all(|r| r.probe_busbw_gbs > 0.0));
}

#[test]
fn fig11_shape() {
    let rows = &fig11(8).rows;
    let get = |algo: &str, loss: f64| {
        rows.iter()
            .find(|r| r.algo == algo && (r.loss - loss).abs() < 1e-9)
            .unwrap()
    };
    // 128-path algorithms tolerate 1% and 3% loss with almost no
    // degradation (paper: "almost no observable performance
    // degradation").
    for algo in ["OBS-128", "RR-128", "DWRR-128", "MPRDMA-128"] {
        for loss in [0.01, 0.03] {
            let r = get(algo, loss);
            assert!(
                r.relative_busbw > 0.85,
                "{algo} at {loss}: degraded to {}",
                r.relative_busbw
            );
        }
    }
    // Single path on the lossy route collapses.
    let single = get("SinglePath", 0.03);
    let obs = get("OBS-128", 0.03);
    assert!(
        single.relative_busbw < 0.5 && single.relative_busbw < obs.relative_busbw,
        "single {} vs obs {}",
        single.relative_busbw,
        obs.relative_busbw
    );
}

#[test]
fn fig12_shape() {
    let rows = &fig12(8).rows;
    let get = |p: u32| rows.iter().find(|r| r.paths == p).unwrap().imbalance_pct;
    // Few paths leave most of the 60 aggs idle: near-total imbalance.
    assert!(get(4) > 80.0, "4 paths: {}", get(4));
    assert!(get(16) > 60.0, "16 paths: {}", get(16));
    // Balance improves monotonically-ish and is best at 128+.
    assert!(get(128) < get(16), "128: {} vs 16: {}", get(128), get(16));
    assert!(get(256) <= get(64), "256: {} vs 64: {}", get(256), get(64));
}

#[test]
fn fig13_shape() {
    use b::fig13_micro::sizes;
    let rows = &fig13(8).rows;
    let get = |stack: &str, size: u64| {
        rows.iter()
            .find(|r| r.stack == stack && r.msg_bytes == size)
            .unwrap()
    };
    // vStellar ≈ bare metal at every size.
    for &s in &sizes(true) {
        let a = get("bare-metal", s);
        let b = get("vStellar", s);
        assert!((a.latency_us - b.latency_us).abs() / a.latency_us < 0.01);
    }
    // VF+VxLAN pays a small-message latency tax and a large-message
    // bandwidth tax.
    let vf8 = get("VF+VxLAN", 8);
    let vs8 = get("vStellar", 8);
    assert!(vf8.latency_us > vs8.latency_us);
    let vf8m = get("VF+VxLAN", 8 << 20);
    let vs8m = get("vStellar", 8 << 20);
    assert!(vf8m.gbps < vs8m.gbps * 0.97);
}

#[test]
fn fig14_shape() {
    let rows = &fig14(8).rows;
    let max_of = |stack: &str| {
        rows.iter()
            .filter(|r| r.stack == stack)
            .map(|r| r.gbps)
            .fold(f64::MIN, f64::max)
    };
    let vs = max_of("vStellar");
    let bare = max_of("bare-metal");
    let hyv = max_of("HyV/MasQ");
    // vStellar ≈ bare metal near 393 Gbps.
    assert!((vs - bare).abs() / bare < 0.02);
    assert!(vs > 350.0, "vStellar={vs}");
    // HyV/MasQ around 1/3 of vStellar (paper: 141 vs 393 ≈ 36%).
    let ratio = hyv / vs;
    assert!((0.25..0.48).contains(&ratio), "ratio={ratio}");
}

#[test]
fn fig15_shape() {
    for r in &fig15(8).rows {
        assert!(r.overhead.abs() < 0.01, "{}: overhead {}", r.job, r.overhead);
        assert!(r.regular_ms > 0.0);
    }
}

#[test]
fn fig16_shape() {
    let rows = &fig16(8).rows;
    let mean = |pname: &str| {
        let g: Vec<f64> = rows
            .iter()
            .filter(|r| r.placement == pname)
            .map(|r| r.speedup)
            .collect();
        g.iter().sum::<f64>() / g.len() as f64
    };
    let reranked = mean("reranked");
    let random = mean("random");
    // Random placement exposes the transport: the gap must widen.
    assert!(
        random > reranked,
        "random {random} should exceed reranked {reranked}"
    );
    // Stellar never loses under random placement.
    assert!(rows
        .iter()
        .filter(|r| r.placement == "random")
        .all(|r| r.speedup > -0.01));
}

#[test]
fn table1_orderings_match_paper() {
    let rows = &table1(8).rows;
    // Llama-33B: DP dominates.
    let llama = &rows[0];
    assert!(llama.dp_pct > llama.tp_pct.unwrap());
    assert!(llama.dp_pct > llama.pp_pct.unwrap());
    // GPT-200B: PP > TP > DP.
    let gpt = &rows[1];
    assert!(gpt.pp_pct.unwrap() > gpt.tp_pct.unwrap());
    assert!(gpt.tp_pct.unwrap() > gpt.dp_pct);
    // DeepSpeed rows: DP only.
    assert!(rows[2].tp_pct.is_none() && rows[2].pp_pct.is_none());
    assert!(rows[3].tp_pct.is_none() && rows[3].pp_pct.is_none());
}

#[test]
fn table1_values_within_2x_of_paper() {
    for r in &table1(8).rows {
        let close = |measured: f64, paper: f64| {
            measured / paper < 2.5 && paper / measured < 2.5
        };
        assert!(
            close(r.dp_pct, r.paper.1),
            "{}: DP {} vs paper {}",
            r.name,
            r.dp_pct,
            r.paper.1
        );
        if let (Some(m), Some(p)) = (r.tp_pct, r.paper.0) {
            assert!(close(m, p), "{}: TP {m} vs paper {p}", r.name);
        }
    }
}

#[test]
fn timeline_shape() {
    let rows = &timeline(8).rows;
    let single = &rows[0];
    let obs = &rows[1];
    // Spray barely notices; single path dips then recovers.
    assert!(obs.during_gbs > obs.before_gbs * 0.6);
    assert!(single.during_gbs < single.before_gbs);
    assert!(single.after_gbs > single.during_gbs);
}

#[test]
fn claims_hold() {
    let rows = &claims(8).rows;
    let get = |claim: &str| rows.iter().find(|r| r.claim.contains(claim)).unwrap();
    let t = get("creation time");
    assert!((1.4..2.0).contains(&t.measured), "t={}", t.measured);
    assert_eq!(get("supported per RNIC").measured, 65_536.0);
    assert_eq!(get("extra PCIe BDFs").measured, 0.0);
    assert_eq!(get("memory per SR-IOV").measured, 2.4);
}

#[test]
fn chaos_table_shape() {
    let rows = &chaos(8).rows;
    // 4 hardened scenarios + 1 unhardened counterfactual.
    assert_eq!(rows.len(), 5);
    for r in rows {
        assert!(r.healthy_gbs > 0.0, "{}: calibration ran", r.scenario);
        assert!(r.fault_drops > 0, "{}: faults actually bit", r.scenario);
    }
    let compound = rows
        .iter()
        .find(|r| r.scenario == "compound" && r.transport == "hardened-obs")
        .unwrap();
    assert_eq!(compound.verdict, "graceful");
    assert_eq!(compound.conn_errors, 0);
    assert!(compound.bridged_rel >= 0.6 && compound.after_rel >= 0.9);
    let unhardened = rows
        .iter()
        .find(|r| r.transport == "unhardened-single")
        .unwrap();
    assert!(
        unhardened.conn_errors > 0
            || unhardened.verdict == "collapsed"
            || unhardened.verdict == "transport_error",
        "counterfactual must fail: {unhardened:?}"
    );
}
