//! Conformance pass for the quick experiments. [`GATES`] lists every
//! experiment of `stellar_bench::EXPERIMENTS`, in registry order, with
//! the worker counts its `run(true)` is simulated at and whether that
//! run is traced or strict. Each run is simulated once, cached for the
//! process, and read by every gate below:
//!
//! - **Golden corpus.** At every worker count in the table, the
//!   experiment's `reproduce --quick --json` line and `reproduce --quick`
//!   table match `golden/<exp>.json` and `golden/<exp>.txt` byte for
//!   byte, rendered by the registry entry the binary prints with. A
//!   change to an RNG stream, an event schedule, a JSON field order, a
//!   table column or a float format is a corpus diff, and an experiment
//!   gated at several worker counts (fig11 and fig16 at 1, 2 and 8)
//!   prints the same bytes at each. The analytic experiments pin every
//!   field type a row can carry, `null`s and arrays included.
//! - **JSON round trip.** Each of those lines parses → renders → parses
//!   to the identical `Value` tree.
//! - **Traces.** fig11's `--trace` document matches
//!   `golden/TRACE_fig11.json`, and every traced experiment's hub
//!   counters match its line of `golden/trace_counters.json`, at each of
//!   its worker counts. The fig8 and chaos traces account for every ATC
//!   lookup, DMA'd page and message the figures report.
//! - **Strict invariants.** A strict experiment runs inside a
//!   `stellar_check` scope: a violation fails the run that made it, and
//!   its `checks_run` is the same at each of its worker counts.
//! - **Figure shapes.** Each figure keeps the paper's qualitative result.
//! - **Completeness.** The table names every registry entry exactly
//!   once, so a new experiment cannot land unpinned.
//!
//! `scale` and `recovery` are [`CI_GATED`]: they drive fleets of
//! thousands of ranks, too slow for this debug test, so `scripts/ci.sh`
//! compares the `--json` lines of its 8-worker release suite with
//! `golden/{scale,recovery}.json` and their single-worker text tables
//! with `golden/{scale,recovery}.txt`.
//!
//! A traced run records under `stellar_telemetry::capture` without
//! perturbing rows, so one run serves traced and untraced gates. The
//! worker count is a per-thread override, so runs simulated side by side
//! each use the count they name.
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
//! `golden/trace_counters.json` holds one line per traced experiment:
//! its name and the `counters` array of its
//! `reproduce <exp> --quick --json --trace` document.

use std::path::Path;
use std::sync::OnceLock;

use stellar_bench::{self as b, Rows, EXPERIMENTS};
use stellar_sim::json::{self, Value};
use stellar_sim::par::{par_map, with_thread_override};
use stellar_telemetry::{capture, Stage, Subsystem, Telemetry};

/// How this test gates one experiment of the registry.
struct Gate {
    /// Its name in `stellar_bench::EXPERIMENTS`.
    name: &'static str,
    /// The worker counts its quick run is simulated and compared at.
    workers: &'static [usize],
    /// Runs under a telemetry capture: its traces are gated.
    traced: bool,
    /// Held to every invariant at each of its worker counts.
    strict: bool,
}

/// The worker counts of an experiment this test does not simulate:
/// `scripts/ci.sh` compares its release runs with its golden files
/// instead.
const CI_GATED: &[usize] = &[];

const fn gate(name: &'static str, workers: &'static [usize]) -> Gate {
    Gate {
        name,
        workers,
        traced: false,
        strict: false,
    }
}

/// Every experiment, in registry order.
const GATES: &[Gate] = &[
    gate("fig6", &[1, 8]),
    Gate { traced: true, strict: true, ..gate("fig8", &[1, 8]) },
    gate("fig9", &[8]),
    gate("fig10", &[8]),
    Gate { traced: true, strict: true, ..gate("fig11", &[1, 2, 8]) },
    gate("fig12", &[8]),
    gate("fig13", &[1, 8]),
    Gate { traced: true, ..gate("fig14", &[1, 8]) },
    gate("fig15", &[8]),
    gate("fig16", &[1, 2, 8]),
    gate("table1", &[1, 8]),
    gate("claims", &[1, 8]),
    gate("timeline", &[1, 8]),
    Gate { traced: true, ..gate("chaos", &[1, 8]) },
    gate("scale", CI_GATED),
    gate("recovery", CI_GATED),
    Gate { traced: true, ..gate("cluster", &[1, 8]) },
];

/// `exp`'s row of [`GATES`].
fn gate_of(exp: &str) -> &'static Gate {
    GATES
        .iter()
        .find(|g| g.name == exp)
        .unwrap_or_else(|| panic!("{exp} has no gate"))
}

/// The worker counts a run can be cached at.
const WORKERS: [usize; 3] = [1, 2, 8];

/// One experiment's quick run at one worker count.
struct Run {
    rows: Box<dyn Rows>,
    /// What the capture around the run recorded, for a traced one.
    tel: Option<Telemetry>,
    /// Invariant checks the run evaluated, for a strict one (else 0).
    checks_run: u64,
}

impl Run {
    fn tel(&self) -> &Telemetry {
        self.tel.as_ref().expect("a traced experiment")
    }
}

/// The cache, indexed by registry position and [`WORKERS`] slot.
static RUNS: [[OnceLock<Run>; WORKERS.len()]; EXPERIMENTS.len()] =
    [const { [const { OnceLock::new() }; WORKERS.len()] }; EXPERIMENTS.len()];

/// `exp`'s run at `threads` workers, simulating it on first use. A run
/// that panics leaves its slot empty, so the next test to ask re-runs it
/// and fails the same way.
fn run(exp: &str, threads: usize) -> &'static Run {
    let gate = gate_of(exp);
    assert!(
        gate.workers.contains(&threads),
        "{exp} is not gated at {threads} worker(s)"
    );
    let index = EXPERIMENTS
        .iter()
        .position(|e| e.name == exp)
        .expect("a registered experiment");
    let slot = WORKERS
        .iter()
        .position(|&w| w == threads)
        .expect("a cached worker count");
    let exp_run = EXPERIMENTS[index].run;
    RUNS[index][slot].get_or_init(|| {
        with_thread_override(threads, || {
            let simulate = || {
                if gate.traced {
                    let (rows, tel) = capture(|| exp_run(true));
                    (rows, Some(tel))
                } else {
                    (exp_run(true), None)
                }
            };
            let ((rows, tel), checks_run) = if gate.strict {
                let (out, report) = stellar_check::capture(simulate);
                assert!(
                    report.is_clean(),
                    "{exp} at {threads} worker(s): {}",
                    report.render()
                );
                (out, report.checks_run)
            } else {
                (simulate(), 0)
            };
            Run {
                rows,
                tel,
                checks_run,
            }
        })
    })
}

/// `exp`'s typed rows at `threads` workers.
fn rows<R: 'static>(exp: &str, threads: usize) -> &'static [R] {
    run(exp, threads)
        .rows
        .rows()
        .unwrap_or_else(|| panic!("{exp} has another row type"))
}

/// `golden/<exp>.<ext>`.
fn golden(exp: &str, ext: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{exp}.{ext}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The table names every registry entry once, in registry order.
#[test]
fn every_registered_experiment_has_exactly_one_gate() {
    let gated: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(gated, registered, "the gate table drifted from the registry");
}

/// Every experiment the table simulates prints its golden `--json` line
/// and text table at each of its worker counts, and its JSON line round
/// trips. The runs are warmed concurrently first.
#[test]
fn every_experiment_matches_golden_at_each_of_its_worker_counts() {
    let runs: Vec<(&str, usize)> = GATES
        .iter()
        .flat_map(|g| g.workers.iter().map(move |&w| (g.name, w)))
        .collect();
    par_map(&runs, |&(exp, threads)| {
        run(exp, threads);
    });
    for &(exp, threads) in &runs {
        let rows = &run(exp, threads).rows;
        let line = rows.json(exp);
        assert_eq!(
            line,
            golden(exp, "json"),
            "{exp} --quick --json drifted from the golden corpus at {threads} worker(s)"
        );
        assert_eq!(
            rows.table(),
            golden(exp, "txt"),
            "{exp} --quick table drifted from the golden corpus at {threads} worker(s)"
        );
        assert_roundtrip(exp, &line);
    }
}

/// The fig11 flight-recorder document, as
/// `reproduce fig11 --quick --json --trace` writes `TRACE_fig11.json`,
/// at each of fig11's worker counts. The binary's capture also brackets
/// the JSON rendering, which records nothing: it only formats row fields.
/// fig11 exercises the transport/net event paths, where per-job recorder
/// folding is the only thing standing between the ring and
/// completion-order nondeterminism.
#[test]
fn fig11_trace_matches_golden_at_each_of_its_worker_counts() {
    let golden = include_str!("golden/TRACE_fig11.json");
    for &threads in gate_of("fig11").workers {
        assert_eq!(
            run("fig11", threads).tel().to_json("fig11"),
            golden,
            "fig11 --trace document drifted from the golden corpus at {threads} worker(s)"
        );
    }
}

/// Every traced experiment's `counters` array, cut from its `--trace`
/// document, matches its line of the golden file at each of its worker
/// counts. Together these traces carry 35 of the 37 counter names a
/// quick trace can show; the other two appear only in `recovery`, which
/// is CI-gated.
#[test]
fn trace_counters_match_golden_at_each_worker_count() {
    let golden: Vec<(&str, &str)> = include_str!("golden/trace_counters.json")
        .lines()
        .filter_map(|line| {
            let (name, _) = line.strip_prefix('"')?.split_once('"')?;
            Some((name, line.trim_end_matches(',')))
        })
        .collect();
    let traced = GATES.iter().filter(|g| g.traced);
    let mut names: Vec<&str> = traced.clone().map(|g| g.name).collect();
    let mut golden_names: Vec<&str> = golden.iter().map(|&(name, _)| name).collect();
    names.sort_unstable();
    golden_names.sort_unstable();
    assert_eq!(names, golden_names, "golden/trace_counters.json names the traced experiments");
    for g in traced {
        let (_, want) = golden.iter().find(|&&(name, _)| name == g.name).unwrap();
        for &threads in g.workers {
            let doc = run(g.name, threads).tel().to_json(g.name);
            let (_, counters) = doc.split_once(r#","counters":"#).expect("a counters field");
            let (counters, _) = counters
                .split_once(r#","recorder":"#)
                .expect("a recorder field");
            assert_eq!(
                format!("\"{}\":{counters}", g.name),
                *want,
                "{} trace counters drifted from the golden corpus at {threads} worker(s)",
                g.name
            );
        }
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
fn assert_roundtrip(name: &str, rendered: &str) {
    let first = json::parse(rendered).expect("valid JSON");
    let second = json::parse(&render(&first))
        .unwrap_or_else(|e| panic!("{name} re-render must stay parseable: {e}"));
    assert_eq!(first, second, "{name} rows must round-trip through parse/render");
}

fn to_json<T: json::ToJsonRow>(rows: &[T]) -> Vec<Value> {
    match json::parse(&json::rows_to_json(rows)).expect("valid JSON array") {
        Value::Arr(vals) => vals,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

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
    let other = b::recovery::Row {
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
    };
    assert_roundtrip("recovery", &json::rows_to_json(&[other]));
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
    let other = b::cluster::Row {
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
    };
    assert_roundtrip("cluster", &json::rows_to_json(&[row, other]));
}

#[test]
fn table1_rows_serialize_with_fields() {
    let rows: &[b::table1_comm::Row] = rows("table1", 8);
    let vals = to_json(rows);
    assert_eq!(vals.len(), 4);
    assert!(vals[0].get("dp_pct").is_some());
    assert!(vals[0].get("paper").is_some());
}

/// The fig8 trace must tell the same story as the figure itself: every
/// ATC lookup is either a hit or a walk, every DMA'd page contributes one
/// TLP-completion sample, and the hub's cache counters equal the
/// per-stage sample counts — the cross-layer attribution is
/// bookkeeping-exact, not approximate.
#[test]
fn fig8_trace_is_consistent_with_the_figure() {
    let tel = run("fig8", 1).tel();
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
    let tel = run("chaos", 1).tel();
    let posted = tel.hub.get(Subsystem::Transport, "msg.posted");
    let completed = tel.hub.get(Subsystem::Transport, "msg.completed");
    assert_eq!(posted - completed, 8, "messages left incomplete");
    assert_eq!(tel.stage(Stage::TransportMsg).count() as u64, completed);
}

/// Every strict run is checked by whichever test asks for it first; a
/// violation panics with the full report.
#[test]
fn quick_experiments_hold_every_invariant_in_strict_mode() {
    for g in GATES.iter().filter(|g| g.strict) {
        for &threads in g.workers {
            run(g.name, threads);
        }
    }
}

/// Every job's checks reach its run's scope at any worker count: each
/// strict run counts the same nonzero number of checks at each of its
/// worker counts.
#[test]
fn strict_runs_count_the_same_checks_at_each_worker_count() {
    for g in GATES.iter().filter(|g| g.strict) {
        let checks: Vec<u64> = g.workers.iter().map(|&t| run(g.name, t).checks_run).collect();
        assert!(checks[0] > 0, "{} ran no invariant checks", g.name);
        assert!(
            checks.iter().all(|&c| c == checks[0]),
            "{} checks differ across {:?} workers: {checks:?}",
            g.name,
            g.workers
        );
    }
}

#[test]
fn fig6_shape() {
    let rows: &[b::fig06_startup::Row] = rows("fig6", 8);
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
    let rows: &[b::fig08_atc::Row] = rows("fig8", 8);
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
    let rows: &[b::fig09_permutation::Row] = rows("fig9", 8);
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
    let rows: &[b::fig10_background::Row] = rows("fig10", 8);
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
    let rows: &[b::fig11_failures::Row] = rows("fig11", 8);
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
    let rows: &[b::fig12_imbalance::Row] = rows("fig12", 8);
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
    let rows: &[b::fig13_micro::Row] = rows("fig13", 8);
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
    let rows: &[b::fig14_gdr::Row] = rows("fig14", 8);
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
    for r in rows::<b::fig15_virt::Row>("fig15", 8) {
        assert!(r.overhead.abs() < 0.01, "{}: overhead {}", r.job, r.overhead);
        assert!(r.regular_ms > 0.0);
    }
}

#[test]
fn fig16_shape() {
    let rows: &[b::fig16_llm::Row] = rows("fig16", 8);
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
    let rows: &[b::table1_comm::Row] = rows("table1", 8);
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
    for r in rows::<b::table1_comm::Row>("table1", 8) {
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
    let rows: &[b::timeline::Row] = rows("timeline", 8);
    let single = &rows[0];
    let obs = &rows[1];
    // Spray barely notices; single path dips then recovers.
    assert!(obs.during_gbs > obs.before_gbs * 0.6);
    assert!(single.during_gbs < single.before_gbs);
    assert!(single.after_gbs > single.during_gbs);
}

#[test]
fn claims_hold() {
    let rows: &[b::claims::Row] = rows("claims", 8);
    let get = |claim: &str| rows.iter().find(|r| r.claim.contains(claim)).unwrap();
    let t = get("creation time");
    assert!((1.4..2.0).contains(&t.measured), "t={}", t.measured);
    assert_eq!(get("supported per RNIC").measured, 65_536.0);
    assert_eq!(get("extra PCIe BDFs").measured, 0.0);
    assert_eq!(get("memory per SR-IOV").measured, 2.4);
}

#[test]
fn chaos_table_shape() {
    let rows: &[b::chaos::Row] = rows("chaos", 8);
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
