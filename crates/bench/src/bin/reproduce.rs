//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [<experiment>] [--quick] [--json] [--perf] [--trace] [--check] [--list]
//!   experiments: fig6 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!                fig16 table1 claims timeline chaos scale recovery
//!                cluster all
//! ```
//!
//! `--quick` runs scaled-down configurations (seconds instead of
//! minutes); `--json` emits machine-readable rows (used to build
//! EXPERIMENTS.md); `--list` prints the experiment names and exits;
//! `--perf` additionally re-runs everything on one thread and writes a
//! `BENCH_reproduce.json` wall-clock/event report in the working
//! directory; `--trace` runs each experiment under the
//! `stellar-telemetry` flight recorder and writes one
//! `TRACE_<experiment>.json` per selected experiment (stage latency
//! breakdowns, per-subsystem counters, and the tail of the event ring);
//! `--check` runs the selected experiments under the `stellar-check`
//! cross-layer invariant engine: stdout is byte-identical to an
//! unchecked run, a sim-time-stamped violation report goes to stderr,
//! and the exit code is 1 if any invariant was violated.
//!
//! Experiments run on the deterministic work pool (`stellar_sim::par`):
//! `STELLAR_THREADS` caps the worker count, and the printed bytes —
//! including every `TRACE_*.json` — are identical at every thread count:
//! results are collected into declaration-order slots before anything is
//! printed, and per-job telemetry folds in job order.

use std::time::Instant;

use stellar_bench as b;
use stellar_sim::json::{Arr, Obj};
use stellar_sim::par::{
    configured_threads, events_scheduled_here, note_queue_depth, par_map, take_queue_depth_peak,
    with_thread_override,
};
use stellar_telemetry::TelemetryConfig;

/// One reproducible experiment: a stable name plus a runner that returns
/// the fully rendered stdout bytes for the chosen mode.
///
/// `event_driven` says whether the experiment runs the discrete-event
/// simulator. Analytic experiments (closed-form models, no event queue)
/// report `null` for `events`/`events_per_sec`/`peak_queue_depth` in
/// the `--perf` report instead of a misleading `0`; an event-driven
/// experiment reporting zero events is treated as a harness bug and
/// fails the run.
struct Experiment {
    name: &'static str,
    event_driven: bool,
    run: fn(quick: bool, json: bool) -> String,
}

macro_rules! experiments {
    ($(($name:literal, $module:ident, $event_driven:literal)),* $(,)?) => {
        const EXPERIMENTS: &[Experiment] = &[
            $(Experiment {
                name: $name,
                event_driven: $event_driven,
                run: |quick, json| {
                    let rows = b::$module::run(quick);
                    if json {
                        b::json_line($name, &rows)
                    } else {
                        let mut out = b::$module::render(&rows);
                        out.push('\n');
                        out
                    }
                },
            },)*
        ];
    };
}

experiments![
    ("fig6", fig06_startup, false),
    ("fig8", fig08_atc, false),
    ("fig9", fig09_permutation, true),
    ("fig10", fig10_background, true),
    ("fig11", fig11_failures, true),
    ("fig12", fig12_imbalance, true),
    ("fig13", fig13_micro, false),
    ("fig14", fig14_gdr, false),
    ("fig15", fig15_virt, true),
    ("fig16", fig16_llm, true),
    ("table1", table1_comm, false),
    ("claims", claims, false),
    ("timeline", timeline, true),
    ("chaos", chaos, true),
    ("scale", scale, true),
    ("recovery", recovery, true),
    ("cluster", cluster, true),
];

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    quick: bool,
    json: bool,
    perf: bool,
    trace: bool,
    check: bool,
    list: bool,
    which: String,
}

/// Strict parser: only the documented flags are accepted, and at most one
/// experiment name. Anything else is an error (exit code 2 in `main`).
fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        json: false,
        perf: false,
        trace: false,
        check: false,
        list: false,
        which: String::new(),
    };
    for arg in args {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            "--perf" => parsed.perf = true,
            "--trace" => parsed.trace = true,
            "--check" => parsed.check = true,
            "--list" => parsed.list = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag '{flag}'; expected --quick, --json, --perf, \
                     --trace, --check or --list"
                ));
            }
            name if parsed.which.is_empty() => parsed.which = name.to_string(),
            extra => {
                return Err(format!(
                    "unexpected argument '{extra}' (experiment '{}' already selected)",
                    parsed.which
                ));
            }
        }
    }
    if parsed.which.is_empty() {
        parsed.which = "all".to_string();
    }
    Ok(parsed)
}

/// Per-experiment perf sample from one pass.
struct PerfRec {
    name: &'static str,
    event_driven: bool,
    wall_ms: f64,
    events: u64,
    peak_queue_depth: u64,
    /// The flight recorder's high-water mark; `None` when the pass ran
    /// untraced and there was no recorder to measure.
    ring_high_water: Option<u64>,
}

/// Run the selected experiments on the work pool; outputs come back in
/// declaration order regardless of completion order, so the printed bytes
/// are thread-count-invariant. With `trace`, each experiment runs under a
/// telemetry capture and its rendered `TRACE_*.json` document rides along
/// in the third element (declaration order, `None` when tracing is off).
fn run_selected(
    selected: &[&Experiment],
    quick: bool,
    json: bool,
    trace: bool,
) -> (Vec<String>, Vec<PerfRec>, Vec<Option<String>>) {
    let results = par_map(selected, |exp| {
        // Bracket the job with the queue-depth accumulator so `peak` is
        // this experiment's own high-water mark, then restore the running
        // maximum so the pool still folds the overall peak to the caller.
        let saved = take_queue_depth_peak();
        let t0 = Instant::now();
        let ev0 = events_scheduled_here();
        let (out, trace_doc, ring_high_water) = if trace {
            let (out, tel) =
                stellar_telemetry::capture(TelemetryConfig::default(), || (exp.run)(quick, json));
            let high_water = tel.recorder.high_water() as u64;
            (out, Some(tel.to_json(exp.name)), Some(high_water))
        } else {
            ((exp.run)(quick, json), None, None)
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let events = events_scheduled_here() - ev0;
        let peak = take_queue_depth_peak();
        note_queue_depth(saved.max(peak));
        PerfSample {
            out,
            wall_ms,
            events,
            peak_queue_depth: peak,
            ring_high_water,
            trace_doc,
            name: exp.name,
            event_driven: exp.event_driven,
        }
    });
    let mut outputs = Vec::with_capacity(results.len());
    let mut perf = Vec::with_capacity(results.len());
    let mut traces = Vec::with_capacity(results.len());
    for s in results {
        outputs.push(s.out);
        traces.push(s.trace_doc);
        perf.push(PerfRec {
            name: s.name,
            event_driven: s.event_driven,
            wall_ms: s.wall_ms,
            events: s.events,
            peak_queue_depth: s.peak_queue_depth,
            ring_high_water: s.ring_high_water,
        });
    }
    (outputs, perf, traces)
}

struct PerfSample {
    out: String,
    wall_ms: f64,
    events: u64,
    peak_queue_depth: u64,
    ring_high_water: Option<u64>,
    trace_doc: Option<String>,
    name: &'static str,
    event_driven: bool,
}

/// Peak resident set size of this process so far (`VmHWM`), in MB, or
/// `None` where `/proc/self/status` does not exist.
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

/// Build the `BENCH_reproduce.json` document from the threaded pass and
/// the single-thread baseline pass. Per-scenario `wall_ms` is the job's
/// own clock (under contention it includes time-sliced waiting); the
/// `total` block uses each pass's true elapsed wall, which is what the
/// speedup is measured on. When the threaded pass itself ran on one
/// worker there is nothing to compare, so `baseline_wall_ms` and
/// `speedup` are `null` (the baseline pass still runs: it is the
/// re-run identity check). `peak_rss_mb` is the process's `VmHWM` over
/// both passes, `null` where it cannot be read.
fn perf_report(
    quick: bool,
    threads: usize,
    elapsed_ms: f64,
    baseline_elapsed_ms: f64,
    peak_rss_mb: Option<f64>,
    perf: &[PerfRec],
    baseline: &[PerfRec],
) -> String {
    let compared = threads > 1;
    let mut scenarios = Arr::new();
    for (p, bp) in perf.iter().zip(baseline) {
        let secs = p.wall_ms / 1e3;
        // Analytic experiments never touch the event queue; their event
        // counters are structurally zero, not measured, so the report
        // says `null` instead of a misleading `0`.
        let obj = Obj::new()
            .field_str("name", p.name)
            .field_bool("event_driven", p.event_driven)
            .field_f64("wall_ms", p.wall_ms);
        let obj = if p.event_driven {
            obj.field_u64("events", p.events)
                .field_f64(
                    "events_per_sec",
                    if secs > 0.0 { p.events as f64 / secs } else { 0.0 },
                )
                .field_u64("peak_queue_depth", p.peak_queue_depth)
        } else {
            obj.field_raw("events", "null")
                .field_raw("events_per_sec", "null")
                .field_raw("peak_queue_depth", "null")
        };
        // The ring is only measured under --trace; untraced rows say so.
        let obj = match p.ring_high_water {
            Some(high_water) => obj.field_u64("ring_high_water", high_water),
            None => obj.field_raw("ring_high_water", "null"),
        };
        let obj = obj
            .field_opt_f64("baseline_wall_ms", compared.then_some(bp.wall_ms))
            .field_opt_f64("speedup", compared.then(|| bp.wall_ms / p.wall_ms.max(1e-9)));
        scenarios = scenarios.push_raw(&obj.finish());
    }
    let events: u64 = perf.iter().map(|p| p.events).sum();
    let secs = elapsed_ms / 1e3;
    let events_per_sec = if secs > 0.0 { events as f64 / secs } else { 0.0 };
    let total = Obj::new()
        .field_f64("wall_ms", elapsed_ms)
        .field_opt_f64("baseline_wall_ms", compared.then_some(baseline_elapsed_ms))
        .field_u64("events", events)
        .field_f64("events_per_sec", events_per_sec)
        .field_opt_f64(
            "speedup",
            compared.then(|| baseline_elapsed_ms / elapsed_ms.max(1e-9)),
        )
        .field_opt_f64("peak_rss_mb", peak_rss_mb);
    Obj::new()
        .field_u64("threads", threads as u64)
        .field_u64(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .field_raw("quick", if quick { "true" } else { "false" })
        .field_raw("scenarios", &scenarios.finish())
        .field_raw("total", &total.finish())
        .finish()
}

/// Reject silently-zero perf rows: an event-driven experiment that
/// schedules nothing means the instrumentation hooks came unplugged (the
/// exact failure mode that once shipped `events: 0` for live scenarios),
/// and a supposedly analytic experiment that *does* schedule events is
/// misclassified in the registry.
fn validate_perf(perf: &[PerfRec]) -> Result<(), String> {
    for p in perf {
        if p.event_driven && p.events == 0 {
            return Err(format!(
                "perf: event-driven experiment '{}' reported 0 events; \
                 scheduling instrumentation is broken",
                p.name
            ));
        }
        if !p.event_driven && p.events != 0 {
            return Err(format!(
                "perf: analytic experiment '{}' scheduled {} event(s); \
                 mark it event-driven in the registry",
                p.name, p.events
            ));
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    if args.list {
        for exp in EXPERIMENTS {
            println!("{}", exp.name);
        }
        return;
    }

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|exp| args.which == "all" || exp.name == args.which)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown experiment '{}'; expected one of: fig6 fig8 fig9 fig10 \
             fig11 fig12 fig13 fig14 fig15 fig16 table1 claims timeline chaos \
             scale recovery cluster all",
            args.which
        );
        std::process::exit(2);
    }

    let t0 = Instant::now();
    // With `--check` the same pass runs under an open stellar-check
    // capture scope: every quiesce point in every layer evaluates its
    // invariants, stdout stays byte-identical to an unchecked run, and
    // the violation report (sim-time-stamped, sorted) goes to stderr.
    let (run, check_report) = if args.check {
        let (run, report) =
            stellar_check::capture(|| run_selected(&selected, args.quick, args.json, args.trace));
        (run, Some(report))
    } else {
        (
            run_selected(&selected, args.quick, args.json, args.trace),
            None,
        )
    };
    let (outputs, perf, traces) = run;
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    for out in &outputs {
        print!("{out}");
    }

    if let Some(report) = &check_report {
        eprint!("check: {}", report.render());
        if !report.is_clean() {
            std::process::exit(1);
        }
    }

    if args.trace {
        for (exp, doc) in selected.iter().zip(&traces) {
            let doc = doc.as_ref().expect("tracing was on");
            let path = format!("TRACE_{}.json", exp.name);
            std::fs::write(&path, doc).expect("write TRACE json");
            eprintln!("trace: wrote {path}");
        }
    }

    if args.perf {
        let threads = configured_threads();
        let t1 = Instant::now();
        let (base_outputs, baseline, base_traces) =
            with_thread_override(1, || run_selected(&selected, args.quick, args.json, args.trace));
        let baseline_elapsed_ms = t1.elapsed().as_secs_f64() * 1e3;
        if outputs != base_outputs {
            eprintln!("error: output differs between {threads} thread(s) and 1 thread");
            std::process::exit(1);
        }
        if traces != base_traces {
            eprintln!("error: trace output differs between {threads} thread(s) and 1 thread");
            std::process::exit(1);
        }
        for pass in [&perf, &baseline] {
            if let Err(message) = validate_perf(pass) {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
        let report = perf_report(
            args.quick,
            threads,
            elapsed_ms,
            baseline_elapsed_ms,
            peak_rss_mb(),
            &perf,
            &baseline,
        );
        std::fs::write("BENCH_reproduce.json", &report).expect("write BENCH_reproduce.json");
        let speedup = if threads > 1 {
            format!(
                " vs {baseline_elapsed_ms:.1} ms on 1 (speedup {:.2}x)",
                baseline_elapsed_ms / elapsed_ms.max(1e-9)
            )
        } else {
            String::new()
        };
        eprintln!(
            "perf: {} scenario(s), {:.1} ms on {} thread(s){speedup}; wrote BENCH_reproduce.json",
            perf.len(),
            elapsed_ms,
            threads,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.which, "all");
        assert!(
            !args.quick && !args.json && !args.perf && !args.trace && !args.check && !args.list
        );
    }

    #[test]
    fn accepts_known_flags_in_any_order() {
        let args = parse(&["--json", "fig11", "--quick", "--perf", "--trace", "--check"]).unwrap();
        assert_eq!(args.which, "fig11");
        assert!(args.quick && args.json && args.perf && args.trace && args.check);
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = parse(&["fig11", "--jsn"]).unwrap_err();
        assert!(err.contains("--jsn"), "{err}");
        assert!(err.contains("--check"), "error must list --check: {err}");
    }

    #[test]
    fn rejects_second_experiment() {
        let err = parse(&["fig11", "fig12"]).unwrap_err();
        assert!(err.contains("fig12"), "{err}");
    }

    #[test]
    fn list_flag_parses() {
        assert!(parse(&["--list"]).unwrap().list);
    }

    fn rec(name: &'static str, event_driven: bool, events: u64) -> PerfRec {
        PerfRec {
            name,
            event_driven,
            wall_ms: 10.0,
            events,
            peak_queue_depth: if events > 0 { 7 } else { 0 },
            ring_high_water: None,
        }
    }

    #[test]
    fn analytic_experiments_report_null_not_zero() {
        // The six closed-form experiments must not pretend to have
        // measured zero events — their rows carry JSON nulls.
        let perf = [rec("fig6", false, 0), rec("fig9", true, 1000)];
        let base = [rec("fig6", false, 0), rec("fig9", true, 1000)];
        let report = perf_report(true, 8, 20.0, 40.0, Some(64.0), &perf, &base);
        assert!(
            report.contains(
                "\"event_driven\":false,\"wall_ms\":10.0,\"events\":null,\
                 \"events_per_sec\":null,\"peak_queue_depth\":null,\
                 \"ring_high_water\":null"
            ),
            "analytic row must carry nulls: {report}"
        );
        assert!(
            report.contains("\"events\":1000"),
            "event-driven row must keep real counts: {report}"
        );
        assert!(
            !report.contains("\"events\":0"),
            "no silently-zero events field anywhere: {report}"
        );
    }

    #[test]
    fn ring_high_water_is_null_unless_traced() {
        let untraced = [rec("fig9", true, 900)];
        let mut traced = [rec("fig9", true, 900)];
        traced[0].ring_high_water = Some(4096);
        let report = perf_report(true, 1, 10.0, 10.0, None, &untraced, &untraced);
        assert!(
            report.contains(
                "\"peak_queue_depth\":7,\"ring_high_water\":null,\
                 \"baseline_wall_ms\":null,\"speedup\":null}"
            ),
            "{report}"
        );
        let report = perf_report(true, 1, 10.0, 10.0, None, &traced, &untraced);
        assert!(report.contains("\"ring_high_water\":4096"), "{report}");
    }

    /// A 1-vs-1 comparison measures nothing: with one worker the
    /// speedup fields are `null`, with more they are real numbers, and
    /// `peak_rss_mb` is `null` only when it could not be read.
    #[test]
    fn speedup_is_null_on_one_worker_and_rss_is_reported() {
        let perf = [rec("fig9", true, 900)];
        let one = perf_report(true, 1, 10.0, 10.0, None, &perf, &perf);
        assert!(
            one.contains(
                "\"total\":{\"wall_ms\":10.0,\"baseline_wall_ms\":null,\"events\":900,\
                 \"events_per_sec\":90000.0,\"speedup\":null,\"peak_rss_mb\":null}"
            ),
            "{one}"
        );
        let mut slow = [rec("fig9", true, 900)];
        slow[0].wall_ms = 20.0;
        let two = perf_report(true, 2, 10.0, 20.0, Some(129.5), &perf, &slow);
        assert!(
            two.contains("\"ring_high_water\":null,\"baseline_wall_ms\":20.0,\"speedup\":2.0}"),
            "{two}"
        );
        assert!(
            two.contains(
                "\"total\":{\"wall_ms\":10.0,\"baseline_wall_ms\":20.0,\"events\":900,\
                 \"events_per_sec\":90000.0,\"speedup\":2.0,\"peak_rss_mb\":129.5}"
            ),
            "{two}"
        );
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn zero_events_on_an_event_driven_row_is_an_error() {
        let err = validate_perf(&[rec("fig9", true, 0)]).unwrap_err();
        assert!(err.contains("fig9") && err.contains("0 events"), "{err}");
    }

    #[test]
    fn events_on_an_analytic_row_is_an_error() {
        let err = validate_perf(&[rec("fig6", false, 3)]).unwrap_err();
        assert!(err.contains("fig6") && err.contains("3 event"), "{err}");
    }

    #[test]
    fn mixed_valid_rows_pass_validation() {
        validate_perf(&[rec("fig6", false, 0), rec("fig9", true, 14_470_309)]).unwrap();
    }

    #[test]
    fn registry_marks_exactly_the_analytic_experiments() {
        let analytic: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| !e.event_driven)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            analytic,
            ["fig6", "fig8", "fig13", "fig14", "table1", "claims"],
            "registry event_driven flags drifted from the bench modules"
        );
    }

    #[test]
    fn registry_has_every_documented_experiment() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                "fig15", "fig16", "table1", "claims", "timeline", "chaos", "scale",
                "recovery", "cluster"
            ]
        );
    }
}
