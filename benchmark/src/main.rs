//! `benchmark` — end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --list
//! ```
//!
//! Every measurement is a *pass*: one cold child process (this binary,
//! re-executed with `--pass`) that runs all of the workload's scenarios
//! once on a single work-pool worker and prints one JSON record. A fresh
//! process per pass keeps the allocator cold, as it is for a user of
//! `reproduce`; warm in-process repeats of the large jobs run markedly
//! faster and would flatter every number.
//!
//! With `--trace 0` the parent runs untraced passes until `--seconds`
//! have elapsed and reports the end-to-end metrics: `wall_s`, the sum
//! over scenarios of each scenario's fastest run; `setup_s`, the median
//! of every pass's set-up replays; `peak_rss_mb`, the median peak RSS.
//! The work is deterministic, so the fastest run of a scenario is the one
//! other tenants of the host disturbed least. With `--trace 1` it
//! alternates untraced and traced passes and reports the per-layer
//! breakdown of the fastest traced pass, whose parts sum to its wall.
//! The next-to-last stdout line is a JSON detail object (output digest,
//! per-scenario wall times, counters that may be zero); the last line is
//! the result object. Exit code 2 means a bad command line.

mod timed;
mod workloads;

use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stellar_check::CheckReport;
use stellar_sim::hash::FastHasher;
use stellar_sim::json::{self, Arr, Obj, Value};
use stellar_sim::par::{events_scheduled_here, take_queue_depth_peak, with_thread_override};

use timed::{Mode, Plain, Traced, KINDS};
use workloads::{Scenario, WORKLOADS};

/// End-to-end metrics, from the untraced passes: `(name, unit)`.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics in the result line, from the traced passes. Only
/// metrics that are non-zero on every workload are listed; per-kind
/// splits and counters that can be zero go to the detail line.
const PER_LAYER: [(&str, &str); 19] = [
    ("sim.events", "count"),
    ("sim.peak_queue_depth", "count"),
    ("net.sends", "count"),
    ("net.send_s", "s"),
    ("net.ns_per_send", "ns"),
    ("net.packet.sends", "count"),
    ("net.packet.send_s", "s"),
    ("net.packet.ns_per_send", "ns"),
    ("net.other_s", "s"),
    ("net.share_pct", "%"),
    ("net.delivered_pkts", "count"),
    ("net.topology.build_s", "s"),
    ("net.fabric.build_s", "s"),
    ("transport.self_s", "s"),
    ("transport.ns_per_event", "ns"),
    ("check.checks_run", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.timer_ns", "ns"),
];

/// Set-up replays per untraced pass; `setup_s` is the median of all
/// replays in the run.
const SETUP_REPLAYS: usize = 5;

/// Which kind of pass a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Untraced,
    Traced,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Untraced => "untraced",
            Pass::Traced => "traced",
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    list: bool,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one pass in this process (the parent sets this on its
    /// children).
    pass: Option<Pass>,
}

/// Strict parser: only the documented flags, each with a valid value,
/// and a known workload. Anything else is an error (exit code 2).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        list: false,
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
        pass: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            parsed.list = true;
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = parse_u64(&flag, &value()?)?,
            "--seconds" => {
                parsed.seconds = parse_u64(&flag, &value()?)?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            "--pass" => {
                parsed.pass = Some(match value()?.as_str() {
                    "untraced" => Pass::Untraced,
                    "traced" => Pass::Traced,
                    v => return Err(format!("--pass takes untraced or traced, got '{v}'")),
                })
            }
            _ => {
                return Err(format!(
                    "unknown argument '{flag}'; expected --workload, --seed, --seconds, \
                     --trace or --list"
                ))
            }
        }
    }
    if !parsed.list && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}'; expected one of: {}",
            parsed.workload,
            WORKLOADS.join(" ")
        ));
    }
    Ok(parsed)
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a whole number, got '{v}'"))
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One scenario's run inside a pass.
struct ScenarioRun {
    wall: Duration,
    /// The outcome, or the panic message.
    outcome: Result<workloads::Outcome, String>,
    events: u64,
    peak_queue_depth: u64,
    checks: CheckReport,
}

/// Run every scenario once with fabrics built by `M`. The work pool is
/// pinned to one worker so that, on a small machine, the numbers measure
/// the simulator and not the scheduler.
fn run_pass<M: Mode>(scenarios: &[Scenario]) -> (Duration, Vec<ScenarioRun>) {
    with_thread_override(1, || {
        let t0 = Instant::now();
        let runs = scenarios
            .iter()
            .map(|s| {
                take_queue_depth_peak();
                let ev0 = events_scheduled_here();
                let t = Instant::now();
                let run = || catch_unwind(AssertUnwindSafe(|| workloads::run::<M>(&s.spec)));
                let (result, checks) = if M::TRACED {
                    stellar_check::capture(run)
                } else {
                    (run(), CheckReport::default())
                };
                ScenarioRun {
                    wall: t.elapsed(),
                    outcome: result.map_err(|p| {
                        p.downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "panicked".into())
                    }),
                    events: events_scheduled_here() - ev0,
                    peak_queue_depth: take_queue_depth_peak(),
                    checks,
                }
            })
            .collect();
        (t0.elapsed(), runs)
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write(bytes);
    h.finish()
}

/// Run one pass in this process and render its record: a flat
/// `metrics` object and one entry per scenario.
fn pass_record(scenarios: &[Scenario], pass: Pass) -> Result<String, String> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));
    let mut setup = Arr::new();
    let runs = match pass {
        Pass::Untraced => {
            let (_, runs) = run_pass::<Plain>(scenarios);
            put("peak_rss_mb", peak_rss_mb()?);
            let ledger = timed::take();
            for _ in 0..SETUP_REPLAYS {
                setup = setup.push_f64(timed::replay_setup(&ledger).as_secs_f64());
            }
            runs
        }
        Pass::Traced => {
            let (inside_ns, whole_ns) = timed::calibrate_timer();
            timed::take();
            let (wall, runs) = run_pass::<Traced>(scenarios);
            let l = timed::take();
            let secs =
                |span: timed::Span| (span.ns as f64 - span.calls as f64 * inside_ns).max(0.0) / 1e9;
            let wall_s = wall.as_secs_f64();
            let events: u64 = runs.iter().map(|r| r.events).sum();
            let mut send_s = 0.0;
            let mut sends = 0u64;
            let mut net_s = 0.0;
            for (kind, spans) in KINDS.iter().zip(&l.kinds) {
                let k = kind.name();
                let s = secs(spans.send);
                put(&format!("net.{k}.sends"), spans.send.calls as f64);
                put(&format!("net.{k}.send_s"), s);
                put(
                    &format!("net.{k}.ns_per_send"),
                    s * 1e9 / spans.send.calls.max(1) as f64,
                );
                send_s += s;
                sends += spans.send.calls;
                net_s += secs(spans.total());
            }
            let advance_s: f64 = l.kinds.iter().map(|k| secs(k.advance)).sum();
            let build_s = (l.topology_build + l.fabric_build).as_secs_f64();
            let timer_s = l.total().calls as f64 * whole_ns / 1e9;
            let transport_s = wall_s - net_s - build_s - timer_s;
            put("net.sends", sends as f64);
            put("net.send_s", send_s);
            put("net.ns_per_send", send_s * 1e9 / sends.max(1) as f64);
            put("net.advance_s", advance_s);
            put("net.other_s", net_s - send_s - advance_s);
            put("net.share_pct", net_s / wall_s * 100.0);
            put("net.delivered_pkts", l.delivered_pkts as f64);
            put(
                "net.loss_frac",
                1.0 - l.delivered_pkts as f64 / l.injected_pkts.max(1) as f64,
            );
            let hybrid_sends = l.flow.hybrid_packet_sends + l.flow.hybrid_fluid_sends;
            put("net.hybrid.escalations", l.flow.escalations as f64);
            put(
                "net.hybrid.escalation_share",
                l.flow.hybrid_packet_sends as f64 / hybrid_sends.max(1) as f64,
            );
            put("net.fluid.flows_opened", l.flow.flows_opened as f64);
            put("net.fluid.flows_retired", l.flow.flows_retired as f64);
            put("net.topology.build_s", l.topology_build.as_secs_f64());
            put("net.fabric.build_s", l.fabric_build.as_secs_f64());
            put("transport.self_s", transport_s);
            put(
                "transport.ns_per_event",
                transport_s * 1e9 / events.max(1) as f64,
            );
            put(
                "check.checks_run",
                runs.iter().map(|r| r.checks.checks_run).sum::<u64>() as f64,
            );
            put(
                "check.violations",
                runs.iter()
                    .map(|r| r.checks.violations.len())
                    .sum::<usize>() as f64,
            );
            put("trace.wall_s", wall_s);
            put("trace.timer_ns", whole_ns);
            runs
        }
    };
    let ok_runs = runs.iter().filter_map(|r| r.outcome.as_ref().ok());
    let sum = |f: fn(&workloads::TransportCounters) -> u64| -> f64 {
        ok_runs.clone().map(|o| f(&o.transport)).sum::<u64>() as f64
    };
    put("transport.rto_events", sum(|t| t.rto_events));
    put("transport.recoveries", sum(|t| t.recoveries));
    put("transport.replayed_packets", sum(|t| t.replayed_packets));
    put(
        "sim.events",
        runs.iter().map(|r| r.events).sum::<u64>() as f64,
    );
    put(
        "sim.peak_queue_depth",
        runs.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
    );

    let metrics = m
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.field_f64(k, *v))
        .finish();
    let mut arr = Arr::new();
    for (s, r) in scenarios.iter().zip(&runs) {
        let (verdict, report, headline) = match &r.outcome {
            Ok(o) => (o.verdict, o.report.as_str(), o.headline),
            Err(msg) => ("panicked", msg.as_str(), None),
        };
        if let Err(msg) = &r.outcome {
            eprintln!("benchmark: scenario {} panicked: {msg}", s.name);
        }
        for v in &r.checks.violations {
            eprintln!("benchmark: scenario {}: {v}", s.name);
        }
        let passed = r.outcome.is_ok()
            && workloads::verdict_passes(s.expect, verdict)
            && r.checks.is_clean();
        arr = arr.push_raw(
            &Obj::new()
                .field_str("name", &s.name)
                .field_f64("wall_s", r.wall.as_secs_f64())
                .field_str("verdict", verdict)
                .field_bool("passed", passed)
                .field_str("digest", &format!("{:016x}", digest(report.as_bytes())))
                .field_u64("events", r.events)
                .field_opt_f64("headline", headline)
                .finish(),
        );
    }
    Ok(Obj::new()
        .field_raw("metrics", &metrics)
        .field_raw("setup_s", &setup.finish())
        .field_raw("scenarios", &arr.finish())
        .finish())
}

/// Run one pass in a fresh child process; `None` if it failed.
fn spawn_pass(args: &Args, pass: Pass) -> Result<Option<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--pass", pass.name(), "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a {} pass: {e}", pass.name()))?;
    if !out.status.success() {
        eprintln!("benchmark: {} pass failed: {}", pass.name(), out.status);
        return Ok(None);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().and_then(|l| json::parse(l).ok()))
}

fn metric(record: &Value, key: &str) -> Option<f64> {
    record.get("metrics")?.get(key)?.as_f64()
}

fn entries(record: &Value) -> &[Value] {
    record
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

/// Each scenario's fastest wall time over `records`, in scenario order.
fn fastest_scenarios(records: &[&Value], scenarios: usize) -> Vec<f64> {
    (0..scenarios)
        .map(|i| {
            records
                .iter()
                .filter_map(|r| entries(r).get(i)?.get("wall_s")?.as_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The record with the smallest `key` metric.
fn fastest<'a>(records: &[&'a Value], key: &str) -> Option<&'a Value> {
    records
        .iter()
        .filter_map(|&r| Some((metric(r, key)?, r)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, r)| r)
}

/// Run passes in child processes until `--seconds` have elapsed, then
/// report them.
fn measure(args: &Args, scenarios: &[Scenario]) -> Result<(), String> {
    let start = Instant::now();
    let order: &[Pass] = if args.trace {
        &[Pass::Untraced, Pass::Traced]
    } else {
        &[Pass::Untraced]
    };
    let mut passes = Vec::new();
    loop {
        for &p in order {
            passes.push((p, spawn_pass(args, p)?));
        }
        if start.elapsed() >= Duration::from_secs(args.seconds) {
            return report(args, scenarios, &passes);
        }
    }
}

/// Aggregate the passes, print the detail line and the result line.
fn report(
    args: &Args,
    scenarios: &[Scenario],
    passes: &[(Pass, Option<Value>)],
) -> Result<(), String> {
    let of = |kind: Pass| -> Vec<&Value> {
        passes
            .iter()
            .filter(|(p, _)| *p == kind)
            .filter_map(|(_, v)| v.as_ref())
            .collect()
    };
    let (untraced, traced) = (of(Pass::Untraced), of(Pass::Traced));
    let reference = untraced.first().ok_or("no untraced pass completed")?;
    if args.trace && traced.is_empty() {
        return Err("no traced pass completed".into());
    }
    let ref_entries = entries(reference);
    let key = |e: &Value| (e.get("digest").cloned(), e.get("events").cloned());

    // A scenario run fails if it panicked, missed its verdict, broke an
    // invariant, or produced other bytes or another event count than the
    // reference (first untraced) pass: tracing must observe, never steer.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (_, rec) in passes {
        attempted += scenarios.len() as u64;
        let got = rec.as_ref().map(entries).unwrap_or_default();
        for i in 0..scenarios.len() {
            let ok = match (got.get(i), ref_entries.get(i)) {
                (Some(e), Some(r)) => {
                    e.get("passed").and_then(Value::as_bool) == Some(true) && key(e) == key(r)
                }
                _ => false,
            };
            failed += u64::from(!ok);
        }
    }

    let mut detail = Obj::new()
        .field_str("workload", &args.workload)
        .field_u64("seed", args.seed)
        .field_u64("untraced_passes", untraced.len() as u64)
        .field_u64("traced_passes", traced.len() as u64);
    let digests: String = ref_entries
        .iter()
        .filter_map(|e| e.get("digest")?.as_str())
        .collect();
    detail = detail
        .field_str(
            "output_digest",
            &format!("{:016x}", digest(digests.as_bytes())),
        )
        .field_opt_f64("events", metric(reference, "sim.events"));
    let headlines: Vec<(&str, Option<f64>)> = scenarios
        .iter()
        .zip(ref_entries)
        .map(|(s, e)| (s.name.as_str(), e.get("headline").and_then(Value::as_f64)))
        .collect();
    detail = detail.field_opt_f64("hybrid_error_pct", workloads::hybrid_error_pct(&headlines));
    let untraced_walls = fastest_scenarios(&untraced, scenarios.len());
    for (s, wall) in scenarios.iter().zip(&untraced_walls) {
        detail = detail.field_f64(&format!("scenario.{}.wall_s", s.name), *wall);
    }
    // Each scenario's fastest run, summed: other tenants of a shared host
    // slow bursts of a few seconds, and a scenario lasts well under one,
    // so across the run's passes nearly every scenario gets a clean run.
    let wall_s: f64 = untraced_walls.iter().sum();

    let mut metrics = Obj::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        eprintln!("benchmark: {name:<28} {value:>16.6} {unit}");
        metrics = std::mem::take(&mut metrics).field_raw(
            name,
            &Obj::new()
                .field_f64("value", value)
                .field_str("unit", unit)
                .finish(),
        );
    };
    let lacks = |name: &str| format!("a pass lacks {name}");
    if args.trace {
        let best = fastest(&traced, "trace.wall_s").ok_or_else(|| lacks("trace.wall_s"))?;
        if let Some(Value::Obj(fields)) = best.get("metrics") {
            for (name, v) in fields {
                if !PER_LAYER.iter().any(|(n, _)| n == name) {
                    detail = detail.field_opt_f64(name, v.as_f64());
                }
            }
        }
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_pct" => {
                    let traced_s: f64 = fastest_scenarios(&traced, scenarios.len()).iter().sum();
                    (traced_s / wall_s - 1.0) * 100.0
                }
                _ => metric(best, name).ok_or_else(|| lacks(name))?,
            };
            put(name, unit, value);
        }
    } else {
        let setup: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.get("setup_s")?.as_array())
            .flatten()
            .filter_map(Value::as_f64)
            .collect();
        let rss: Vec<f64> = untraced
            .iter()
            .filter_map(|r| metric(r, "peak_rss_mb"))
            .collect();
        if setup.is_empty() || rss.is_empty() {
            return Err(lacks("setup_s or peak_rss_mb"));
        }
        for (name, unit) in END_TO_END {
            let value = match name {
                "wall_s" => wall_s,
                "setup_s" => median(&setup),
                _ => median(&rss),
            };
            put(name, unit, value);
        }
    }
    println!("{}", detail.finish());
    println!(
        "{}",
        Obj::new()
            .field_bool("correct", failed == 0)
            .field_u64("attempted", attempted)
            .field_u64("failed", failed)
            .field_raw("metrics", &metrics.finish())
            .finish()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in WORKLOADS {
            println!("{w}");
        }
        return ExitCode::SUCCESS;
    }
    let scenarios =
        workloads::scenarios(&args.workload, args.seed).expect("parser checked the name");
    let result = match args.pass {
        Some(pass) => pass_record(&scenarios, pass).map(|rec| println!("{rec}")),
        None => measure(&args, &scenarios),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse(&[
            "--workload",
            "scale_hybrid",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                list: false,
                workload: "scale_hybrid".into(),
                seed: 7,
                seconds: 12,
                trace: true,
                pass: None,
            }
        );
        let d = parse(&["--workload", "recovery_fleet"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (0, 20, false));
        assert_eq!(
            parse(&["--pass", "traced", "--workload", "allreduce_packet"])
                .unwrap()
                .pass,
            Some(Pass::Traced)
        );
        assert!(parse(&["--list"]).unwrap().list);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for (args, needle) in [
            (&["--workload", "fig9"][..], "unknown workload 'fig9'"),
            (&[][..], "unknown workload ''"),
            (&["--workload", "scale_hybrid", "--frob"][..], "'--frob'"),
            (&["--workload", "scale_hybrid", "extra"][..], "'extra'"),
            (
                &["--workload", "scale_hybrid", "--seed"][..],
                "--seed needs a value",
            ),
            (
                &["--workload", "scale_hybrid", "--seed", "-1"][..],
                "whole number",
            ),
            (
                &["--workload", "scale_hybrid", "--seconds", "0"][..],
                "at least 1",
            ),
            (
                &["--workload", "scale_hybrid", "--trace", "yes"][..],
                "0 or 1",
            ),
            (
                &["--workload", "scale_hybrid", "--pass", "warm"][..],
                "untraced or traced",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
    }
}
