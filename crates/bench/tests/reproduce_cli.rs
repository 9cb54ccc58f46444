//! The `reproduce` command-line contract that `scripts/ci.sh` folds its
//! gates into: `all --quick --json --check --perf` on eight workers, run
//! from a scratch directory. This test drives the built binary the same
//! way on `fig13`, which is analytic and finishes in milliseconds.

use std::path::Path;
use std::process::Command;

use stellar_sim::json::{parse, Value};

#[test]
fn checked_perf_pass_writes_its_report_in_the_working_directory() {
    let repo_report = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_reproduce.json");
    let repo_before = std::fs::read(&repo_report).ok();
    let dir = std::env::temp_dir().join(format!("stellar-reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig13", "--quick", "--json", "--check", "--perf"])
        .env("STELLAR_THREADS", "8")
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce");
    let report = std::fs::read_to_string(dir.join("BENCH_reproduce.json"));
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    let golden = include_str!("golden/fig13.json");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
    // The report lands in the working directory, not in the repository.
    let report = report.expect("--perf writes BENCH_reproduce.json in the working directory");
    assert_eq!(std::fs::read(&repo_report).ok(), repo_before);

    // The CI queue floor divides each row's events by the 1-worker
    // re-run's wall time, so a multi-worker report must carry it.
    let report = parse(&report).expect("BENCH_reproduce.json parses");
    let scenarios = report.get("scenarios").and_then(Value::as_array).unwrap();
    assert_eq!(scenarios.len(), 1);
    for s in scenarios {
        let baseline = s.get("baseline_wall_ms").and_then(Value::as_f64);
        assert!(baseline.is_some_and(|ms| ms >= 0.0), "{report:?}");
    }
}
