#!/usr/bin/env python3
"""Compare the benchmark on two commits or two builds.

    python3 benchmark/compare.py A B [--runs K] [--seed N] [--trace 0|1]
                                     [--workloads w1,w2]

A and B are each a directory holding a checkout (with BENCHMARK.json at
its root) or a git commit of the repository this script lives in; a
commit is exported with `git archive` into `.bench_compare/<commit>` at
the repository root. Both sides are built first, each into its own
`.bench_build`, so no timed run pays for a build.

For every workload, K pairs run with seeds N, N+1, ..., N+K-1; pair i
gives both sides the same seed and alternates which side runs first.
The script prints each metric's median and quartiles per side, with the
spread (interquartile range over median), and flags:

  * an end-to-end metric whose B median is worse than A's by more than
    its bound in A's BENCHMARK.json;
  * an `output_digest`, event count, hybrid error or count metric that
    differs within a pair (outputs and deterministic counters must not
    move);
  * a run that failed, printed no result, or reported correct=false.

Exit status 1 if anything is flagged, else 0. Only the standard library
is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(spec):
    """A directory for `spec`: itself if it is one, else an export of the commit."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    commit = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", spec + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(REPO, ".bench_compare", commit[:12])
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", REPO, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {commit} failed")
    return dest


class Side:
    def __init__(self, label, spec):
        self.label = label
        self.dir = checkout(spec)
        with open(os.path.join(self.dir, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        self.env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(self.dir, ".bench_build"))

    def run(self, args):
        return subprocess.run(self.bench["command"] + args, cwd=self.dir, env=self.env,
                              capture_output=True, text=True)

    def build(self):
        out = self.run(["--list"])
        if out.returncode != 0:
            sys.exit(f"{self.label}: build failed\n{out.stderr}")

    def measure(self, workload, seed, trace, seconds):
        out = self.run(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)])
        lines = out.stdout.strip().splitlines()
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, ValueError):
            detail, result = None, None
        if out.returncode != 0 or result is None:
            sys.stderr.write(out.stderr)
            return None
        return detail, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--runs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    opts = ap.parse_args()
    if opts.runs < 1:
        ap.error("--runs must be at least 1")

    sides = [Side("A", opts.a), Side("B", opts.b)]
    bench = sides[0].bench
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        wanted = opts.workloads.split(",")
        unknown = sorted(set(wanted) - set(workloads))
        if unknown:
            ap.error(f"unknown workloads {unknown}; expected {workloads}")
        workloads = wanted
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for side in sides:
        side.build()

    flags = []
    for w in workloads:
        runs = {"A": [], "B": []}
        for i in range(opts.runs):
            seed = opts.seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            got = {s.label: s.measure(w, seed, opts.trace, bench["run_seconds"]) for s in order}
            for label, r in got.items():
                if r is None:
                    flags.append(f"{w} seed {seed}: side {label} produced no result")
                elif not r[1]["correct"] or r[1]["failed"]:
                    flags.append(f"{w} seed {seed}: side {label} reported "
                                 f"{r[1]['failed']}/{r[1]['attempted']} failed")
            if got["A"] and got["B"]:
                (da, ra), (db, rb) = got["A"], got["B"]
                for key in ("output_digest", "events", "hybrid_error_pct"):
                    if da.get(key) != db.get(key):
                        flags.append(f"{w} seed {seed}: {key} {da.get(key)} != {db.get(key)}")
                for name, m in ra["metrics"].items():
                    other = rb["metrics"].get(name)
                    if m["unit"] == "count" and (other is None or other["value"] != m["value"]):
                        flags.append(f"{w} seed {seed}: {name} {m['value']} != "
                                     f"{other and other['value']}")
            for label, r in got.items():
                if r:
                    runs[label].append(r[1]["metrics"])

        print(f"\n== {w}: {opts.runs} pairs, seeds {opts.seed}..{opts.seed + opts.runs - 1}, "
              f"trace {opts.trace}")
        print(f"{'metric':<26} {'unit':<6} {'A median':>12} {'A q1..q3':>23} {'spread':>7} "
              f"{'B median':>12} {'B q1..q3':>23} {'spread':>7} {'change':>8}  flag")
        names = list(runs["A"][0]) if runs["A"] else []
        for name in names:
            stats = {}
            for label in ("A", "B"):
                vals = [m[name]["value"] for m in runs[label] if name in m]
                if not vals:
                    break
                med = statistics.median(vals)
                q1, q3 = quartiles(vals)
                stats[label] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
            if len(stats) < 2:
                continue
            (ma, a1, a3, sa), (mb, b1, b3, sb) = stats["A"], stats["B"]
            change = mb / ma - 1 if ma else 0.0
            flag = ""
            bound = bounds.get(name)
            if bound:
                worse = change if bound["better"] == "lower" else -change
                if worse > bound["bound"]:
                    flag = f"WORSE than bound {bound['bound']:.0%}"
                    flags.append(f"{w}: {name} {change:+.1%} exceeds bound {bound['bound']:.0%}")
                elif max(sa, sb) > bound["bound"]:
                    flag = "unresolved: spread exceeds bound"
            unit = runs["A"][0][name]["unit"]
            print(f"{name:<26} {unit:<6} {ma:>12.6g} {a1:>11.5g}..{a3:<10.5g} {sa:>7.1%} "
                  f"{mb:>12.6g} {b1:>11.5g}..{b3:<10.5g} {sb:>7.1%} {change:>+8.1%}  {flag}")

    print()
    for f in flags:
        print("FLAG:", f)
    print("agree" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
