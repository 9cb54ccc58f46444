//! Wall-clock benches: each experiment of `stellar_bench::EXPERIMENTS`,
//! under its `reproduce` name, run in `quick` mode and reported as a JSON
//! line (min/median/mean ns). A substring argument runs a subset, e.g.
//! `cargo bench -p stellar-bench --bench figures -- fig9`.

use std::hint::black_box;
use stellar_sim::bench_timer::Harness;

fn main() {
    let h = Harness::from_args();
    for exp in stellar_bench::EXPERIMENTS {
        h.bench(exp.name, || {
            black_box((exp.run)(true));
        });
    }
}
