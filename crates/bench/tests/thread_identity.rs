//! Determinism-under-parallelism gate: the rendered output of an
//! experiment must be byte-identical at every worker count. The work pool
//! only changes *when* a job executes, never *what* it computes — each job
//! derives all of its randomness from its own `SimRng` seed and results
//! are collected into declaration-order slots.
//!
//! One test covers table and JSON renderings of `fig11` (a parallel
//! multi-combo experiment with per-job RNGs) plus the JSON rows of the
//! seed-averaged `fig16`, at 1, 2 and 8 workers.

use stellar_bench as b;
use stellar_sim::json::rows_to_json;
use stellar_sim::par::with_thread_override;
use stellar_telemetry::{capture, Stage, Subsystem};

#[test]
fn fig11_and_fig16_bytes_are_thread_count_invariant() {
    let render_all = || {
        let fig11 = b::fig11_failures::run(true);
        let fig16 = b::fig16_llm::run(true);
        (
            b::fig11_failures::render(&fig11),
            rows_to_json(&fig11),
            rows_to_json(&fig16),
        )
    };
    let one = with_thread_override(1, render_all);
    let two = with_thread_override(2, render_all);
    let eight = with_thread_override(8, render_all);
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
    let render_trace = || {
        let (_, tel) = capture(|| b::fig11_failures::run(true));
        tel.to_json("fig11")
    };
    let one = with_thread_override(1, render_trace);
    let two = with_thread_override(2, render_trace);
    let eight = with_thread_override(8, render_trace);
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
    let (_, tel) = capture(|| b::fig08_atc::run(true));
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
    let (_, tel) = capture(|| b::chaos::run(true));
    let posted = tel.hub.get(Subsystem::Transport, "msg.posted");
    let completed = tel.hub.get(Subsystem::Transport, "msg.completed");
    assert_eq!(posted - completed, 8, "messages left incomplete");
    assert_eq!(tel.stage(Stage::TransportMsg).count() as u64, completed);
}
