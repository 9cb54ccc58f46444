//! # stellar-telemetry — deterministic flight recorder + latency attribution
//!
//! A unified observability layer for the Stellar reproduction. Three
//! pieces, all fed through one thread-local recording context:
//!
//! * a **flight recorder** ([`FlightRecorder`]) — a bounded ring of the
//!   [`RING_CAPACITY`] most recent typed, *sim-time-stamped*
//!   [`TraceEvent`]s tagged with a [`Subsystem`] and an [`Entity`] (QP,
//!   connection, link, page …);
//! * **stage samples** — one latency histogram per [`Stage`] (doorbell →
//!   DMA fetch, DMA → TLP completion, IOMMU/ATS walk vs ATC hit, fabric
//!   queueing, transport RTT and message latency …), fed durations the
//!   instrumented layer has already measured;
//! * a **metrics hub** ([`MetricsHub`]) — named per-subsystem counters
//!   (the `DropReason` taxonomy, scoreboard blacklists, cache hit/miss,
//!   retry budgets) exported via the in-tree json writer.
//!
//! ## Usage
//!
//! Instrumented crates call [`event`] and [`stage_sample`]
//! unconditionally; each is a thread-local on/off check followed by an
//! early return when recording is off (the default), so the disabled
//! cost is one TLS read and a branch. Counters have one home, the
//! layer's own stats: their owners [`fold_counters`] once, when they
//! drop. Recording is scoped: [`capture`] installs a context, runs a
//! closure, and returns the closure's result together with the
//! collected [`Telemetry`].
//!
//! ## Determinism (non-negotiable, see DESIGN.md §6)
//!
//! Events carry **sim time only** — never wall clock. A capture is a
//! `stellar_sim::par` [`ScopeKind`] scope: under the work pool every job
//! records into a *fresh* private context, and the pool folds job
//! contexts back into the caller **in job order** at every thread count
//! — including the inline single-thread path, which brackets each job
//! identically so bounded ring-drop behaviour cannot differ. The rendered
//! JSON is therefore byte-identical at every `STELLAR_THREADS` value.

#![warn(missing_docs)]

mod export;
mod hub;
mod recorder;

pub use hub::MetricsHub;
pub use recorder::{FlightRecorder, TraceEvent};

use std::cell::{Cell, RefCell};

use stellar_sim::par::{Scope, ScopeKind};
use stellar_sim::stats::Histogram;
use stellar_sim::{SimDuration, SimTime};

/// Flight-recorder ring capacity: a capture keeps this many most recent
/// events.
pub const RING_CAPACITY: usize = 4096;

/// The subsystem that recorded an event or counter. Ordered (and
/// rendered) in rough dataflow order: host bus → NIC → fabric →
/// transport → virtualisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// PCIe: IOMMU/IOTLB walks, ATS/ATC, TLP routing.
    Pcie,
    /// RNIC: doorbells, DMA engine.
    Rnic,
    /// Fabric: links, drops, ECN, fault plans.
    Net,
    /// Transport: connections, RTO/retransmit, scoreboard.
    Transport,
    /// Virtualisation: RunD boot, PVDMA pinning.
    Virt,
}

impl Subsystem {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Pcie => "pcie",
            Subsystem::Rnic => "rnic",
            Subsystem::Net => "net",
            Subsystem::Transport => "transport",
            Subsystem::Virt => "virt",
        }
    }
}

/// The entity a [`TraceEvent`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// No specific entity (subsystem-wide event).
    None,
    /// A queue pair / doorbell slot.
    Qp(u32),
    /// A transport connection.
    Conn(u32),
    /// A fabric link.
    Link(u32),
    /// A transport path id within a connection.
    Path(u32),
    /// A (guest or IO) page address.
    Page(u64),
    /// A message id.
    Msg(u64),
    /// A device (GPU / NIC) id.
    Dev(u32),
}

impl Entity {
    /// Render as the compact `kind:id` form used in JSON output.
    pub fn render(self) -> String {
        match self {
            Entity::None => "-".to_string(),
            Entity::Qp(id) => format!("qp:{id}"),
            Entity::Conn(id) => format!("conn:{id}"),
            Entity::Link(id) => format!("link:{id}"),
            Entity::Path(id) => format!("path:{id}"),
            Entity::Page(addr) => format!("page:{addr:#x}"),
            Entity::Msg(id) => format!("msg:{id}"),
            Entity::Dev(id) => format!("dev:{id}"),
        }
    }
}

/// A latency-attribution stage: one bucket of the cross-layer breakdown.
///
/// Stages follow a message's life: doorbell ring → DMA fetch → per-page
/// TLP completion (with the translation path attributed separately as
/// ATC hit / ATS walk / IOTLB hit / IOMMU walk) → fabric queueing →
/// transport RTT and whole-message latency — plus the virtualisation
/// pinning cost that gates the datapath at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Doorbell ring to DMA descriptor fetch (per-message NIC overhead).
    DoorbellDmaFetch,
    /// DMA issue to TLP completion, per page (wire + translation + fabric).
    DmaTlpCompletion,
    /// Address translation served from the device ATC.
    AtcHit,
    /// Address translation requiring a full ATS round trip to the IOMMU.
    AtsWalk,
    /// IOMMU translation served from the IOTLB.
    IotlbHit,
    /// IOMMU translation requiring a page-table walk.
    IommuWalk,
    /// Time spent queued behind fabric link backlogs.
    FabricQueueing,
    /// Transport-measured packet round-trip time (send → ACK).
    TransportRtt,
    /// Whole-message transport latency (post → completion), as the
    /// transport measures it when a message completes.
    TransportMsg,
    /// Memory-pinning cost (VFIO full pin or PVDMA on-demand blocks).
    VirtPin,
}

impl Stage {
    /// All stages, in rendering order.
    pub const ALL: [Stage; 10] = [
        Stage::DoorbellDmaFetch,
        Stage::DmaTlpCompletion,
        Stage::AtcHit,
        Stage::AtsWalk,
        Stage::IotlbHit,
        Stage::IommuWalk,
        Stage::FabricQueueing,
        Stage::TransportRtt,
        Stage::TransportMsg,
        Stage::VirtPin,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::DoorbellDmaFetch => "doorbell_dma_fetch",
            Stage::DmaTlpCompletion => "dma_tlp_completion",
            Stage::AtcHit => "atc_hit",
            Stage::AtsWalk => "ats_walk",
            Stage::IotlbHit => "iotlb_hit",
            Stage::IommuWalk => "iommu_walk",
            Stage::FabricQueueing => "fabric_queueing",
            Stage::TransportRtt => "transport_rtt",
            Stage::TransportMsg => "transport_msg",
            Stage::VirtPin => "virt_pin",
        }
    }

    /// Index into [`Stage::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Everything one [`capture`] scope collected.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The bounded event ring.
    pub recorder: FlightRecorder,
    /// Per-stage latency histograms, indexed by [`Stage::index`].
    stages: [Histogram; Stage::ALL.len()],
    /// Named per-subsystem counters.
    pub hub: MetricsHub,
}

impl Default for Telemetry {
    /// An empty telemetry context (nothing recorded yet).
    fn default() -> Self {
        Telemetry {
            recorder: FlightRecorder::new(RING_CAPACITY),
            stages: Default::default(),
            hub: MetricsHub::default(),
        }
    }
}

impl Telemetry {
    /// The latency histogram accumulated for `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }
}

impl Scope for Telemetry {
    /// Fold `other` (a child job's context) into `self`, in job order:
    /// ring events append (re-bounded), histograms take the multiset
    /// union, counters add.
    fn merge(&mut self, other: Telemetry) {
        self.recorder.merge(other.recorder);
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
        self.hub.merge(&other.hub);
    }
}

thread_local! {
    /// Open capture scopes, innermost last.
    static STACK: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
    /// Whether [`STACK`] is non-empty: the hot-path gate.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

const SCOPES: ScopeKind<Telemetry> = ScopeKind::new(STACK, ACTIVE);

/// Whether a [`capture`] scope is recording on this thread. Call sites
/// use this to skip argument construction entirely.
#[inline]
pub fn enabled() -> bool {
    SCOPES.enabled()
}

/// Add the `(name, value)` pairs `counters` returns to the counters
/// under `sub` in the innermost capture; `counters` runs only inside a
/// capture, and must not record telemetry itself. A layer's owner calls
/// this once, when it drops, with the totals of its native counters, so
/// an owner that outlives its capture reports nothing to it.
pub fn fold_counters<I: IntoIterator<Item = (&'static str, u64)>>(
    sub: Subsystem,
    counters: impl FnOnce() -> I,
) {
    SCOPES.with_innermost(|t| {
        for (name, n) in counters() {
            t.hub.add(sub, name, n);
        }
    });
}

/// Record a flight-recorder event at sim time `at`. No-op when disabled.
///
/// Event-loop subsystems stamp absolute sim time; synchronous latency
/// models (the DMA engine, IOMMU, ATC) have no global clock and stamp
/// operation-relative offsets instead — the taxonomy documents which.
#[inline]
pub fn event(at: SimTime, sub: Subsystem, entity: Entity, kind: &'static str, value: u64) {
    SCOPES.with_innermost(|t| {
        t.recorder.record(TraceEvent {
            at,
            subsystem: sub,
            entity,
            kind,
            value,
        })
    });
}

/// Attribute a measured duration to `stage`. No-op when disabled.
#[inline]
pub fn stage_sample(stage: Stage, d: SimDuration) {
    SCOPES.with_innermost(|t| t.stages[stage.index()].record_duration(d));
}

/// Run `f` with recording on, returning its result and the collected
/// [`Telemetry`]. Nested `stellar_sim::par` pools inside `f` fold their
/// jobs' recordings back in job order, so the result is byte-identical
/// at every thread count. Captures may nest; the innermost wins. The
/// scope closes even if `f` panics.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Telemetry) {
    SCOPES.capture(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_sim::par::{par_map, with_thread_override};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        assert!(!enabled());
        fold_counters(Subsystem::Net, || [("drop.random_loss", 3)]);
        event(t(5), Subsystem::Net, Entity::Link(1), "drop", 1);
        stage_sample(Stage::TransportRtt, SimDuration::from_nanos(10));
        // Nothing to observe — the point is it does not panic and a
        // subsequent capture starts clean.
        let ((), tel) = capture(|| {});
        assert!(tel.hub.is_empty());
        assert_eq!(tel.recorder.len(), 0);
    }

    #[test]
    fn capture_collects_counters_events_and_samples() {
        let ((), tel) = capture(|| {
            assert!(enabled());
            fold_counters(Subsystem::Transport, || [("rto", 2), ("rtt", 0)]);
            fold_counters(Subsystem::Transport, || [("rto", 1)]);
            event(t(10), Subsystem::Transport, Entity::Conn(0), "rto", 1);
            stage_sample(Stage::TransportMsg, SimDuration::from_nanos(100));
            stage_sample(Stage::AtcHit, SimDuration::from_nanos(10));
        });
        assert!(!enabled());
        assert_eq!(tel.hub.get(Subsystem::Transport, "rto"), 3);
        assert_eq!(tel.hub.len(), 1, "a zero total adds no counter");
        assert_eq!(tel.recorder.len(), 1);
        let h = tel.stage(Stage::TransportMsg);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentiles().max(), Some(100));
        assert_eq!(tel.stage(Stage::AtcHit).count(), 1);
    }

    #[test]
    fn captures_nest_innermost_wins() {
        let ((), outer) = capture(|| {
            fold_counters(Subsystem::Net, || [("outer", 1)]);
            let ((), inner) = capture(|| {
                fold_counters(Subsystem::Net, || [("inner", 1)]);
            });
            assert_eq!(inner.hub.get(Subsystem::Net, "inner"), 1);
            assert_eq!(inner.hub.get(Subsystem::Net, "outer"), 0);
            fold_counters(Subsystem::Net, || [("outer", 1)]);
        });
        assert_eq!(outer.hub.get(Subsystem::Net, "outer"), 2);
        assert_eq!(outer.hub.get(Subsystem::Net, "inner"), 0);
    }

    #[test]
    fn par_jobs_fold_in_job_order_at_any_thread_count() {
        let run = |threads: usize| {
            with_thread_override(threads, || {
                capture(|| {
                    let items: Vec<u64> = (0..6).collect();
                    par_map(&items, |&i| {
                        fold_counters(Subsystem::Rnic, || [("job", 1)]);
                        for k in 0..700 {
                            event(
                                t(i * 1_000 + k),
                                Subsystem::Rnic,
                                Entity::Qp(i as u32),
                                "op",
                                k,
                            );
                        }
                        stage_sample(Stage::DmaTlpCompletion, SimDuration::from_nanos(i));
                    });
                })
                .1
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.hub.get(Subsystem::Rnic, "job"), 6);
        assert_eq!(b.hub.get(Subsystem::Rnic, "job"), 6);
        // 4,200 events recorded into the 4,096-slot ring: both thread
        // counts must keep the *same* most-recent window, in the same order.
        let ev_a: Vec<String> = a
            .recorder
            .events()
            .map(|e| format!("{}:{}:{}", e.at.as_nanos(), e.entity.render(), e.value))
            .collect();
        let ev_b: Vec<String> = b
            .recorder
            .events()
            .map(|e| format!("{}:{}:{}", e.at.as_nanos(), e.entity.render(), e.value))
            .collect();
        assert_eq!(ev_a, ev_b);
        assert_eq!(a.recorder.recorded(), 4_200);
        assert_eq!(a.recorder.dropped(), 104);
        assert_eq!(
            a.stage(Stage::DmaTlpCompletion).percentiles().sum(),
            b.stage(Stage::DmaTlpCompletion).percentiles().sum()
        );
    }

    #[test]
    fn a_panicking_capture_closes_its_scope() {
        let caught = std::panic::catch_unwind(|| capture(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!enabled(), "the panicked scope is still open");
    }

    #[test]
    fn a_panicking_inline_job_closes_its_scope() {
        let ((), tel) = capture(|| {
            let caught = std::panic::catch_unwind(|| {
                with_thread_override(1, || par_map(&[0u8], |_| panic!("boom")))
            });
            assert!(caught.is_err());
            // Lands in the job's scope if the panic left it open.
            fold_counters(Subsystem::Net, || [("after", 1)]);
        });
        assert_eq!(tel.hub.get(Subsystem::Net, "after"), 1);
        assert!(!enabled());
    }

    #[test]
    fn entity_render_forms() {
        assert_eq!(Entity::None.render(), "-");
        assert_eq!(Entity::Conn(3).render(), "conn:3");
        assert_eq!(Entity::Page(0x2000).render(), "page:0x2000");
    }

    #[test]
    fn stage_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
