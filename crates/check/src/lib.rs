//! # stellar-check — cross-layer invariant engine
//!
//! Every layer of the reproduction keeps redundant accounting: the fabric
//! counts packets it injects and delivers, the PCIe fabric counts TLP
//! requests and completions, the MTT tracks entry totals next to the
//! per-region tables, the transport mirrors in-flight bytes next to the
//! in-flight map. A silent conservation bug in any of them would bend
//! every figure's shape while the unit tests stay green. This crate turns
//! that redundancy into *checked* invariants: each layer registers its
//! conservation laws in [`INVARIANTS`] and evaluates them at simulation
//! quiesce points (end of a transport run, end of a DMA operation, end of
//! a telemetry capture), reporting violations as structured,
//! sim-time-stamped [`Violation`]s.
//!
//! ## Gating (identical discipline to `stellar-telemetry`)
//!
//! Checks are off by default. Layer code calls [`at_quiesce`]
//! unconditionally; when no [`capture`] scope is active the call is one
//! relaxed atomic load and a branch — no closure runs, no event schedule
//! changes, so default runs are byte-identical with the engine compiled
//! in. [`capture`] enables collection for a scope (including `par` work
//! pool jobs on other threads — the gate is process-global, unlike
//! telemetry's per-thread context, because violations are exceptional
//! and order-normalized rather than folded); [`strict`] additionally
//! panics with a rendered report if any check failed, which is how the
//! engine runs under `cargo test` and `reproduce --check`.
//!
//! ## Determinism
//!
//! A [`CheckReport`] sorts violations by `(sim time, layer, invariant,
//! detail)` before rendering, so the report bytes are independent of
//! worker-thread interleaving. Scopes are process-global: concurrent
//! captures (e.g. parallel tests) share one collector, so deliberate
//! violation tests must use [`collect`], which touches no global state.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use stellar_sim::SimTime;

/// The layer an invariant belongs to (and the order reports group by).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Packet fabric: links, drops, ECN.
    Net,
    /// PCIe: TLP routing, IOMMU, ATS.
    Pcie,
    /// RNIC: MTT/eMTT, doorbells, DMA.
    Rnic,
    /// Multipath transport: windows, retries, scoreboard.
    Transport,
    /// Telemetry: span open/close balance.
    Telemetry,
    /// Virtualisation: PVDMA pinning.
    Virt,
    /// Cluster scheduler: slot booking, admission, tenant lifecycle.
    Cluster,
}

impl Layer {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Pcie => "pcie",
            Layer::Rnic => "rnic",
            Layer::Transport => "transport",
            Layer::Telemetry => "telemetry",
            Layer::Virt => "virt",
            Layer::Cluster => "cluster",
        }
    }
}

/// One registered invariant: what it asserts and where.
#[derive(Debug, Clone, Copy)]
pub struct InvariantSpec {
    /// Owning layer.
    pub layer: Layer,
    /// Stable dotted name (`layer.law`), the key check sites use.
    pub name: &'static str,
    /// One-line statement of the conservation law.
    pub description: &'static str,
}

/// The registry of every invariant the engine knows. Check sites may only
/// report against names listed here ([`Checker::check`] panics otherwise),
/// so this table *is* the documentation of what `--check` verifies —
/// DESIGN.md §7 mirrors it.
pub const INVARIANTS: &[InvariantSpec] = &[
    InvariantSpec {
        layer: Layer::Net,
        name: "net.packet_conservation",
        description: "packets injected into the fabric == packets delivered + per-DropReason drops",
    },
    InvariantSpec {
        layer: Layer::Net,
        name: "net.byte_conservation",
        description: "bytes injected into the fabric == bytes delivered + bytes dropped",
    },
    InvariantSpec {
        layer: Layer::Net,
        name: "net.fluid_capacity",
        description: "max-min fair-share allocations on every fluid constraint resource sum to <= its capacity, and every active flow holds a positive rate",
    },
    InvariantSpec {
        layer: Layer::Net,
        name: "net.fluid_flow_conservation",
        description: "fluid flows opened == flows retired + flows active",
    },
    InvariantSpec {
        layer: Layer::Net,
        name: "net.fluid_flow_index",
        description: "the fluid flow table's hashed index, slab and key-ordered live list agree: every live key maps to its slot, the list strictly increases by key, and no free slot is listed",
    },
    InvariantSpec {
        layer: Layer::Net,
        name: "net.blacklist_readmit",
        description: "every blacklisted path and quarantined plane carries a bounded readmission deadline — nothing is blacklisted forever",
    },
    InvariantSpec {
        layer: Layer::Pcie,
        name: "pcie.tlp_completion_matching",
        description: "TLP route requests == P2P completions + RC completions + routing faults",
    },
    InvariantSpec {
        layer: Layer::Pcie,
        name: "pcie.at_field_legality",
        description: "no untranslated TLP is ever switched peer-to-peer (ACS: only AT=translated may skip the IOMMU)",
    },
    InvariantSpec {
        layer: Layer::Rnic,
        name: "rnic.mtt_entry_accounting",
        description: "MTT used-entry counter == sum of per-region entry-table lengths",
    },
    InvariantSpec {
        layer: Layer::Rnic,
        name: "rnic.mtt_lookup_accounting",
        description: "MTT misses never exceed lookups",
    },
    InvariantSpec {
        layer: Layer::Rnic,
        name: "rnic.doorbell_accounting",
        description: "doorbell pages allocated + free-listed == pages carved from the BAR",
    },
    InvariantSpec {
        layer: Layer::Transport,
        name: "transport.inflight_bytes",
        description: "per-connection in-flight byte gauge == sum of bytes of packets in the in-flight map",
    },
    InvariantSpec {
        layer: Layer::Transport,
        name: "transport.retry_budget",
        description: "no in-flight packet has been retransmitted more times than the retry budget",
    },
    InvariantSpec {
        layer: Layer::Transport,
        name: "transport.stats_conservation",
        description: "per-connection delivered packets and retransmits never exceed sent packets",
    },
    InvariantSpec {
        layer: Layer::Transport,
        name: "transport.idle_quiescence",
        description: "an idle connection holds no unsent or in-flight packets and a zero in-flight gauge",
    },
    InvariantSpec {
        layer: Layer::Transport,
        name: "transport.recovery_exactly_once",
        description: "across any number of recoveries, receiver bitmaps count each packet once: placed packets == delivered packets, completions == completed bitmaps, and no bitmap overfills",
    },
    InvariantSpec {
        layer: Layer::Telemetry,
        name: "telemetry.span_balance",
        description: "spans opened == spans closed + leaked + still open",
    },
    InvariantSpec {
        layer: Layer::Virt,
        name: "virt.pvdma_accounting",
        description: "PVDMA resident map-cache entries never exceed pinned blocks",
    },
    InvariantSpec {
        layer: Layer::Cluster,
        name: "cluster.slot_capacity",
        description: "no NIC slot is ever double-booked: every slot is held by at most one admitted tenant, and the free-slot gauge equals capacity minus booked slots",
    },
    InvariantSpec {
        layer: Layer::Cluster,
        name: "cluster.admitted_capacity",
        description: "ranks of concurrently admitted tenants never exceed the cluster's NIC slot capacity",
    },
    InvariantSpec {
        layer: Layer::Cluster,
        name: "cluster.departed_quiesced",
        description: "every departed tenant's connections are quiesced: idle, not recovering, and holding no terminal error",
    },
];

/// Look up an invariant by its dotted name.
pub fn spec(name: &str) -> Option<&'static InvariantSpec> {
    INVARIANTS.iter().find(|s| s.name == name)
}

/// One failed check: where, when, which law, and the numbers that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sim time of the quiesce point that caught it.
    pub at: SimTime,
    /// Owning layer.
    pub layer: Layer,
    /// Registered invariant name.
    pub invariant: &'static str,
    /// The concrete mismatch (left/right values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} violated {}: {}",
            self.at,
            self.layer.name(),
            self.invariant,
            self.detail
        )
    }
}

/// Everything one [`capture`] scope observed.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Individual checks evaluated inside the scope.
    pub checks_run: u64,
    /// Violations, sorted by `(at, layer, invariant, detail)`.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line report (stable byte-for-byte given the
    /// same violations, regardless of thread count).
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariant checks: {} run, {} violation(s)\n",
            self.checks_run,
            self.violations.len()
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

/// Process-global count of open capture scopes (the gate).
static ACTIVE: AtomicU32 = AtomicU32::new(0);
/// Checks evaluated while any scope was open.
static CHECKS_RUN: AtomicU64 = AtomicU64::new(0);
/// Violations collected while any scope was open.
static VIOLATIONS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

/// Whether any capture scope is open. One relaxed load and a branch —
/// the entire cost of a quiesce point in a default run.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// Evaluates checks at one quiesce point; layer code builds one, runs its
/// assertions through [`Checker::check`], and the engine keeps the tally.
#[derive(Debug)]
pub struct Checker {
    at: SimTime,
    layer: Layer,
    checks: u64,
    violations: Vec<Violation>,
}

impl Checker {
    /// A checker for `layer`'s quiesce point at sim time `at`.
    pub fn new(at: SimTime, layer: Layer) -> Self {
        Checker {
            at,
            layer,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Record one check of `invariant`. `detail` is only rendered on
    /// failure (so callers can format the mismatching numbers lazily).
    ///
    /// # Panics
    /// Panics if `invariant` is not in [`INVARIANTS`] — an unregistered
    /// check site is a bug in the instrumentation, not a violation.
    pub fn check(&mut self, invariant: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let spec = spec(invariant)
            .unwrap_or_else(|| panic!("check site uses unregistered invariant {invariant:?}"));
        assert_eq!(
            spec.layer, self.layer,
            "invariant {invariant:?} belongs to {:?}, checked from {:?}",
            spec.layer, self.layer
        );
        self.checks += 1;
        if !ok {
            self.violations.push(Violation {
                at: self.at,
                layer: self.layer,
                invariant,
                detail: detail(),
            });
        }
    }

    /// Checks evaluated so far.
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// Consume the checker, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

/// Run `f` against a fresh [`Checker`] unconditionally (no gate, no
/// global state): `(checks_run, violations)`. This is the entry point
/// for tests that *expect* violations — it cannot contaminate a
/// concurrently open [`capture`] scope.
pub fn collect(
    at: SimTime,
    layer: Layer,
    f: impl FnOnce(&mut Checker),
) -> (u64, Vec<Violation>) {
    let mut c = Checker::new(at, layer);
    f(&mut c);
    (c.checks, c.into_violations())
}

/// A quiesce point: when a scope is open, evaluate `f`'s checks and fold
/// the outcome into the open scope(s); otherwise return immediately
/// (one atomic load + branch). Layer code calls this unconditionally.
#[inline]
pub fn at_quiesce(at: SimTime, layer: Layer, f: impl FnOnce(&mut Checker)) {
    if !enabled() {
        return;
    }
    let (n, violations) = collect(at, layer, f);
    CHECKS_RUN.fetch_add(n, Ordering::Relaxed);
    if !violations.is_empty() {
        VIOLATIONS
            .lock()
            .expect("violation collector lock")
            .extend(violations);
    }
}

fn sort_key(v: &Violation) -> (SimTime, &'static str, &'static str, &str) {
    (v.at, v.layer.name(), v.invariant, v.detail.as_str())
}

/// Run `f` with invariant collection enabled, returning its result and
/// the [`CheckReport`]. The gate is process-global, so checks inside
/// `stellar_sim::par` jobs on worker threads participate too. Scopes may
/// nest (the report drains at every scope exit); concurrent scopes share
/// the collector.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, CheckReport) {
    struct Gate;
    impl Drop for Gate {
        fn drop(&mut self) {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let gate = Gate;
    let out = f();
    drop(gate);
    let mut violations =
        std::mem::take(&mut *VIOLATIONS.lock().expect("violation collector lock"));
    violations.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    let report = CheckReport {
        checks_run: CHECKS_RUN.swap(0, Ordering::Relaxed),
        violations,
    };
    (out, report)
}

/// Run `f` with collection enabled and panic with the rendered report if
/// any invariant was violated — how the engine runs under `cargo test`
/// and `reproduce --check`.
pub fn strict<R>(f: impl FnOnce() -> R) -> R {
    let (out, report) = capture(f);
    assert!(report.is_clean(), "{}", report.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn registry_names_are_unique_dotted_and_layer_prefixed() {
        let mut names: Vec<&str> = INVARIANTS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len(), "duplicate invariant name");
        for s in INVARIANTS {
            let prefix = format!("{}.", s.layer.name());
            assert!(
                s.name.starts_with(&prefix),
                "{} must be prefixed with its layer ({})",
                s.name,
                prefix
            );
            assert!(!s.description.is_empty());
        }
    }

    #[test]
    fn disabled_quiesce_runs_nothing() {
        assert!(!enabled());
        at_quiesce(t(1), Layer::Net, |_| {
            panic!("closure must not run while disabled")
        });
    }

    #[test]
    fn collect_reports_failures_without_globals() {
        let (n, v) = collect(t(42), Layer::Net, |c| {
            c.check("net.packet_conservation", true, || unreachable!());
            c.check("net.byte_conservation", false, || "10 != 7 + 2".to_string());
        });
        assert_eq!(n, 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "net.byte_conservation");
        assert_eq!(v[0].at, t(42));
        assert!(v[0].to_string().contains("10 != 7 + 2"), "{}", v[0]);
    }

    #[test]
    #[should_panic(expected = "unregistered invariant")]
    fn unregistered_invariant_is_a_bug() {
        let _ = collect(t(0), Layer::Net, |c| {
            c.check("net.not_a_law", true, String::new);
        });
    }

    #[test]
    #[should_panic(expected = "belongs to")]
    fn wrong_layer_is_a_bug() {
        let _ = collect(t(0), Layer::Net, |c| {
            c.check("rnic.mtt_entry_accounting", true, String::new);
        });
    }

    #[test]
    fn capture_scopes_gate_and_drain() {
        let ((), report) = capture(|| {
            assert!(enabled());
            at_quiesce(t(5), Layer::Rnic, |c| {
                c.check("rnic.mtt_lookup_accounting", true, || unreachable!());
            });
        });
        assert!(!enabled());
        assert!(report.is_clean());
        assert!(report.checks_run >= 1);
    }

    #[test]
    fn report_renders_sorted_and_stable() {
        let mk = |ns, inv: &'static str, d: &str| Violation {
            at: t(ns),
            layer: Layer::Net,
            invariant: inv,
            detail: d.to_string(),
        };
        let mut r = CheckReport {
            checks_run: 3,
            violations: vec![
                mk(9, "net.packet_conservation", "b"),
                mk(2, "net.byte_conservation", "a"),
            ],
        };
        r.violations.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
        let text = r.render();
        let first = text.find("byte_conservation").unwrap();
        let second = text.find("packet_conservation").unwrap();
        assert!(first < second, "sorted by time first:\n{text}");
        assert!(text.starts_with("invariant checks: 3 run, 2 violation(s)"));
    }

    #[test]
    fn strict_passes_clean_scopes() {
        let v = strict(|| {
            at_quiesce(t(1), Layer::Telemetry, |c| {
                c.check("telemetry.span_balance", true, || unreachable!());
            });
            7u32
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn spec_lookup() {
        assert!(spec("transport.retry_budget").is_some());
        assert!(spec("transport.nonexistent").is_none());
    }
}
