//! Deterministic fault-injection plans (§7.2 availability experiments).
//!
//! A [`FaultPlan`] is a seeded, time-ordered schedule of [`FaultEvent`]s
//! executed *inside* the simulation clock: every fabric applies
//! every event whose timestamp has been reached before forwarding the
//! next packet, so an identical seed and plan reproduce the exact same
//! drop sequence bit for bit. Test code never pokes link state mid-run —
//! faults are first-class scheduled events (the ATLAHS/SimBricks lesson:
//! ad-hoc pokes make failure behaviour unreproducible).
//!
//! The fault model covers the paper's §7.2 failure classes:
//!
//! * **complete link failure** — [`FaultEvent::LinkDown`] / `LinkUp`,
//!   including flap sequences ([`FaultPlan::flap`]) and seeded flap storms
//!   ([`FaultPlan::flap_storm`]);
//! * **optical-module degradation** — [`FaultEvent::DegradeRamp`], a loss
//!   probability that *ramps* over a window instead of jumping 0 → p
//!   (real optics dim gradually before they die);
//! * **switch failure** — [`FaultEvent::SwitchDown`]: every link touching
//!   the switch goes down atomically;
//! * **NIC-port failure** — [`FaultEvent::NicPortDown`]: both directions
//!   of one NIC⇄ToR port pair.

use stellar_sim::{SimDuration, SimRng, SimTime};

use crate::topology::{ClosTopology, LinkId, NicId, NodeId, NodeKind};

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The link goes administratively/physically down.
    LinkDown(LinkId),
    /// The link comes back up.
    LinkUp(LinkId),
    /// Every link touching the switch goes down atomically.
    SwitchDown(NodeId),
    /// Every link touching the switch comes back up.
    SwitchUp(NodeId),
    /// Both directions of the NIC's port on `plane` go down.
    NicPortDown {
        /// The NIC whose port fails.
        nic: NicId,
        /// Plane (port index) of the failing port.
        plane: u32,
    },
    /// Both directions of the NIC's port on `plane` come back.
    NicPortUp {
        /// The NIC whose port recovers.
        nic: NicId,
        /// Plane (port index) of the recovering port.
        plane: u32,
    },
    /// Set a constant random-loss probability on the link (clears any
    /// active degradation ramp). Drops count as
    /// [`crate::DropReason::RandomLoss`].
    SetLoss {
        /// Target link.
        link: LinkId,
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gradual optical degradation: the link's loss probability ramps
    /// linearly from `from` to `to` over `over`, then holds at `to`.
    /// Drops count as [`crate::DropReason::DegradedLink`].
    DegradeRamp {
        /// Target link.
        link: LinkId,
        /// Loss probability at the start of the ramp.
        from: f64,
        /// Loss probability at (and beyond) the end of the ramp.
        to: f64,
        /// Ramp window length.
        over: SimDuration,
    },
}

impl FaultEvent {
    /// Stable snake_case tag used by telemetry trace events.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::LinkDown(_) => "fault.link_down",
            FaultEvent::LinkUp(_) => "fault.link_up",
            FaultEvent::SwitchDown(_) => "fault.switch_down",
            FaultEvent::SwitchUp(_) => "fault.switch_up",
            FaultEvent::NicPortDown { .. } => "fault.nic_port_down",
            FaultEvent::NicPortUp { .. } => "fault.nic_port_up",
            FaultEvent::SetLoss { .. } => "fault.set_loss",
            FaultEvent::DegradeRamp { .. } => "fault.degrade_ramp",
        }
    }
}

/// Why a [`FaultPlan`] cannot run on a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// The event names a link, switch or NIC port the topology lacks.
    UnknownElement {
        /// When the event was scheduled.
        at: SimTime,
        /// The offending event.
        event: FaultEvent,
    },
    /// The event sets a loss probability outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// When the event was scheduled.
        at: SimTime,
        /// The offending event.
        event: FaultEvent,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownElement { at, event } => write!(
                f,
                "fault plan: {event:?} at {} ns names an element the topology lacks",
                at.as_nanos()
            ),
            FaultPlanError::ProbabilityOutOfRange { at, event } => write!(
                f,
                "fault plan: {event:?} at {} ns sets a loss probability outside [0, 1]",
                at.as_nanos()
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, time-ordered fault schedule.
///
/// Build with the chained helpers, then hand to
/// [`crate::Fabric::install_fault_plan`], which checks it with
/// [`FaultPlan::validate`]. Events with equal timestamps
/// apply in insertion order (stable sort), so a plan is a pure function
/// of its construction sequence and seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rng: SimRng,
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan. The seed drives every randomized builder
    /// ([`FaultPlan::flap_storm`]); two plans built by the same call
    /// sequence from the same seed are identical.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rng: SimRng::from_seed(seed).fork("fault-plan"),
            events: Vec::new(),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rebuild a plan from an explicit event list — the scenario
    /// shrinker's path back from a bisected event subset to an
    /// installable plan. The events are taken as-is (they are still
    /// stable-sorted by [`FaultPlan::into_events`] before execution), and
    /// the seed is recorded for replay bookkeeping; randomized builders
    /// called afterwards draw from a fresh stream seeded the same way as
    /// [`FaultPlan::new`].
    pub fn from_events(seed: u64, events: Vec<(SimTime, FaultEvent)>) -> Self {
        FaultPlan {
            seed,
            rng: SimRng::from_seed(seed).fork("fault-plan"),
            events,
        }
    }

    /// Schedule one event at `at`.
    pub fn at(mut self, at: SimTime, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Link down at `at`.
    pub fn link_down(self, at: SimTime, link: LinkId) -> Self {
        self.at(at, FaultEvent::LinkDown(link))
    }

    /// Link up at `at`.
    pub fn link_up(self, at: SimTime, link: LinkId) -> Self {
        self.at(at, FaultEvent::LinkUp(link))
    }

    /// Switch (and every attached link) down at `at`.
    pub fn switch_down(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, FaultEvent::SwitchDown(node))
    }

    /// NIC port (both directions) down at `at`.
    pub fn nic_port_down(self, at: SimTime, nic: NicId, plane: u32) -> Self {
        self.at(at, FaultEvent::NicPortDown { nic, plane })
    }

    /// A regular square-wave flap: starting at `start`, the link spends
    /// `down_for` down and `up_for` up, `cycles` times, ending up.
    pub fn flap(
        mut self,
        link: LinkId,
        start: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        cycles: u32,
    ) -> Self {
        let mut t = start;
        for _ in 0..cycles {
            self.events.push((t, FaultEvent::LinkDown(link)));
            t += down_for;
            self.events.push((t, FaultEvent::LinkUp(link)));
            t += up_for;
        }
        self
    }

    /// A seeded flap storm: `flaps` down/up pairs spread over
    /// `[start, start + window)`, each hitting a link drawn uniformly from
    /// `links` and staying down for a duration drawn uniformly from
    /// `[min_down, max_down]`. Fully determined by the plan seed.
    pub fn flap_storm(
        mut self,
        links: &[LinkId],
        start: SimTime,
        window: SimDuration,
        flaps: u32,
        min_down: SimDuration,
        max_down: SimDuration,
    ) -> Self {
        assert!(!links.is_empty(), "flap storm needs target links");
        assert!(max_down >= min_down, "max_down must be >= min_down");
        for _ in 0..flaps {
            let link = *self.rng.choice(links);
            let offset = self.rng.below(window.as_nanos().max(1));
            let span = max_down.as_nanos() - min_down.as_nanos();
            let down_ns = min_down.as_nanos() + if span > 0 { self.rng.below(span + 1) } else { 0 };
            let down_at = start + SimDuration::from_nanos(offset);
            let up_at = down_at + SimDuration::from_nanos(down_ns);
            self.events.push((down_at, FaultEvent::LinkDown(link)));
            self.events.push((up_at, FaultEvent::LinkUp(link)));
        }
        self
    }

    /// A cascade of switch deaths: each switch in `switches` dies
    /// `spacing` after the previous one, starting at `start`. None
    /// recover (replacement hardware takes hours, not simulated).
    pub fn cascade(mut self, switches: &[NodeId], start: SimTime, spacing: SimDuration) -> Self {
        let mut t = start;
        for &node in switches {
            self.events.push((t, FaultEvent::SwitchDown(node)));
            t += spacing;
        }
        self
    }

    /// Gradual optical degradation starting at `at`.
    pub fn degrade(
        self,
        at: SimTime,
        link: LinkId,
        from: f64,
        to: f64,
        over: SimDuration,
    ) -> Self {
        assert!((0.0..=1.0).contains(&from) && (0.0..=1.0).contains(&to));
        self.at(at, FaultEvent::DegradeRamp { link, from, to, over })
    }

    /// Check every event against `topo`: each named link, switch and NIC
    /// port must exist, and each loss probability must lie in `[0, 1]`.
    /// Reports the first offending event in insertion order.
    pub fn validate(&self, topo: &ClosTopology) -> Result<(), FaultPlanError> {
        let link_ok = |l: LinkId| (l.0 as usize) < topo.total_links();
        let switch_ok = |n: NodeId| {
            (n.0 as usize) < topo.total_nodes()
                && !matches!(topo.node_kind(n), NodeKind::Nic { .. })
        };
        let port_ok = |nic: NicId, plane: u32| {
            (nic.0 as usize) < topo.total_nics() && (plane as usize) < topo.config().planes
        };
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p);
        for &(at, event) in &self.events {
            let (exists, probs_ok) = match event {
                FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) => (link_ok(l), true),
                FaultEvent::SwitchDown(n) | FaultEvent::SwitchUp(n) => (switch_ok(n), true),
                FaultEvent::NicPortDown { nic, plane } | FaultEvent::NicPortUp { nic, plane } => {
                    (port_ok(nic, plane), true)
                }
                FaultEvent::SetLoss { link, p } => (link_ok(link), prob_ok(p)),
                FaultEvent::DegradeRamp { link, from, to, .. } => {
                    (link_ok(link), prob_ok(from) && prob_ok(to))
                }
            };
            if !exists {
                return Err(FaultPlanError::UnknownElement { at, event });
            }
            if !probs_ok {
                return Err(FaultPlanError::ProbabilityOutOfRange { at, event });
            }
        }
        Ok(())
    }

    /// The events in execution order (stable-sorted by time).
    pub fn into_events(mut self) -> Vec<(SimTime, FaultEvent)> {
        self.events.sort_by_key(|&(t, _)| t);
        self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timestamp of the last scheduled transition, if any. For a
    /// [`FaultEvent::DegradeRamp`] this is the *end* of the ramp — the
    /// time after which no further fault state changes occur.
    pub fn last_transition(&self) -> Option<SimTime> {
        self.events
            .iter()
            .map(|&(t, ev)| match ev {
                FaultEvent::DegradeRamp { over, .. } => t + over,
                _ => t,
            })
            .max()
    }

    /// When the fabric has recovered its steady state, given the control
    /// plane's `bgp_convergence`. Per event class:
    ///
    /// * a down event followed by a matching up event recovers at the up
    ///   (a restored link forwards immediately — no reconvergence);
    /// * a down event with *no* matching up recovers when BGP routes
    ///   around the dead element (`down time + bgp_convergence`);
    /// * a [`FaultEvent::DegradeRamp`] "recovers" at the end of its ramp —
    ///   the loss then holds at its final value, which is the new steady
    ///   state (a dim optic stays dim until ops replace it);
    /// * up events and [`FaultEvent::SetLoss`] take effect instantly.
    ///
    /// `None` for an empty plan.
    pub fn recovery_time(&self, bgp_convergence: SimDuration) -> Option<SimTime> {
        let recovers = |t: SimTime, ev: FaultEvent| -> SimTime {
            // Earliest matching up event at or after the down.
            let matching_up = |down: FaultEvent| -> Option<SimTime> {
                self.events
                    .iter()
                    .filter(|&&(tu, _)| tu >= t)
                    .filter_map(|&(tu, up)| match (down, up) {
                        (FaultEvent::LinkDown(a), FaultEvent::LinkUp(b)) if a == b => Some(tu),
                        (FaultEvent::SwitchDown(a), FaultEvent::SwitchUp(b)) if a == b => {
                            Some(tu)
                        }
                        (
                            FaultEvent::NicPortDown { nic: a, plane: pa },
                            FaultEvent::NicPortUp { nic: b, plane: pb },
                        ) if a == b && pa == pb => Some(tu),
                        _ => None,
                    })
                    .min()
            };
            match ev {
                FaultEvent::LinkDown(_)
                | FaultEvent::SwitchDown(_)
                | FaultEvent::NicPortDown { .. } => {
                    matching_up(ev).unwrap_or(t + bgp_convergence)
                }
                FaultEvent::DegradeRamp { over, .. } => t + over,
                FaultEvent::LinkUp(_)
                | FaultEvent::SwitchUp(_)
                | FaultEvent::NicPortUp { .. }
                | FaultEvent::SetLoss { .. } => t,
            }
        };
        self.events
            .iter()
            .map(|&(t, ev)| recovers(t, ev))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1000)
    }

    #[test]
    fn events_sort_stably_by_time() {
        let plan = FaultPlan::new(1)
            .link_down(us(20), LinkId(2))
            .link_down(us(10), LinkId(0))
            .link_up(us(10), LinkId(1));
        let evs = plan.into_events();
        assert_eq!(evs[0], (us(10), FaultEvent::LinkDown(LinkId(0))));
        // Equal timestamps keep insertion order.
        assert_eq!(evs[1], (us(10), FaultEvent::LinkUp(LinkId(1))));
        assert_eq!(evs[2], (us(20), FaultEvent::LinkDown(LinkId(2))));
    }

    #[test]
    fn flap_emits_paired_transitions() {
        let plan = FaultPlan::new(1).flap(
            LinkId(3),
            us(100),
            SimDuration::from_micros(10),
            SimDuration::from_micros(5),
            3,
        );
        let evs = plan.into_events();
        assert_eq!(evs.len(), 6);
        let downs = evs
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::LinkDown(_)))
            .count();
        assert_eq!(downs, 3);
        // Strictly alternating down/up for a single-link square wave.
        for pair in evs.chunks(2) {
            assert!(matches!(pair[0].1, FaultEvent::LinkDown(_)));
            assert!(matches!(pair[1].1, FaultEvent::LinkUp(_)));
            assert!(pair[1].0 > pair[0].0);
        }
    }

    #[test]
    fn flap_storm_is_seed_deterministic() {
        let mk = |seed| {
            FaultPlan::new(seed)
                .flap_storm(
                    &[LinkId(0), LinkId(1), LinkId(2)],
                    us(0),
                    SimDuration::from_millis(1),
                    8,
                    SimDuration::from_micros(50),
                    SimDuration::from_micros(200),
                )
                .into_events()
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(42), mk(43));
    }

    #[test]
    fn last_transition_extends_past_ramp_window() {
        let plan = FaultPlan::new(0)
            .link_down(us(10), LinkId(0))
            .degrade(us(5), LinkId(1), 0.0, 0.2, SimDuration::from_micros(100));
        assert_eq!(plan.last_transition(), Some(us(105)));
    }

    #[test]
    fn recovery_time_per_event_class() {
        let bgp = SimDuration::from_micros(2000);
        // Flap: down@10, up@20 → recovered at the up, no BGP needed.
        let flap = FaultPlan::new(0)
            .link_down(us(10), LinkId(0))
            .link_up(us(20), LinkId(0));
        assert_eq!(flap.recovery_time(bgp), Some(us(20)));
        // Permanent death: down@10, never up → down + bgp.
        let dead = FaultPlan::new(0).link_down(us(10), LinkId(0));
        assert_eq!(dead.recovery_time(bgp), Some(us(2010)));
        // Ramp: steady state at the end of the ramp window.
        let dim = FaultPlan::new(0).degrade(
            us(5),
            LinkId(1),
            0.0,
            0.2,
            SimDuration::from_micros(100),
        );
        assert_eq!(dim.recovery_time(bgp), Some(us(105)));
        // Mixed: the max governs.
        let both = FaultPlan::new(0)
            .link_down(us(10), LinkId(0))
            .link_up(us(20), LinkId(0))
            .switch_down(us(30), NodeId(3));
        assert_eq!(both.recovery_time(bgp), Some(us(2030)));
        assert_eq!(FaultPlan::new(0).recovery_time(bgp), None);
    }

    fn topo() -> ClosTopology {
        ClosTopology::build(crate::ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        })
    }

    #[test]
    fn validate_rejects_loss_probabilities_outside_the_unit_range() {
        let topo = topo();
        let set = FaultEvent::SetLoss {
            link: LinkId(0),
            p: 1.5,
        };
        assert_eq!(
            FaultPlan::new(0).at(us(5), set).validate(&topo),
            Err(FaultPlanError::ProbabilityOutOfRange {
                at: us(5),
                event: set
            })
        );
        for (from, to) in [(-0.1, 0.5), (0.0, 2.0), (f64::NAN, 0.5)] {
            let ramp = FaultEvent::DegradeRamp {
                link: LinkId(1),
                from,
                to,
                over: SimDuration::from_micros(10),
            };
            let plan = FaultPlan::from_events(0, vec![(us(1), ramp)]);
            assert!(
                matches!(
                    plan.validate(&topo),
                    Err(FaultPlanError::ProbabilityOutOfRange { .. })
                ),
                "ramp {from} -> {to} must be rejected"
            );
        }
        let edges = FaultPlan::new(0)
            .at(
                us(1),
                FaultEvent::SetLoss {
                    link: LinkId(0),
                    p: 1.0,
                },
            )
            .degrade(us(2), LinkId(0), 0.0, 1.0, SimDuration::from_micros(5));
        assert_eq!(edges.validate(&topo), Ok(()));
    }

    #[test]
    fn validate_rejects_elements_the_topology_lacks() {
        let topo = topo();
        let nic = topo.nic(0, 0);
        let bad = [
            FaultEvent::LinkDown(LinkId(topo.total_links() as u32)),
            FaultEvent::LinkUp(LinkId(u32::MAX)),
            FaultEvent::SetLoss {
                link: LinkId(topo.total_links() as u32),
                p: 0.1,
            },
            // A NIC is not a switch.
            FaultEvent::SwitchDown(NodeId(nic.0)),
            FaultEvent::SwitchUp(NodeId(u32::MAX)),
            FaultEvent::NicPortDown { nic, plane: 2 },
            FaultEvent::NicPortUp {
                nic: NicId(topo.total_nics() as u32),
                plane: 0,
            },
        ];
        for event in bad {
            let plan = FaultPlan::new(0)
                .link_down(us(1), LinkId(0))
                .at(us(9), event);
            assert_eq!(
                plan.validate(&topo),
                Err(FaultPlanError::UnknownElement { at: us(9), event }),
                "{event:?} must be rejected"
            );
        }
        let good = FaultPlan::new(0)
            .switch_down(us(1), topo.agg_node(1, 3))
            .switch_down(us(2), topo.tor_node(1, 0, 1))
            .nic_port_down(us(3), nic, 1);
        assert_eq!(good.validate(&topo), Ok(()));
    }

    #[test]
    #[should_panic(expected = "names an element the topology lacks")]
    fn installing_a_bad_plan_panics_with_the_error() {
        use crate::{Fabric, Network, NetworkConfig};
        let mut net = Network::new(topo(), NetworkConfig::default(), SimRng::from_seed(0));
        net.install_fault_plan(FaultPlan::new(0).link_down(us(1), LinkId(u32::MAX)));
    }

    #[test]
    fn cascade_spaces_switch_deaths() {
        let plan = FaultPlan::new(0).cascade(
            &[NodeId(7), NodeId(9)],
            us(50),
            SimDuration::from_micros(30),
        );
        let evs = plan.into_events();
        assert_eq!(evs[0], (us(50), FaultEvent::SwitchDown(NodeId(7))));
        assert_eq!(evs[1], (us(80), FaultEvent::SwitchDown(NodeId(9))));
    }
}
