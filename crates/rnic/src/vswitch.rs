//! The RNIC's built-in vSwitch: an *ordered* hardware flow-steering table.
//!
//! In the pre-Stellar framework (Section 3), TCP and RDMA traffic share
//! this pipeline. Two production incidents flow from that coupling
//! (Problem ⑤):
//!
//! 1. Rule ordering: TCP entries installed ahead of RDMA entries lengthen
//!    every RDMA packet's hardware lookup — one tenant's TCP churn degrades
//!    another tenant's RDMA latency. The model charges lookup latency
//!    proportional to the matched rule's position.
//! 2. Wrong VxLAN MACs for same-host, different-RNIC VF pairs: the driver
//!    fills zeroed MAC addresses that the ToR drops. The model reproduces
//!    the drop when a local-forward rule is (incorrectly) applied to an
//!    RDMA flow that must leave the host.
//!
//! Stellar removes RDMA from this table entirely (no VFs → no steering
//! rules for RDMA), which is modelled by simply not installing RDMA rules.

use stellar_sim::SimDuration;
use stellar_telemetry::{count, Subsystem};

/// Traffic class a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleClass {
    /// Kernel-stack traffic (the paper uses TCP as the stand-in for all
    /// non-RDMA traffic).
    Tcp,
    /// RDMA (RoCE) traffic.
    Rdma,
}

/// What a matched rule does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    /// Encapsulate in VxLAN with the given source/destination MACs and
    /// forward to the wire.
    VxlanEncap {
        /// Source MAC (zero means "driver filled a local-forward rule").
        src_mac: u64,
        /// Destination MAC.
        dst_mac: u64,
    },
    /// Forward locally between functions on the same RNIC.
    LocalForward,
    /// Drop the packet.
    Drop,
}

/// A steering rule: exact-match on `(class, flow_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteeringRule {
    /// Traffic class.
    pub class: RuleClass,
    /// Flow identifier (connection 5-tuple surrogate).
    pub flow_id: u64,
    /// Action on match.
    pub action: RuleAction,
}

/// vSwitch capacity and latency model.
#[derive(Debug, Clone)]
pub struct VSwitchConfig {
    /// Maximum rules the hardware table holds; the host Controller must
    /// dynamically swap rules when tenant state exceeds this.
    pub capacity: usize,
    /// Fixed pipeline latency.
    pub base_latency: SimDuration,
    /// Extra latency per rule position walked before the match.
    pub per_rule_latency: SimDuration,
}

impl Default for VSwitchConfig {
    fn default() -> Self {
        VSwitchConfig {
            capacity: 4_096,
            base_latency: SimDuration::from_nanos(40),
            per_rule_latency: SimDuration::from_nanos(2),
        }
    }
}

/// Outcome of steering one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteerOutcome {
    /// Matched action.
    pub action: RuleAction,
    /// Hardware lookup latency (position-dependent).
    pub latency: SimDuration,
    /// Index of the rule that matched.
    pub position: usize,
}

/// vSwitch errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VSwitchError {
    /// No rule matched; packet goes to the slow path / is dropped.
    NoMatch,
    /// Table full.
    TableFull {
        /// Configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for VSwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VSwitchError::NoMatch => write!(f, "no steering rule matched"),
            VSwitchError::TableFull { capacity } => {
                write!(f, "steering table full ({capacity} rules)")
            }
        }
    }
}

impl std::error::Error for VSwitchError {}

/// The ordered steering table.
#[derive(Debug)]
pub struct VSwitch {
    config: VSwitchConfig,
    rules: Vec<SteeringRule>,
}

impl VSwitch {
    /// An empty table.
    pub fn new(config: VSwitchConfig) -> Self {
        VSwitch {
            config,
            rules: Vec::new(),
        }
    }

    /// Append a rule at the end of the table (hardware insertion order).
    pub fn append_rule(&mut self, rule: SteeringRule) -> Result<(), VSwitchError> {
        if self.rules.len() >= self.config.capacity {
            return Err(VSwitchError::TableFull {
                capacity: self.config.capacity,
            });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Insert a rule at a specific position (what a buggy controller did
    /// when it placed TCP entries ahead of RDMA ones).
    pub fn insert_rule_at(
        &mut self,
        index: usize,
        rule: SteeringRule,
    ) -> Result<(), VSwitchError> {
        if self.rules.len() >= self.config.capacity {
            return Err(VSwitchError::TableFull {
                capacity: self.config.capacity,
            });
        }
        let index = index.min(self.rules.len());
        self.rules.insert(index, rule);
        Ok(())
    }

    /// Remove all rules for a flow.
    pub fn remove_flow(&mut self, class: RuleClass, flow_id: u64) {
        self.rules
            .retain(|r| !(r.class == class && r.flow_id == flow_id));
    }

    /// Steer a packet: walk the table in order, first match wins.
    pub fn steer(&self, class: RuleClass, flow_id: u64) -> Result<SteerOutcome, VSwitchError> {
        count(Subsystem::Rnic, "vswitch.steer", 1);
        for (position, rule) in self.rules.iter().enumerate() {
            if rule.class == class && rule.flow_id == flow_id {
                return Ok(SteerOutcome {
                    action: rule.action,
                    latency: self.config.base_latency
                        + self.config.per_rule_latency.mul(position as u64),
                    position,
                });
            }
        }
        Err(VSwitchError::NoMatch)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw() -> VSwitch {
        VSwitch::new(VSwitchConfig::default())
    }

    #[test]
    fn first_match_wins_in_order() {
        let mut s = sw();
        s.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: 1,
            action: RuleAction::Drop,
        })
        .unwrap();
        s.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: 1,
            action: RuleAction::LocalForward,
        })
        .unwrap();
        let out = s.steer(RuleClass::Rdma, 1).unwrap();
        assert_eq!(out.action, RuleAction::Drop);
        assert_eq!(out.position, 0);
    }

    #[test]
    fn tcp_rules_ahead_of_rdma_increase_rdma_latency() {
        // The Problem-⑤ incident: RDMA latency grows with the number of
        // TCP rules placed before its entry.
        let mut s = sw();
        for i in 0..100 {
            s.append_rule(SteeringRule {
                class: RuleClass::Tcp,
                flow_id: i,
                action: RuleAction::LocalForward,
            })
            .unwrap();
        }
        s.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: 7,
            action: RuleAction::VxlanEncap {
                src_mac: 1,
                dst_mac: 2,
            },
        })
        .unwrap();
        let shared = s.steer(RuleClass::Rdma, 7).unwrap();

        let mut isolated = sw();
        isolated
            .append_rule(SteeringRule {
                class: RuleClass::Rdma,
                flow_id: 7,
                action: RuleAction::VxlanEncap {
                    src_mac: 1,
                    dst_mac: 2,
                },
            })
            .unwrap();
        let alone = isolated.steer(RuleClass::Rdma, 7).unwrap();
        assert!(shared.latency > alone.latency);
        assert_eq!(shared.position, 100);
    }

    #[test]
    fn no_match_is_an_error() {
        let s = sw();
        assert_eq!(s.steer(RuleClass::Tcp, 9), Err(VSwitchError::NoMatch));
    }

    #[test]
    fn capacity_limits_rule_installation() {
        let mut s = VSwitch::new(VSwitchConfig {
            capacity: 1,
            ..VSwitchConfig::default()
        });
        s.append_rule(SteeringRule {
            class: RuleClass::Tcp,
            flow_id: 0,
            action: RuleAction::Drop,
        })
        .unwrap();
        assert_eq!(
            s.append_rule(SteeringRule {
                class: RuleClass::Tcp,
                flow_id: 1,
                action: RuleAction::Drop,
            }),
            Err(VSwitchError::TableFull { capacity: 1 })
        );
    }

    #[test]
    fn remove_flow_deletes_all_its_rules() {
        let mut s = sw();
        for _ in 0..3 {
            s.append_rule(SteeringRule {
                class: RuleClass::Tcp,
                flow_id: 4,
                action: RuleAction::Drop,
            })
            .unwrap();
        }
        s.remove_flow(RuleClass::Tcp, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn insert_at_front_changes_positions() {
        let mut s = sw();
        s.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: 1,
            action: RuleAction::LocalForward,
        })
        .unwrap();
        s.insert_rule_at(
            0,
            SteeringRule {
                class: RuleClass::Tcp,
                flow_id: 2,
                action: RuleAction::Drop,
            },
        )
        .unwrap();
        assert_eq!(s.steer(RuleClass::Rdma, 1).unwrap().position, 1);
    }

    #[test]
    fn zeroed_macs_model_the_cross_rnic_bug() {
        // The driver found a local route and zeroed the MACs; the ToR will
        // discard such frames. The model exposes the zeroed MACs so the
        // caller (host stack) can detect the mis-encapsulation.
        let mut s = sw();
        s.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: 11,
            action: RuleAction::VxlanEncap {
                src_mac: 0,
                dst_mac: 0,
            },
        })
        .unwrap();
        let out = s.steer(RuleClass::Rdma, 11).unwrap();
        assert_eq!(
            out.action,
            RuleAction::VxlanEncap {
                src_mac: 0,
                dst_mac: 0
            }
        );
    }
}
