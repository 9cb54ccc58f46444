//! # stellar-net — datacenter fabric simulators behind one trait
//!
//! Models the paper's HPN7.0-style dual-plane, rail-optimized Clos fabric
//! at three fidelities, all behind the [`Fabric`] trait:
//!
//! * [`topology`] — the parameterized Clos: hosts with multiple RNICs
//!   (rails), per-plane ToR switches, a shared aggregation layer, and the
//!   ECMP route function that maps a `(flow, path-id)` pair to a concrete
//!   switch sequence. The transport's *path id* is an entropy knob, exactly
//!   like the UDP source-port entropy a real multipath RNIC injects.
//! * [`network`] — packet-level link state and forwarding using a **link
//!   calendar** model: every egress port remembers when it next falls
//!   idle, so a packet's queueing, ECN marking, tail-drop, and delivery
//!   time are computed hop by hop in one pass. Because the transport layer
//!   injects packets in global time order, this is an exact FIFO
//!   simulation at a fraction of the event count of per-hop scheduling.
//! * [`fluid`] — flow-level max-min fair-share allocation with per-flow
//!   virtual calendars, for jobs whose rank counts put per-packet port
//!   walks out of reach.
//! * [`hybrid`] — contested endpoints (incast ports, failed/degraded
//!   links, ECN-marking queues) through the packet model, everything
//!   else through the fluid model.
//! * [`fabric`] — the trait the transport and every workload driver are
//!   generic over; [`fixture`] — one-line fabric constructors for tests
//!   and workloads.
//!
//! The three fabrics are one type, [`ModelFabric`], over three models:
//! the topology, link fault state and counters, fault plan, trace and
//! control-plane reroute live once in a shared core, and each model
//! adds only how it carries a packet.
//!
//! Per-port gauges (queue depth) and counters (bytes, drops, ECN marks)
//! feed Figures 9–12 directly.

#![warn(missing_docs)]

mod core;
pub mod fabric;
pub mod fault;
pub mod fixture;
mod flow_map;
pub mod fluid;
pub mod hybrid;
pub mod network;
pub mod topology;

pub use crate::core::ModelFabric;
pub use fabric::{Fabric, FabricKind};
pub use fault::{FaultEvent, FaultPlan, FaultPlanError};
pub use fluid::{FluidConfig, FluidFabric};
pub use hybrid::{HybridConfig, HybridFabric};
pub use network::{Delivery, DropReason, LinkStats, Network, NetworkConfig, TraceRecord};
pub use topology::{ClosConfig, ClosConfigError, ClosTopology, LinkId, NicId, NodeId, NodeKind};
