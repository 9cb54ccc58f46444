//! # stellar-cluster — deterministic multi-tenant cluster scheduling
//!
//! The paper's premise is *cloud* AI: many tenants' RunD containers
//! sharing one Stellar fabric. This crate is the layer that makes the
//! reproduction multi-tenant — a discrete-event cluster scheduler that
//! places concurrent tenant jobs onto one shared dual-plane Clos behind
//! the [`Fabric`](stellar_net::Fabric) trait and runs them *in the same
//! transport event loop*, so tenants genuinely contend for links,
//! queues, and aggregation capacity.
//!
//! The pieces:
//!
//! * [`spec`] — [`TenantSpec`] (ring size, arrival, payload, container
//!   memory, churn storm) and [`ClusterConfig`], with its validator.
//! * [`placement`] — the [`SlotMap`] NIC-slot ledger and the two
//!   policies: greedy first-fit **bin-packing** versus
//!   **topology/rail-aware** placement that keeps each ring inside one
//!   segment on the least-loaded `(segment, rail)` pair. Rings are
//!   always rail-aligned (the fabric does not model cross-rail
//!   host-internal forwarding).
//! * [`scheduler`] — FIFO admission queueing, the RunD boot + vStellar
//!   create → PVDMA-pin → QP-bring-up tenant lifecycle costed live on a
//!   control-plane rig, departure and slot recycling, and vStellar
//!   device-churn storms riding the transport
//!   [`RecoveryPolicy`](stellar_transport::RecoveryPolicy) with the
//!   measured destroy→recreate lifecycle as the re-establishment cost.
//! * [`report`] — per-tenant SLOs: admission wait, boot time, goodput,
//!   p99 message latency, recovery downtime.
//!
//! Everything is deterministic: placement, admission order, and the
//! rendered [`ClusterReport`] are byte-identical at any
//! `STELLAR_THREADS`, and the `cluster.*` invariants in `stellar-check`
//! audit the slot ledger and tenant lifecycle at every scheduler
//! quiesce point.

#![warn(missing_docs)]

pub mod placement;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use placement::{Slot, SlotMap};
pub use report::{ClusterReport, TenantSlo};
pub use scheduler::{churn_cost, run_cluster_with, tenant_setup_cost};
pub use spec::{ClusterConfig, ClusterConfigError, PlacementPolicy, TenantSpec};
