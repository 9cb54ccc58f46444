//! # stellar-transport — multipath RDMA transport (Section 7)
//!
//! The RNIC-side transport Stellar deploys: RC semantics, a single
//! window-based congestion-control context driven by ECN and RTT, a short
//! retransmission timeout that re-sends lost packets *on a different
//! path*, and per-packet path selection over up to 256 equivalent paths.
//!
//! * [`path`] — the path-selection algorithms compared in §7.2:
//!   single-path (ECMP baseline), Round-Robin, **Oblivious Packet
//!   Spraying** (the production choice), Dynamic Weighted Round-Robin,
//!   BestRTT, and an MP-RDMA-style congestion-aware picker.
//! * [`cc`] — the window-based CC algorithm (ECN echo + RTT): one
//!   congestion-control context (CCC) shared by all 128 paths (§9).
//! * [`conn`] — RC connections: message segmentation, the out-of-order
//!   direct-packet-placement receive bitmap, exactly-once completion.
//! * [`sim`] — the event loop gluing connections to the `stellar-net`
//!   fabric, with an [`sim::App`] callback so collective workloads can
//!   chain dependent messages (ring AllReduce steps) causally.

#![warn(missing_docs)]

pub mod cc;
pub mod conn;
pub mod path;
pub mod sim;

pub use cc::CongestionControl;
pub use conn::{ConnId, ConnState, ConnStats, FatalError, MsgId};
pub use path::{PathAlgo, PathSelector, PlaneFailover, ScoreboardPolicy};
pub use sim::{
    App, CompletionLog, NoopApp, RecoveryPolicy, TransportConfig, TransportConfigError,
    TransportSim,
};
