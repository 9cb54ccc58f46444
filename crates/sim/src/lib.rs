//! # stellar-sim — deterministic discrete-event simulation substrate
//!
//! Every experiment in the Stellar reproduction runs on this engine. It
//! provides four building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock.
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking, the heart of the simulator main loop.
//! * [`SimRng`] — a seedable, forkable random stream so that every run is
//!   reproducible bit-for-bit from a single `u64` seed.
//! * [`stats`] — counters, histograms, gauges and time-series used to report
//!   the quantities the paper's figures plot (queue depth, bandwidth,
//!   latency percentiles, load imbalance).
//!
//! The workspace is **zero-dependency by policy** (see DESIGN.md): the
//! RNG is an in-tree ChaCha8 whose keystream is pinned by golden-value
//! tests, [`json`] owns the machine-readable output format, and
//! [`proptest_lite`] / [`bench_timer`] replace the external property-test
//! and bench harnesses so that results can never drift with a dependency
//! bump.
//!
//! The engine is intentionally synchronous and single-threaded (per the
//! smoltcp idiom of explicit, poll-driven state machines): determinism and
//! debuggability matter more here than wall-clock parallelism. Parameter
//! sweeps parallelize across *runs*, not within one — the [`par`] work
//! pool fans independent `(experiment, seed)` runs out across cores while
//! keeping every reduction in input order, so parallel output bytes are
//! identical to a sequential run at any thread count.
//!
//! ```
//! use stellar_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), Ev::Pong);
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1.as_nanos(), e1), (1_000, Ev::Ping));
//! ```

#![warn(missing_docs)]

pub mod bench_timer;
mod cache;
pub mod hash;
pub mod json;
pub mod par;
pub mod proptest_lite;
mod queue;
mod rng;
pub mod shrink;
pub mod stats;
mod time;
mod wheel;

pub use cache::LruCache;
/// The binary-heap reference queue, kept for differential testing and
/// `--features reference-queue` A/B perf runs.
pub use queue::ReferenceQueue;
/// The timing wheel under its explicit name, so the differential suite can
/// name both implementations regardless of which one `EventQueue` aliases.
pub use wheel::EventQueue as TimingWheelQueue;
pub use wheel::WHEEL_HORIZON;

#[cfg(not(feature = "reference-queue"))]
pub use wheel::EventQueue;

#[cfg(feature = "reference-queue")]
pub use queue::ReferenceQueue as EventQueue;

#[cfg(feature = "queue-drill")]
pub use wheel::drill as queue_drill;

pub use rng::SimRng;
pub use time::{transmit_time, SimDuration, SimTime};
