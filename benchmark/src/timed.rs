//! Outside-in layer timing: a [`Fabric`] decorator and the per-thread
//! ledger it reports into.
//!
//! The traced pass hands every workload entry point a [`Timed`] fabric
//! instead of the plain one. Every trait call is forwarded unchanged and
//! bracketed by two clock reads, so tracing observes the run and never
//! steers it (the tests pin this byte for byte). Counters live in the
//! decorator and are folded into the thread's [`Ledger`] when the fabric
//! is dropped, so the hot path touches no shared state.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

use stellar_net::{
    ClosConfig, ClosTopology, Delivery, DropReason, Fabric, FabricKind, FaultPlan, FluidConfig,
    FluidFabric, HybridConfig, HybridFabric, LinkId, LinkStats, Network, NetworkConfig, NicId,
    TraceRecord,
};
use stellar_sim::{SimDuration, SimRng, SimTime};

/// Flow-model work a fabric did, read once when its [`Timed`] wrapper
/// drops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowWork {
    /// Hybrid sends carried by the packet model.
    pub hybrid_packet_sends: u64,
    /// Hybrid sends carried by the fluid model.
    pub hybrid_fluid_sends: u64,
    /// Hybrid escalation events (fluid flow moved to the packet model).
    pub escalations: u64,
    /// Fluid flows opened.
    pub flows_opened: u64,
    /// Fluid flows retired.
    pub flows_retired: u64,
}

/// The fabrics the benchmark can wrap, with the counters each one keeps
/// beyond the [`Fabric`] trait.
pub trait Probe: Fabric {
    /// This fabric's flow-model counters (none for the packet model).
    fn flow_work(&self) -> FlowWork {
        FlowWork::default()
    }
}

impl Probe for Network {}

impl Probe for FluidFabric {
    fn flow_work(&self) -> FlowWork {
        let (flows_opened, flows_retired, _) = self.flow_ledger();
        FlowWork {
            flows_opened,
            flows_retired,
            ..FlowWork::default()
        }
    }
}

impl Probe for HybridFabric {
    fn flow_work(&self) -> FlowWork {
        let (hybrid_packet_sends, hybrid_fluid_sends, escalations) = self.send_split();
        let (flows_opened, flows_retired, _) = self.fluid().flow_ledger();
        FlowWork {
            hybrid_packet_sends,
            hybrid_fluid_sends,
            escalations,
            flows_opened,
            flows_retired,
        }
    }
}

/// Calls and nanoseconds of one kind of timed trait call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Timed calls.
    pub calls: u64,
    /// Nanoseconds read between the two clock reads, summed.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// A [`Span`] accumulator the decorator can update through `&self`.
#[derive(Debug, Default)]
struct SpanCell {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl SpanCell {
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    fn get(&self) -> Span {
        Span {
            calls: self.calls.get(),
            ns: self.ns.get(),
        }
    }
}

/// Timed trait calls of one fabric kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KindSpans {
    /// `Fabric::send`.
    pub send: Span,
    /// `Fabric::advance`.
    pub advance: Span,
    /// Every other trait method.
    pub other: Span,
}

impl KindSpans {
    /// Every timed call of this kind.
    pub fn total(&self) -> Span {
        let mut t = self.send;
        t.add(self.advance);
        t.add(self.other);
        t
    }
}

/// Index of a fabric kind in [`Ledger::kinds`].
pub fn kind_index(kind: FabricKind) -> usize {
    match kind {
        FabricKind::Packet => 0,
        FabricKind::Fluid => 1,
        FabricKind::Hybrid => 2,
    }
}

/// The kinds in [`Ledger::kinds`] order.
pub const KINDS: [FabricKind; 3] = [FabricKind::Packet, FabricKind::Fluid, FabricKind::Hybrid];

/// One fabric construction, kept so set-up can be replayed.
#[derive(Debug, Clone)]
struct Build {
    kind: FabricKind,
    clos: ClosConfig,
    net: NetworkConfig,
    rng: SimRng,
}

/// What one thread's fabrics reported since the last [`take`].
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Timed calls per fabric kind, in [`KINDS`] order.
    pub kinds: [KindSpans; 3],
    /// Time inside `ClosTopology::build`.
    pub topology_build: Duration,
    /// Time inside the fabric constructors.
    pub fabric_build: Duration,
    /// Packets that reached their destination NIC, over every dropped
    /// [`Timed`] fabric.
    pub delivered_pkts: u64,
    /// Packets offered to those fabrics.
    pub injected_pkts: u64,
    /// Flow-model counters of those fabrics, summed.
    pub flow: FlowWork,
    builds: Vec<Build>,
}

impl Ledger {
    /// Every timed call of every kind.
    pub fn total(&self) -> Span {
        let mut t = Span::default();
        for k in &self.kinds {
            t.add(k.total());
        }
        t
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Take this thread's ledger, leaving an empty one.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// A [`Fabric`] decorator that times every trait call it forwards.
pub struct Timed<F: Probe> {
    inner: F,
    kind: FabricKind,
    send: SpanCell,
    advance: SpanCell,
    other: SpanCell,
}

impl<F: Probe> Timed<F> {
    /// Wrap `inner`.
    pub fn new(inner: F) -> Self {
        Timed {
            kind: inner.kind(),
            inner,
            send: SpanCell::default(),
            advance: SpanCell::default(),
            other: SpanCell::default(),
        }
    }
}

impl<F: Probe> Drop for Timed<F> {
    fn drop(&mut self) {
        let spans = KindSpans {
            send: self.send.get(),
            advance: self.advance.get(),
            other: self.other.get(),
        };
        let (injected, _) = self.inner.injected();
        let (delivered, _) = self.inner.delivered();
        let flow = self.inner.flow_work();
        // `try_with`: a fabric dropped during thread teardown has nowhere
        // to report, and `Drop` must not panic.
        let _ = LEDGER.try_with(|l| {
            let mut l = l.borrow_mut();
            let k = &mut l.kinds[kind_index(self.kind)];
            k.send.add(spans.send);
            k.advance.add(spans.advance);
            k.other.add(spans.other);
            l.injected_pkts += injected;
            l.delivered_pkts += delivered;
            l.flow.hybrid_packet_sends += flow.hybrid_packet_sends;
            l.flow.hybrid_fluid_sends += flow.hybrid_fluid_sends;
            l.flow.escalations += flow.escalations;
            l.flow.flows_opened += flow.flows_opened;
            l.flow.flows_retired += flow.flows_retired;
        });
    }
}

impl<F: Probe> Fabric for Timed<F> {
    fn kind(&self) -> FabricKind {
        self.other.time(|| self.inner.kind())
    }

    fn topology(&self) -> &ClosTopology {
        self.other.time(|| self.inner.topology())
    }

    fn config(&self) -> &NetworkConfig {
        self.other.time(|| self.inner.config())
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        self.other.time(|| self.inner.config_mut())
    }

    fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        self.send
            .time(|| self.inner.send(now, src, dst, flow, path_id, bytes))
    }

    fn advance(&mut self, now: SimTime) {
        self.advance.time(|| self.inner.advance(now))
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.other.time(|| self.inner.install_fault_plan(plan))
    }

    fn pending_fault_events(&self) -> usize {
        self.other.time(|| self.inner.pending_fault_events())
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.other.time(|| self.inner.set_link_up(link, up))
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.other
            .time(|| self.inner.set_link_state_at(now, link, up))
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.other.time(|| self.inner.set_loss(link, p))
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        self.other
            .time(|| self.inner.control_rtt_component(src, dst))
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.other.time(|| self.inner.drops_by_reason(reason))
    }

    fn injected(&self) -> (u64, u64) {
        self.other.time(|| self.inner.injected())
    }

    fn delivered(&self) -> (u64, u64) {
        self.other.time(|| self.inner.delivered())
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        self.other.time(|| self.inner.link_stats(link, now))
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        self.other.time(|| self.inner.tor_uplink_imbalance())
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        self.other.time(|| self.inner.tor_uplink_queue_stats(now))
    }

    fn enable_trace(&mut self, limit: usize) {
        self.other.time(|| self.inner.enable_trace(limit))
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.other.time(|| self.inner.take_trace())
    }

    fn check_invariants(&self, at: SimTime) {
        self.other.time(|| self.inner.check_invariants(at))
    }
}

/// How a pass builds its fabrics: plain, or wrapped in [`Timed`].
pub trait Mode {
    /// Whether this is the traced pass (which also runs the
    /// `stellar_check` invariants).
    const TRACED: bool;
    /// The fabric type handed to the workloads for an inner fabric `F`.
    type Fab<F: Probe>: Fabric;
    /// Wrap a freshly built fabric.
    fn wrap<F: Probe>(fabric: F) -> Self::Fab<F>;
}

/// The untraced pass: the workloads get the fabrics themselves.
pub struct Plain;

impl Mode for Plain {
    const TRACED: bool = false;
    type Fab<F: Probe> = F;
    fn wrap<F: Probe>(fabric: F) -> F {
        fabric
    }
}

/// The traced pass: every fabric is wrapped in [`Timed`].
pub struct Traced;

impl Mode for Traced {
    const TRACED: bool = true;
    type Fab<F: Probe> = Timed<F>;
    fn wrap<F: Probe>(fabric: F) -> Timed<F> {
        Timed::new(fabric)
    }
}

/// Build `kind` over `clos` exactly as the `stellar_net::fixture`
/// constructors do, timing the topology and the fabric separately.
fn construct<F: Probe>(
    kind: FabricKind,
    clos: ClosConfig,
    net: NetworkConfig,
    rng: &SimRng,
    make: impl FnOnce(ClosTopology, NetworkConfig, SimRng) -> F,
) -> F {
    let build = Build {
        kind,
        clos: clos.clone(),
        net: net.clone(),
        rng: rng.clone(),
    };
    let t0 = Instant::now();
    let topo = ClosTopology::build(clos);
    let t1 = Instant::now();
    let fabric = make(topo, net, rng.fork("net"));
    let t2 = Instant::now();
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.topology_build += t1 - t0;
        l.fabric_build += t2 - t1;
        l.builds.push(build);
    });
    fabric
}

/// The packet-model builder the workload entry points take.
pub fn packet<M: Mode>(clos: ClosConfig, net: NetworkConfig, rng: &SimRng) -> M::Fab<Network> {
    M::wrap(construct(FabricKind::Packet, clos, net, rng, Network::new))
}

/// The fluid-model builder (default [`FluidConfig`]).
pub fn fluid<M: Mode>(clos: ClosConfig, net: NetworkConfig, rng: &SimRng) -> M::Fab<FluidFabric> {
    M::wrap(construct(FabricKind::Fluid, clos, net, rng, |t, n, r| {
        FluidFabric::new(t, n, FluidConfig::default(), r)
    }))
}

/// The hybrid builder (default [`HybridConfig`]).
pub fn hybrid<M: Mode>(clos: ClosConfig, net: NetworkConfig, rng: &SimRng) -> M::Fab<HybridFabric> {
    M::wrap(construct(FabricKind::Hybrid, clos, net, rng, |t, n, r| {
        HybridFabric::new(t, n, HybridConfig::default(), r)
    }))
}

/// Rebuild every fabric `ledger` saw built, dropping each at once, and
/// return the time spent inside the builders.
pub fn replay_setup(ledger: &Ledger) -> Duration {
    let before = take();
    for b in &ledger.builds {
        let (clos, net) = (b.clos.clone(), b.net.clone());
        match b.kind {
            FabricKind::Packet => drop(packet::<Plain>(clos, net, &b.rng)),
            FabricKind::Fluid => drop(fluid::<Plain>(clos, net, &b.rng)),
            FabricKind::Hybrid => drop(hybrid::<Plain>(clos, net, &b.rng)),
        }
    }
    let replay = take();
    LEDGER.with(|l| *l.borrow_mut() = before);
    replay.topology_build + replay.fabric_build
}

/// The clock cost of one empty timed call, from the median of several
/// batches: `(inside, whole)` nanoseconds. `inside` is what a timed call
/// reads with nothing to time, so it is subtracted from every span;
/// `whole` is what a timed call adds to the traced wall.
pub fn calibrate_timer() -> (f64, f64) {
    const BATCH: u64 = 200_000;
    let mut inside = Vec::new();
    let mut whole = Vec::new();
    for _ in 0..7 {
        let cell = SpanCell::default();
        let t0 = Instant::now();
        for i in 0..BATCH {
            cell.time(|| black_box(i));
        }
        let wall = t0.elapsed().as_nanos() as f64;
        inside.push(cell.get().ns as f64 / BATCH as f64);
        whole.push(wall / BATCH as f64);
    }
    (crate::median(&inside), crate::median(&whole))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_transport::{PathAlgo, TransportConfig};
    use stellar_workloads::{
        run_permutation_with, simulate_training_step_with, PermutationConfig, TrainingSimConfig,
    };

    /// Tracing observes and never steers: a workload report through
    /// [`Timed`] is byte-identical to the plain one, and the wrapper
    /// saw every packet the fabric was offered.
    #[test]
    fn timed_packet_permutation_is_byte_identical() {
        let cfg = PermutationConfig {
            topology: ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 4,
            },
            transport: TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 16,
                ..TransportConfig::default()
            },
            message_bytes: 64 * 1024,
            duration: SimDuration::from_micros(200),
            seed: 3,
            ..PermutationConfig::default()
        };
        let plain = run_permutation_with(&cfg, packet::<Plain>);
        take();
        let traced = run_permutation_with(&cfg, packet::<Traced>);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        let l = take();
        let sends = l.kinds[kind_index(FabricKind::Packet)].send.calls;
        assert!(sends > 0);
        assert_eq!(
            sends, l.injected_pkts,
            "every send went through the wrapper"
        );
        assert_eq!(l.kinds[kind_index(FabricKind::Fluid)], KindSpans::default());
    }

    #[test]
    fn timed_hybrid_training_is_byte_identical() {
        let cfg = TrainingSimConfig {
            ranks: 8,
            rings: 2,
            data_bytes: 1 << 20,
            seed: 5,
            ..TrainingSimConfig::default()
        };
        let plain = simulate_training_step_with(&cfg, hybrid::<Plain>);
        take();
        let traced = simulate_training_step_with(&cfg, hybrid::<Traced>);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        let l = take();
        let sends = l.kinds[kind_index(FabricKind::Hybrid)].send.calls;
        assert_eq!(
            sends,
            l.flow.hybrid_packet_sends + l.flow.hybrid_fluid_sends,
            "the hybrid split covers every wrapped send"
        );
        assert!(l.flow.flows_opened > 0);
    }

    #[test]
    fn setup_replay_rebuilds_every_fabric_and_keeps_the_ledger() {
        take();
        let clos = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        };
        let rng = SimRng::from_seed(1);
        drop(packet::<Plain>(
            clos.clone(),
            NetworkConfig::default(),
            &rng,
        ));
        drop(fluid::<Plain>(clos, NetworkConfig::default(), &rng));
        let ledger = take();
        assert_eq!(ledger.builds.len(), 2);
        assert!(replay_setup(&ledger) > Duration::ZERO);
        assert!(take().builds.is_empty(), "a replay leaves no builds behind");
    }
}
