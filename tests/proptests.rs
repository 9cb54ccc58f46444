//! Cross-crate property-based tests (proptest_lite) on the invariants
//! DESIGN.md commits to.

use stellar::net::fixture::{fluid_fabric, hybrid_fabric};
use stellar::net::{
    ClosConfig, ClosTopology, Fabric, FluidConfig, HybridConfig, Network, NetworkConfig, NicId,
};
use stellar::pcie::addr::{Gpa, Hpa, PAGE_4K};
use stellar::pcie::iommu::{Iommu, IommuConfig};
use stellar::pcie::Iova;
use stellar::transport::{NoopApp, PathAlgo, TransportConfig, TransportSim};
use stellar::virt::hypervisor::Hypervisor;
use stellar::virt::pvdma::{Pvdma, PvdmaConfig};
use stellar::workloads::allreduce::{AllReduceJob, AllReduceRunner};
use stellar_sim::proptest_lite::check;
use stellar_sim::{SimRng, SimTime};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

const ALGOS: [PathAlgo; 6] = [
    PathAlgo::SinglePath,
    PathAlgo::RoundRobin,
    PathAlgo::Obs,
    PathAlgo::Dwrr,
    PathAlgo::BestRtt,
    PathAlgo::MpRdma,
];

/// Every algorithm, any path count, any message size: the message is
/// delivered exactly once, in full, and the sim goes idle.
#[test]
fn any_transport_config_delivers_exactly_once() {
    check("any_transport_config_delivers_exactly_once", 24, |g| {
        let algo = *g.pick(&ALGOS);
        let paths = g.u32(1, 161);
        let kb = g.u64(1, 2049);
        let seed = g.u64(0, 1000);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 3,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo,
                num_paths: paths,
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(3, 0);
        let conn = sim.add_connection(src, dst);
        let bytes = kb * 1024;
        let msg = sim.post_message(conn, bytes);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_done(conn, msg));
        let st = sim.conn_stats(conn);
        assert_eq!(st.delivered_bytes, bytes);
        assert_eq!(st.completed_messages, 1);
        assert!(sim.all_idle());
    });
}

/// Under arbitrary loss, spraying still delivers everything exactly
/// once (RTO + path exclusion recovery).
#[test]
fn lossy_fabric_still_delivers_exactly_once() {
    check("lossy_fabric_still_delivers_exactly_once", 24, |g| {
        let loss_pct = g.u32(0, 11);
        let seed = g.u64(0, 500);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 2,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 64,
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(2, 0);
        let lossy = sim.network().topology().route(src, dst, 0, 0)[1];
        sim.network_mut().set_loss(lossy, loss_pct as f64 / 100.0);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 512 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_done(conn, msg));
        assert_eq!(sim.conn_stats(conn).delivered_bytes, 512 * 1024);
    });
}

/// Ring AllReduce with an arbitrary ring subset completes every
/// iteration regardless of ring size or payload.
#[test]
fn allreduce_always_converges() {
    check("allreduce_always_converges", 24, |g| {
        let ranks = g.usize(2, 9);
        let data_kb = g.u64(8, 513);
        let seed = g.u64(0, 200);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        let mut sim = TransportSim::new(network, TransportConfig::default(), rng.fork("t"));
        let nics: Vec<NicId> = (0..ranks)
            .map(|r| sim.network().topology().nic(r, 0))
            .collect();
        let mut runner = AllReduceRunner::new(
            &mut sim,
            vec![AllReduceJob {
                nics,
                data_bytes: data_kb * 1024,
                iterations: 2,
                burst: None,
            }],
        );
        runner.start(&mut sim);
        sim.run(&mut runner, FOREVER);
        assert!(runner.all_finished());
        let rep = runner.report(0);
        assert_eq!(rep.iterations.len(), 2);
        // Iterations are properly ordered in time.
        assert!(rep.iterations[0].finished <= rep.iterations[1].started);
    });
}

/// The fluid and hybrid fabrics are deterministic across worker-thread
/// counts: a permutation run produces a bit-identical report whether
/// the work pool is pinned to 1 or 8 threads (the fabric
/// itself is single-threaded state, so pool size must be invisible).
#[test]
fn fluid_and_hybrid_reports_ignore_thread_count() {
    use stellar::workloads::{run_permutation_with, PermutationConfig};
    use stellar_sim::par::with_thread_override;
    check("fluid_and_hybrid_reports_ignore_thread_count", 6, |g| {
        let seed = g.u64(0, 1000);
        let cfg = PermutationConfig {
            topology: ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 2,
                planes: 2,
                aggs_per_plane: 4,
            },
            message_bytes: 128 * 1024,
            offered_gbps: 40.0,
            duration: stellar_sim::SimDuration::from_micros(300),
            seed,
            ..PermutationConfig::default()
        };
        let fluid_1 = with_thread_override(1, || {
            run_permutation_with(&cfg, |t, n, r| fluid_fabric(t, n, FluidConfig::default(), r))
        });
        let fluid_8 = with_thread_override(8, || {
            run_permutation_with(&cfg, |t, n, r| fluid_fabric(t, n, FluidConfig::default(), r))
        });
        assert_eq!(format!("{fluid_1:?}"), format!("{fluid_8:?}"));
        let hybrid_1 = with_thread_override(1, || {
            run_permutation_with(&cfg, |t, n, r| hybrid_fabric(t, n, HybridConfig::default(), r))
        });
        let hybrid_8 = with_thread_override(8, || {
            run_permutation_with(&cfg, |t, n, r| hybrid_fabric(t, n, HybridConfig::default(), r))
        });
        assert_eq!(format!("{hybrid_1:?}"), format!("{hybrid_8:?}"));
    });
}

/// PVDMA keeps the IOMMU consistent with the guest as long as no
/// device register shares a block with RAM (the safe configuration).
#[test]
fn pvdma_is_consistent_without_register_aliasing() {
    check("pvdma_is_consistent_without_register_aliasing", 24, |g| {
        let touches = g.vec(1, 20, |g| (g.u64(0, 64), g.u64(1, 17)));
        let mut h = Hypervisor::new();
        h.add_ram(Gpa(0), Hpa(1 << 40), 64 * 2 * 1024 * 1024);
        let mut iommu = Iommu::new(IommuConfig::default());
        let mut pvdma = Pvdma::new(PvdmaConfig::default());
        for (block, pages) in touches {
            let gpa = Gpa(block * 2 * 1024 * 1024);
            pvdma.dma_prepare(&h, &mut iommu, gpa, pages * PAGE_4K).unwrap();
            // Pinned translations match the hypervisor's view.
            let t = iommu.translate(Iova(gpa.0)).unwrap();
            let (expect, _) = h.translate(gpa).unwrap();
            assert_eq!(t.hpa, expect);
        }
        let bad = pvdma.check_consistency(&h, &mut iommu, Gpa(0), 64 * 2 * 1024 * 1024);
        assert!(bad.is_empty());
    });
}
