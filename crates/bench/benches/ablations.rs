//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `emtt_vs_atc` — eMTT data path vs ATS/ATC vs RC-bound, same message.
//! * `pvdma_granularity` — 4 KiB vs 2 MiB vs 32 MiB pinning blocks: the
//!   §5 map-cache-size vs pin-overhead trade-off.
//! * `per_path_cc` — one shared CCC over 128 paths vs per-path CCCs over
//!   4 paths (§9's discussion).
//! * `advanced_spray` — a REPS/STrack-style path-aware sprayer vs plain
//!   OBS on regular (permutation) traffic.
//!
//! Each case prints one JSON timing line; pass a substring argument to
//! run a subset, e.g. `cargo bench --bench ablations -- pvdma`.

use std::hint::black_box;
use stellar_sim::bench_timer::Harness;

use stellar_core::perftest::{perftest_point, StackKind};
use stellar_net::fixture::packet_fabric;
use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_pcie::addr::{Gpa, Hpa, PAGE_2M, PAGE_4K};
use stellar_pcie::iommu::{Iommu, IommuConfig};
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{CompletionLog, PathAlgo, TransportConfig, TransportSim};
use stellar_virt::hypervisor::Hypervisor;
use stellar_virt::pvdma::{Pvdma, PvdmaConfig};
use stellar_workloads::permutation::{run_permutation_with, PermutationConfig};

/// eMTT vs ATS/ATC vs RC-bound GDR, 8 MB messages.
fn ablation_emtt_vs_atc(h: &Harness) {
    for (name, kind) in [
        ("emtt", StackKind::VStellar),
        ("ats_atc", StackKind::VfVxlan),
        ("via_rc", StackKind::HyvMasq),
    ] {
        h.bench(&format!("ablation_emtt_vs_atc/{name}"), || {
            black_box(perftest_point(kind, 8 << 20).gbps);
        });
    }
}

/// PVDMA block-size sweep: simulated pin latency for a 64 MiB working set
/// touched 2 MiB at a time (the §5 granularity trade-off).
fn ablation_pvdma_granularity(h: &Harness) {
    for block in [PAGE_4K, PAGE_2M, 16 * PAGE_2M] {
        h.bench(&format!("ablation_pvdma_granularity/{}KiB", block / 1024), || {
            let mut hv = Hypervisor::new();
            hv.add_ram(Gpa(0), Hpa(1 << 40), 256 * PAGE_2M);
            let mut iommu = Iommu::new(IommuConfig::default());
            let mut pvdma = Pvdma::new(PvdmaConfig {
                block_size: block,
            });
            let mut total_ns = 0u64;
            for i in 0..32u64 {
                let out = pvdma
                    .dma_prepare(&hv, &mut iommu, Gpa(i * 2 * PAGE_2M), PAGE_4K)
                    .expect("prepare");
                total_ns += out.latency.as_nanos();
            }
            black_box(total_ns);
        });
    }
}

/// Shared CCC over 128 paths vs per-path CCCs over 4 paths: delivered
/// bytes for the same congested transfer.
fn ablation_per_path_cc(h: &Harness) {
    for (name, per_path, paths) in [("shared_ccc_128", false, 128u32), ("per_path_ccc_4", true, 4)]
    {
        h.bench(&format!("ablation_per_path_cc/{name}"), || {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(3);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    algo: PathAlgo::Obs,
                    num_paths: paths,
                    per_path_cc: per_path,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 8 << 20);
            let mut log = CompletionLog::new();
            sim.run(&mut log, SimTime::from_nanos(u64::MAX / 2));
            black_box(log.completed_at(conn, msg).expect("completes").as_nanos());
        });
    }
}

/// §9 "Advanced multi-path algorithms": a REPS/STrack-style path-aware
/// sprayer vs plain OBS on regular (permutation) traffic. The paper
/// implemented the former and "did not observe a significant performance
/// advantage over the simpler OBS algorithm" — this ablation measures the
/// same comparison.
fn ablation_advanced_spray(h: &Harness) {
    for (name, algo) in [("obs", PathAlgo::Obs), ("path_aware", PathAlgo::PathAware)] {
        h.bench(&format!("ablation_advanced_spray/{name}"), || {
            let rep = run_permutation_with(
                &PermutationConfig {
                    topology: ClosConfig {
                        segments: 2,
                        hosts_per_segment: 4,
                        rails: 1,
                        planes: 2,
                        aggs_per_plane: 8,
                    },
                    transport: TransportConfig {
                        algo,
                        num_paths: 128,
                        ..TransportConfig::default()
                    },
                    message_bytes: 256 * 1024,
                    offered_gbps: 150.0,
                    duration: stellar_sim::SimDuration::from_millis(2),
                    seed: 13,
                    ..PermutationConfig::default()
                },
                packet_fabric,
            );
            black_box(rep.total_goodput_gbps);
        });
    }
}

fn main() {
    let h = Harness::from_args();
    ablation_emtt_vs_atc(&h);
    ablation_pvdma_granularity(&h);
    ablation_per_path_cc(&h);
    ablation_advanced_spray(&h);
}
