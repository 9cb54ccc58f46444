//! Pinned path-selector behaviour.
//!
//! Every [`PathAlgo`], with the default scoreboard and again with plane
//! failover on, is driven through one seeded mix of `select_at` (with
//! exclusions and `allowed` masks), `on_ack` and `on_loss_at`. Losses
//! fall mostly on one plane's paths so the scoreboard blacklists paths
//! and, with failover on, quarantines the plane. A hash over every
//! choice and every `blacklisted_count` / `quarantined_planes` /
//! `is_blacklisted` / `readmission_bounded` reading, every path's
//! EWMAs (as raw bits, for the algorithms that track them) and
//! scoreboard entry at regular intervals, then the histogram of the
//! choices, pins the selector bit for bit. The DWRR deficits are pinned through Dwrr's
//! choices.
//!
//! A per-path-CC transport run, hashed with each connection's sends per
//! path read from the fabric's packet trace, pins the per-path in-flight
//! counts that gate each path's window: the windows are one or two packets wide and
//! the RTO short enough to fire mid-transfer, so where the counts rise
//! and fall (a send, an RTO retransmission, an ACK, a loss) decides
//! which paths may send, and so every later byte of the run.
//!
//! Dwrr and BestRtt, the two algorithms that read every path's RTT
//! EWMA, are driven again at 128 and 256 paths — the widths of the
//! Fig. 9/10 sweeps — where `allowed` masks span four 64-bit words.
//!
//! The 16-path hashes were recorded before the selector's per-path state
//! was split by field, the wide ones before BestRtt and Dwrr kept their
//! selection state incrementally; they must never change.

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    CcConfig, NoopApp, PathAlgo, PathSelector, PlaneFailover, TransportConfig, TransportSim,
};

const PATHS: u32 = 16;

const ALGOS: [PathAlgo; 8] = [
    PathAlgo::SinglePath,
    PathAlgo::RoundRobin,
    PathAlgo::Obs,
    PathAlgo::Dwrr,
    PathAlgo::BestRtt,
    PathAlgo::MpRdma,
    PathAlgo::Flowlet {
        gap: SimDuration::from_micros(20),
    },
    PathAlgo::PathAware,
];

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The EWMAs `s`'s algorithm tracks for path `p`, as raw bits: the RTT
/// EWMA for BestRtt and Dwrr, the ECN EWMA for MpRdma.
fn ewma_bits(s: &PathSelector, p: u32) -> [Option<u64>; 2] {
    let st = s.path(p);
    [
        st.rtt_ewma.map(|d| d.as_nanos()),
        st.ecn_ewma.map(f64::to_bits),
    ]
}

/// Hash every path's tracked EWMAs and scoreboard entry.
fn hash_paths(h: &mut u64, s: &PathSelector) {
    for p in 0..s.num_paths() {
        for bits in ewma_bits(s, p) {
            fnv(h, bits.unwrap_or(u64::MAX));
        }
        let st = s.path(p);
        fnv(h, u64::from(st.consecutive_losses));
        fnv(h, st.blacklisted_until.as_nanos());
    }
}

/// What one drive observed, beyond its hash: the scoreboard must
/// actually have fired for the pin to cover it.
struct Drive {
    hash: u64,
    max_blacklisted: usize,
    max_quarantined: usize,
}

/// An `allowed` mask over `paths` paths: one draw below `2^paths` up to
/// 32 paths (the 16-path stream the original hashes were recorded
/// with), one full word per 64 paths beyond.
fn draw_mask(ops: &mut SimRng, paths: u32) -> [u64; 4] {
    let mut mask = [0; 4];
    if paths <= 32 {
        mask[0] = ops.below(1 << paths);
    } else {
        for w in &mut mask[..paths.div_ceil(64) as usize] {
            *w = ops.next_u64();
        }
    }
    mask
}

fn drive(algo: PathAlgo, paths: u32, failover: bool, seed: u64) -> Drive {
    let mut s = PathSelector::new(algo, paths, SimRng::from_seed(seed));
    if failover {
        s.set_plane_failover(PlaneFailover::default());
    }
    let mut ops = SimRng::from_seed(seed ^ 0x5e1e_c70b);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut now = SimTime::ZERO;
    let (mut max_blacklisted, mut max_quarantined) = (0, 0);
    // Picks per path.
    let mut picks = vec![0u64; paths as usize];
    for step in 0..4_000 {
        if step % 50 == 0 {
            hash_paths(&mut h, &s);
        }
        now += SimDuration::from_nanos(ops.below(4_000));
        match ops.below(10) {
            0..=4 => {
                let exclude = ops.chance(0.2).then(|| ops.below(paths as u64) as u32);
                let mask = if ops.chance(0.3) {
                    draw_mask(&mut ops, paths)
                } else {
                    [u64::MAX; 4]
                };
                let p = s.select_at(now, exclude, &|p| {
                    mask[(p / 64) as usize] & (1 << (p % 64)) != 0
                });
                fnv(&mut h, p.map_or(u64::MAX, u64::from));
                if let Some(p) = p {
                    picks[p as usize] += 1;
                }
            }
            5..=7 => {
                // Plane 1 (odd ids) rarely ACKs, so its losses pile up.
                let mut p = ops.below(paths as u64) as u32;
                if p % 2 == 1 && ops.chance(0.8) {
                    p -= 1;
                }
                let rtt = SimDuration::from_nanos(ops.range(5_000, 50_000));
                s.on_ack(p, rtt, ops.chance(0.3));
            }
            _ => {
                let mut p = ops.below(paths as u64) as u32;
                if ops.chance(0.85) {
                    p |= 1;
                }
                s.on_loss_at(now, p);
            }
        }
        let blacklisted = s.blacklisted_count(now);
        let quarantined = s.quarantined_planes(now);
        max_blacklisted = max_blacklisted.max(blacklisted);
        max_quarantined = max_quarantined.max(quarantined);
        fnv(&mut h, blacklisted as u64);
        fnv(&mut h, quarantined as u64);
        fnv(
            &mut h,
            u64::from(s.is_blacklisted(ops.below(paths as u64) as u32, now)),
        );
        fnv(&mut h, u64::from(s.readmission_bounded(now)));
    }
    hash_paths(&mut h, &s);
    for &n in &picks {
        fnv(&mut h, n);
    }
    fnv(&mut h, picks.iter().filter(|&&n| n > 0).count() as u64);
    Drive {
        hash: h,
        max_blacklisted,
        max_quarantined,
    }
}

#[test]
fn every_algorithm_selects_as_recorded() {
    let mut hashes = Vec::new();
    for (i, &algo) in ALGOS.iter().enumerate() {
        for failover in [false, true] {
            let d = drive(algo, PATHS, failover, 100 + i as u64);
            assert!(
                d.max_blacklisted > 1,
                "{algo:?}: the scoreboard never fired"
            );
            assert_eq!(
                d.max_quarantined > 0,
                failover,
                "{algo:?}: a plane quarantines exactly when failover is on"
            );
            hashes.push(d.hash);
        }
    }
    let expect: [u64; 16] = [
        2_013_674_303_868_878_545,
        9_032_699_536_209_340_888,
        8_799_634_084_379_299_787,
        9_872_768_801_433_360_397,
        213_198_992_660_547_087,
        17_832_490_892_854_389_948,
        2_467_360_265_973_609_939,
        11_513_942_319_660_975_787,
        15_320_265_862_607_254_451,
        3_957_195_737_653_833_729,
        11_151_819_241_782_914_046,
        3_375_347_924_465_329_126,
        14_457_164_773_341_254_839,
        3_380_559_159_398_149_536,
        405_369_992_556_588_842,
        1_160_496_518_987_189_126,
    ];
    assert_eq!(hashes, expect, "selector hashes, (algo, failover) in order");
}

#[test]
fn wide_rtt_selectors_select_as_recorded() {
    let mut hashes = Vec::new();
    for (i, paths) in [128u32, 256].into_iter().enumerate() {
        for (j, algo) in [PathAlgo::Dwrr, PathAlgo::BestRtt].into_iter().enumerate() {
            for failover in [false, true] {
                let d = drive(algo, paths, failover, 200 + (i * 2 + j) as u64);
                assert!(
                    d.max_blacklisted > 1,
                    "{algo:?}/{paths}: the scoreboard never fired"
                );
                assert_eq!(
                    d.max_quarantined > 0,
                    failover,
                    "{algo:?}/{paths}: a plane quarantines exactly when failover is on"
                );
                hashes.push(d.hash);
            }
        }
    }
    let expect: [u64; 8] = [
        5_977_905_549_568_301_269,
        16_516_264_436_439_980_944,
        9_592_205_387_074_691_589,
        6_291_812_904_391_021_577,
        12_079_897_270_530_789_130,
        17_768_355_332_992_377_213,
        596_172_270_884_674_043,
        17_584_428_794_582_712_547,
    ];
    assert_eq!(
        hashes, expect,
        "selector hashes, (paths, algo, failover) in order"
    );
}

/// A per-path-CC incast over a lossy uplink: ACKs and RTOs both
/// release per-path in-flight counts, and per-path windows of one or
/// two packets gate every send.
fn per_path_cc_run(algo: PathAlgo) -> u64 {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
        rails: 1,
        planes: 2,
        aggs_per_plane: 4,
    });
    let rng = SimRng::from_seed(31);
    let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo,
            num_paths: 8,
            per_path_cc: true,
            rto: SimDuration::from_micros(15),
            cc: CcConfig {
                init_window: 4096,
                min_window: 4096,
                max_window: 2 * 4096,
                ..CcConfig::default()
            },
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let dst = sim.network().topology().nic(4, 0);
    let lossy = {
        let src = sim.network().topology().nic(0, 0);
        sim.network().topology().route(src, dst, 0, 0)[1]
    };
    sim.network_mut().set_loss(lossy, 0.03);
    sim.network_mut().enable_trace(1 << 16);
    let conns: Vec<_> = (0..3)
        .map(|h| {
            let src = sim.network().topology().nic(h, 0);
            sim.add_connection(src, dst)
        })
        .collect();
    for (k, &c) in conns.iter().enumerate() {
        sim.post_message(c, 1024 * 1024 + k as u64 * 4096);
    }
    sim.run(&mut NoopApp, SimTime::from_nanos(u64::MAX / 2));
    assert!(sim.all_idle());
    let st = sim.total_stats();
    assert!(
        st.retransmits > 0,
        "{algo:?}: the lossy uplink must cost an RTO"
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{st:?}").bytes() {
        fnv(&mut h, u64::from(b));
    }
    fnv(&mut h, sim.now().as_nanos());
    fnv(&mut h, sim.events_scheduled());
    let trace = sim.network_mut().take_trace();
    for &c in &conns {
        let mut sends = [0u64; 8];
        for r in trace.iter().filter(|r| r.flow == c.0 as u64) {
            sends[r.path_id as usize] += 1;
        }
        for n in sends {
            fnv(&mut h, n);
        }
    }
    h
}

#[test]
fn per_path_cc_transfer_runs_as_recorded() {
    let got = [PathAlgo::Obs, PathAlgo::RoundRobin, PathAlgo::MpRdma].map(per_path_cc_run);
    assert_eq!(
        got,
        [
            13_474_522_539_152_411_221,
            18_189_913_648_242_366_737,
            5_899_330_601_769_211_874,
        ],
        "per-path-CC run hashes: Obs, RoundRobin, MpRdma"
    );
}
