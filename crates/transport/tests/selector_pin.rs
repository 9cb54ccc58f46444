//! Pinned path-selector behaviour.
//!
//! Every [`PathAlgo`], with the default scoreboard and again with plane
//! failover on, is driven through one seeded mix of `select_at` (with
//! exclusions), `on_ack` and `on_loss_at`. Losses
//! fall mostly on one plane's paths so the scoreboard blacklists paths
//! and, with failover on, quarantines the plane. A hash over every
//! choice and every `blacklisted_count` / `quarantined_planes` /
//! `is_blacklisted` / `readmission_bounded` reading, every path's
//! EWMAs (as raw bits, for the algorithms that track them) and
//! scoreboard entry at regular intervals, then the histogram of the
//! choices, pins the selector bit for bit. The DWRR deficits are pinned through Dwrr's
//! choices.
//!
//! Dwrr and BestRtt, the two algorithms that read every path's RTT
//! EWMA, are driven again at 128 and 256 paths — the widths of the
//! Fig. 9/10 sweeps — where the blacklist filter spans four 64-bit
//! words.
//!
//! The hashes were recorded with this driver on the selector that still
//! took an `allowed` mask, passing one that admits every path; they must
//! never change.

use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{PathAlgo, PathSelector};

const PATHS: u32 = 16;

/// Each algorithm with the seed its hashes were recorded at.
const ALGOS: [(PathAlgo, u64); 6] = [
    (PathAlgo::SinglePath, 100),
    (PathAlgo::RoundRobin, 101),
    (PathAlgo::Obs, 102),
    (PathAlgo::Dwrr, 103),
    (PathAlgo::BestRtt, 104),
    (PathAlgo::MpRdma, 105),
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

fn drive(algo: PathAlgo, paths: u32, failover: bool, seed: u64) -> Drive {
    let mut s = PathSelector::new(algo, paths, SimRng::from_seed(seed));
    if failover {
        s.set_plane_failover(2);
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
                let p = s.select_at(now, exclude);
                fnv(&mut h, u64::from(p));
                picks[p as usize] += 1;
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
    for (algo, seed) in ALGOS {
        for failover in [false, true] {
            let d = drive(algo, PATHS, failover, seed);
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
    let expect: [u64; 12] = [
        4_860_068_759_977_117_107,
        11_207_199_601_246_401_783,
        2_360_693_485_480_111_130,
        1_616_710_598_010_371_102,
        16_909_588_073_543_885_437,
        6_022_600_700_351_464_063,
        16_024_796_520_851_073_655,
        4_405_079_916_010_606_191,
        8_902_232_763_397_679_739,
        8_119_511_928_318_567_017,
        15_521_417_548_077_015_315,
        329_407_042_888_684_510,
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
        8_351_917_130_861_388_476,
        11_684_870_581_617_151_398,
        18_257_310_823_108_800_432,
        13_341_021_239_648_254_013,
        2_184_737_619_919_319_514,
        8_640_253_612_381_137_458,
        14_832_167_478_801_660_425,
        11_049_137_927_859_304_917,
    ];
    assert_eq!(
        hashes, expect,
        "selector hashes, (paths, algo, failover) in order"
    );
}
