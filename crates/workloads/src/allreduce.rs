//! Ring AllReduce over the simulated fabric (Figs. 10 and 11).
//!
//! Each job is a ring of ranks (one NIC per rank). One AllReduce of
//! `data_bytes` per rank proceeds in `2(N-1)` steps; in step *k* every
//! rank sends one `data/N` chunk to its successor and may only send step
//! *k+1* after receiving step *k* — the causal chain that makes AllReduce
//! latency-sensitive. Bus bandwidth uses the standard
//! `size × 2(N−1)/N ÷ time` normalization so results are comparable
//! across ring sizes (what Fig. 10's y-axis reports).
//!
//! Multiple jobs can share the fabric (the Fig. 10 background jobs), and
//! a job can run bursty — `run_iters` AllReduces, then an off period —
//! reproducing the paper's 5 s-on/5 s-off background.
//!
//! The closed-loop fault experiments share the rest: [`InterleavedRings`],
//! [`first_edge_uplink`], [`calibrate`], the runner's error and downtime
//! record, and [`FaultWindows`].

use stellar_net::{ClosConfig, ClosTopology, Fabric, LinkId, NicId};
use stellar_sim::{stats, SimDuration, SimTime};
use stellar_transport::{App, ConnId, FatalError, MsgId, TransportSim};

/// Why [`InterleavedRings`] cannot place a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingLayoutError {
    /// A ring below 2 ranks; carries the ring size.
    TooFewRanks(usize),
    /// An odd rank total, which would put two ranks on one NIC.
    OddTotal(usize),
}

impl std::fmt::Display for RingLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewRanks(n) => write!(f, "ring layout: {n} ranks per ring, need at least 2"),
            Self::OddTotal(n) => write!(f, "ring layout: {n} ranks in total is odd"),
        }
    }
}

impl std::error::Error for RingLayoutError {}

/// `rings` rings of `ranks` ranks, interleaved over the two segments of
/// the Clos sized for them: global rank `g = j·ranks + r` (rank `r` of
/// ring `j`) goes to host `g/2 + (g%2)·(total/2)`, so every edge of an
/// even ring crosses the aggregation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavedRings {
    rings: usize,
    ranks: usize,
}

impl InterleavedRings {
    /// The layout, or why it cannot be placed.
    pub fn new(rings: usize, ranks: usize) -> Result<Self, RingLayoutError> {
        if ranks < 2 {
            return Err(RingLayoutError::TooFewRanks(ranks));
        }
        let total = rings * ranks;
        if !total.is_multiple_of(2) {
            return Err(RingLayoutError::OddTotal(total));
        }
        Ok(InterleavedRings { rings, ranks })
    }

    /// 2 segments of `total / 2` hosts, one rail, 2 planes × 60 aggs:
    /// the production 120-way fan-out, which survives losing a few
    /// paths by construction (§7.2).
    pub fn clos(&self) -> ClosConfig {
        ClosConfig {
            segments: 2,
            hosts_per_segment: self.rings * self.ranks / 2,
            rails: 1,
            planes: 2,
            aggs_per_plane: 60,
        }
    }

    /// Every ring's NICs, ring by ring, each in ring order.
    pub fn nics(&self, topo: &ClosTopology) -> Vec<Vec<NicId>> {
        let half = self.rings * self.ranks / 2;
        let nic = |g: usize| topo.nic(g / 2 + (g % 2) * half, 0);
        let ring = |j: usize| (j * self.ranks..(j + 1) * self.ranks).map(nic).collect();
        (0..self.rings).map(ring).collect()
    }
}

/// The ToR→Agg uplink on path `path` of a ring's first edge: the link
/// the fault experiments poison, flap or kill.
pub fn first_edge_uplink(topo: &ClosTopology, ring: &[NicId], path: u32) -> LinkId {
    topo.route(ring[0], ring[1], 0, path)[1]
}

/// On/off schedule for a bursty job.
#[derive(Debug, Clone, Copy)]
pub struct BurstSchedule {
    /// Consecutive AllReduce iterations per burst.
    pub run_iters: u32,
    /// Idle time between bursts.
    pub pause: SimDuration,
}

/// One AllReduce job description.
#[derive(Debug, Clone)]
pub struct AllReduceJob {
    /// Ranks in ring order.
    pub nics: Vec<NicId>,
    /// AllReduce payload per rank.
    pub data_bytes: u64,
    /// Total AllReduce iterations to run.
    pub iterations: u32,
    /// Optional bursty schedule.
    pub burst: Option<BurstSchedule>,
}

/// Completed-iteration record.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Iteration index.
    pub iter: u32,
    /// Start time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

impl IterationRecord {
    /// Iteration wall time.
    pub fn duration(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

/// Per-job results.
#[derive(Debug, Clone)]
pub struct AllReduceReport {
    /// Ring size.
    pub ranks: usize,
    /// Completed iterations.
    pub iterations: Vec<IterationRecord>,
    /// Payload per rank.
    pub data_bytes: u64,
}

impl AllReduceReport {
    /// Bus bandwidth of one iteration in GB/s (NCCL convention):
    /// `size × 2(N−1)/N / time`.
    pub fn bus_bandwidth_gbs(&self, iter: usize) -> f64 {
        let rec = &self.iterations[iter];
        let n = self.ranks as f64;
        let algo_bytes = self.data_bytes as f64 * 2.0 * (n - 1.0) / n;
        algo_bytes / rec.duration().as_nanos() as f64 // bytes/ns == GB/s
    }

    /// Mean bus bandwidth over all completed iterations, GB/s.
    pub fn mean_bus_bandwidth_gbs(&self) -> f64 {
        let busbw: Vec<f64> = (0..self.iterations.len())
            .map(|i| self.bus_bandwidth_gbs(i))
            .collect();
        stats::mean(&busbw).unwrap_or(0.0)
    }
}

struct JobState {
    job: AllReduceJob,
    /// conns[i]: rank i → rank (i+1) % N.
    conns: Vec<ConnId>,
    chunk: u64,
    steps_total: u32,
    /// Steps received by each rank this iteration.
    recv_steps: Vec<u32>,
    ranks_done: usize,
    iter: u32,
    iter_started: SimTime,
    records: Vec<IterationRecord>,
    finished: bool,
}

/// Drives one or more AllReduce jobs as a transport [`App`]. Run as the
/// sim's app, it also records connection errors and recovery downtimes.
pub struct AllReduceRunner {
    jobs: Vec<JobState>,
    /// `by_conn[c]`: `(job, receiver rank)` of ring connection `c`;
    /// `None` for connections other apps opened in the same sim.
    by_conn: Vec<Option<(usize, usize)>>,
    errors: Vec<(ConnId, FatalError)>,
    downtimes: Vec<SimDuration>,
}

impl AllReduceRunner {
    /// Create the runner and open every ring connection in `sim`.
    pub fn new<F: Fabric>(sim: &mut TransportSim<F>, jobs: Vec<AllReduceJob>) -> Self {
        let mut runner = AllReduceRunner {
            jobs: Vec::new(),
            by_conn: Vec::new(),
            errors: Vec::new(),
            downtimes: Vec::new(),
        };
        for job in jobs {
            runner.add_job(sim, job);
        }
        runner
    }

    /// Add one more ring mid-run (a tenant admitted by a scheduler),
    /// opening its connections in `sim`. Returns the job index; the
    /// caller kicks it off with [`start_job`](Self::start_job).
    pub fn add_job<F: Fabric>(&mut self, sim: &mut TransportSim<F>, job: AllReduceJob) -> usize {
        let j = self.jobs.len();
        let n = job.nics.len();
        assert!(n >= 2, "a ring needs at least two ranks");
        assert!(job.data_bytes >= n as u64, "data too small for the ring");
        assert!(job.iterations >= 1, "a job needs at least one iteration");
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let src = job.nics[i];
            let dst = job.nics[(i + 1) % n];
            let c = sim.add_connection(src, dst);
            let slot = c.0 as usize;
            if self.by_conn.len() <= slot {
                self.by_conn.resize(slot + 1, None);
            }
            self.by_conn[slot] = Some((j, (i + 1) % n));
            conns.push(c);
        }
        let chunk = (job.data_bytes / n as u64).max(1);
        self.jobs.push(JobState {
            steps_total: 2 * (n as u32 - 1),
            chunk,
            conns,
            recv_steps: vec![0; n],
            ranks_done: 0,
            iter: 0,
            iter_started: SimTime::ZERO,
            records: Vec::new(),
            finished: false,
            job,
        });
        j
    }

    /// Kick off iteration 0 of every job.
    pub fn start<F: Fabric>(&mut self, sim: &mut TransportSim<F>) {
        for j in 0..self.jobs.len() {
            self.start_iteration(sim, j);
        }
    }

    /// Kick off iteration 0 of job `j` alone (a late-admitted ring).
    pub fn start_job<F: Fabric>(&mut self, sim: &mut TransportSim<F>, j: usize) {
        self.start_iteration(sim, j);
    }

    fn start_iteration<F: Fabric>(&mut self, sim: &mut TransportSim<F>, j: usize) {
        let st = &mut self.jobs[j];
        st.iter_started = sim.now();
        st.recv_steps.iter_mut().for_each(|s| *s = 0);
        st.ranks_done = 0;
        for &c in &st.conns {
            sim.post_message(c, st.chunk);
        }
    }

    /// Whether every job finished all its iterations.
    pub fn all_finished(&self) -> bool {
        self.jobs.iter().all(|j| j.finished)
    }

    /// Whether job `j` finished all its iterations.
    pub fn job_finished(&self, j: usize) -> bool {
        self.jobs[j].finished
    }

    /// The ring connections of job `j` (`conns[i]`: rank i → rank i+1).
    pub fn job_conns(&self, j: usize) -> &[ConnId] {
        &self.jobs[j].conns
    }

    /// The report for job `j`.
    pub fn report(&self, j: usize) -> AllReduceReport {
        let st = &self.jobs[j];
        AllReduceReport {
            ranks: st.job.nics.len(),
            iterations: st.records.clone(),
            data_bytes: st.job.data_bytes,
        }
    }

    /// Every completed iteration and its busbw (GB/s), ring by ring.
    pub fn busbw_samples(&self) -> Vec<(IterationRecord, f64)> {
        let reports = (0..self.jobs.len()).map(|j| self.report(j));
        let samples = |rep: AllReduceReport| {
            (0..rep.iterations.len()).map(move |i| (rep.iterations[i], rep.bus_bandwidth_gbs(i)))
        };
        reports.flat_map(samples).collect()
    }

    /// Connections that died terminally, in callback order.
    pub fn errors(&self) -> &[(ConnId, FatalError)] {
        &self.errors
    }

    /// The downtime of each completed recovery cycle, in callback order.
    pub fn downtimes(&self) -> &[SimDuration] {
        &self.downtimes
    }
}

/// A fault-free pass: the baseline a fault run is judged against and
/// the clock its faults are scheduled by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Mean busbw over every job's iterations, ring by ring, GB/s.
    pub busbw_gbs: f64,
    /// Mean iteration time over the same iterations.
    pub iter_time: SimDuration,
}

/// Run `jobs` fault-free to completion on `sim` and calibrate on them.
pub fn calibrate<F: Fabric>(sim: &mut TransportSim<F>, jobs: Vec<AllReduceJob>) -> Calibration {
    let mut runner = AllReduceRunner::new(sim, jobs);
    runner.start(sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    assert!(runner.all_finished(), "calibration run must finish");
    let samples = runner.busbw_samples();
    let busbw: Vec<f64> = samples.iter().map(|&(_, bw)| bw).collect();
    let ns: u64 = samples.iter().map(|(rec, _)| rec.duration().as_nanos()).sum();
    Calibration {
        busbw_gbs: stats::mean(&busbw).expect("a finished job ran an iteration"),
        iter_time: SimDuration::from_nanos((ns / samples.len() as u64).max(1)),
    }
}

/// Mean busbw of the iterations in each §7.2 phase around a fault; an
/// empty window is `None`, not a zero-bandwidth window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindows {
    /// Iterations with `finished ≤ fault_start`.
    pub before: Option<f64>,
    /// Iterations with `started < recovered_at && finished > fault_start`.
    pub bridged: Option<f64>,
    /// Iterations with `started ≥ recovered_at`.
    pub after: Option<f64>,
}

impl FaultWindows {
    /// Split `(iteration, busbw)` samples; each mean sums in the order
    /// given.
    pub fn split(
        samples: &[(IterationRecord, f64)],
        fault_start: SimTime,
        recovered_at: SimTime,
    ) -> Self {
        let mean = |keep: &dyn Fn(&IterationRecord) -> bool| {
            let busbw: Vec<f64> = samples.iter().filter(|(r, _)| keep(r)).map(|s| s.1).collect();
            stats::mean(&busbw)
        };
        FaultWindows {
            before: mean(&|r| r.finished <= fault_start),
            bridged: mean(&|r| r.started < recovered_at && r.finished > fault_start),
            after: mean(&|r| r.started >= recovered_at),
        }
    }
}

impl<F: Fabric> App<F> for AllReduceRunner {
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, _msg: MsgId) {
        let Some(&Some((j, rank))) = self.by_conn.get(conn.0 as usize) else {
            return; // not ours (foreign traffic sharing the sim)
        };
        let now = sim.now();
        let st = &mut self.jobs[j];
        if st.finished {
            return;
        }
        st.recv_steps[rank] += 1;
        let steps = st.recv_steps[rank];
        if steps < st.steps_total {
            // Causal chain: receiving step k enables sending step k+1.
            let out = st.conns[rank];
            let chunk = st.chunk;
            sim.post_message(out, chunk);
            return;
        }
        st.ranks_done += 1;
        if st.ranks_done < st.job.nics.len() {
            return;
        }
        // Iteration complete.
        st.records.push(IterationRecord {
            iter: st.iter,
            started: st.iter_started,
            finished: now,
        });
        st.iter += 1;
        if st.iter >= st.job.iterations {
            st.finished = true;
            return;
        }
        match st.job.burst {
            Some(b) if st.iter.is_multiple_of(b.run_iters) => {
                // Off period, then resume via timer (token = job index).
                sim.schedule_timer(now + b.pause, j as u64);
            }
            _ => self.start_iteration(sim, j),
        }
    }

    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        let j = token as usize;
        if j < self.jobs.len() && !self.jobs[j].finished {
            self.start_iteration(sim, j);
        }
    }

    fn on_connection_error(&mut self, _sim: &mut TransportSim<F>, conn: ConnId, error: FatalError) {
        self.errors.push((conn, error));
    }

    fn on_connection_recovered(
        &mut self,
        _sim: &mut TransportSim<F>,
        _conn: ConnId,
        downtime: SimDuration,
    ) {
        self.downtimes.push(downtime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::{
        ClosConfig, ClosTopology, HybridConfig, HybridFabric, Network, NetworkConfig,
    };
    use stellar_sim::SimRng;
    use stellar_transport::{PathAlgo, TransportConfig};

    const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

    fn sim(algo: PathAlgo, paths: u32, seed: u64) -> TransportSim {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 8,
            rails: 1,
            planes: 2,
            aggs_per_plane: 16,
        });
        let rng = SimRng::from_seed(seed);
        let net = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        TransportSim::new(
            net,
            TransportConfig {
                algo,
                num_paths: paths,
                ..TransportConfig::default()
            },
            rng.fork("t"),
        )
    }

    fn ring(sim: &TransportSim, hosts: &[usize]) -> Vec<NicId> {
        hosts
            .iter()
            .map(|&h| sim.network().topology().nic(h, 0))
            .collect()
    }

    #[test]
    fn allreduce_completes_all_iterations() {
        let mut s = sim(PathAlgo::Obs, 128, 1);
        let nics = ring(&s, &[0, 2, 8, 10]);
        let mut runner = AllReduceRunner::new(
            &mut s,
            vec![AllReduceJob {
                nics,
                data_bytes: 4 * 1024 * 1024,
                iterations: 3,
                burst: None,
            }],
        );
        runner.start(&mut s);
        s.run(&mut runner, FOREVER);
        assert!(runner.all_finished());
        // A finished run holds neither terminally-failed nor
        // still-recovering connections.
        assert_eq!(s.failed_connections(), 0);
        assert_eq!(s.recovering_count(), 0);
        let rep = runner.report(0);
        assert_eq!(rep.iterations.len(), 3);
        assert!(rep.mean_bus_bandwidth_gbs() > 1.0);
    }

    /// A window smaller than one packet must not stall: a 16-rank OBS
    /// ring cutting its 4 MiB all-reduce into 256 KiB packets (one per
    /// ring chunk, above the 192 KiB initial window) completes on the
    /// packet and the hybrid fabric.
    #[test]
    fn ring_with_packets_above_the_initial_window_completes() {
        fn run<F: Fabric>(net: F) -> (bool, u64) {
            let config = TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 128,
                mtu: 256 * 1024,
                ..TransportConfig::default()
            };
            assert!(config.mtu > config.cc.init_window);
            let mut s = TransportSim::new(net, config, SimRng::from_seed(3).fork("t"));
            let nics = (0..16).map(|h| s.network().topology().nic(h, 0)).collect();
            let job = AllReduceJob {
                nics,
                data_bytes: 4 << 20,
                iterations: 1,
                burst: None,
            };
            let mut runner = AllReduceRunner::new(&mut s, vec![job]);
            runner.start(&mut s);
            s.run(&mut runner, FOREVER);
            (runner.all_finished(), s.total_stats().sent_packets)
        }
        let topo = || {
            ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 8,
                rails: 1,
                planes: 2,
                aggs_per_plane: 16,
            })
        };
        let rng = SimRng::from_seed(3).fork("net");
        let packet = run(Network::new(topo(), NetworkConfig::default(), rng.clone()));
        let hybrid = run(HybridFabric::new(
            topo(),
            NetworkConfig::default(),
            HybridConfig::default(),
            rng,
        ));
        for (fabric, (finished, sent)) in [("packet", packet), ("hybrid", hybrid)] {
            assert!(sent > 0, "{fabric}: nothing was sent");
            assert!(finished, "{fabric}: the all-reduce stalled");
        }
    }

    #[test]
    fn bus_bandwidth_is_sane_for_ring() {
        // 8 ranks on one segment, big payload: busbw approaches the
        // dual-plane NIC limit (2 × 200 Gbps = 50 GB/s — the paper's
        // "fully utilize the RNIC's bandwidth (50 GB/s)") from below.
        let mut s = sim(PathAlgo::Obs, 128, 2);
        let nics = ring(&s, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut runner = AllReduceRunner::new(
            &mut s,
            vec![AllReduceJob {
                nics,
                data_bytes: 16 * 1024 * 1024,
                iterations: 2,
                burst: None,
            }],
        );
        runner.start(&mut s);
        s.run(&mut runner, FOREVER);
        let bw = runner.report(0).mean_bus_bandwidth_gbs();
        assert!((2.0..50.0).contains(&bw), "busbw={bw}");
    }

    #[test]
    fn concurrent_jobs_share_the_fabric() {
        let mut s = sim(PathAlgo::Obs, 128, 3);
        let a = ring(&s, &[0, 8]);
        let b = ring(&s, &[1, 9]);
        let mut runner = AllReduceRunner::new(
            &mut s,
            vec![
                AllReduceJob {
                    nics: a,
                    data_bytes: 2 * 1024 * 1024,
                    iterations: 2,
                    burst: None,
                },
                AllReduceJob {
                    nics: b,
                    data_bytes: 2 * 1024 * 1024,
                    iterations: 2,
                    burst: None,
                },
            ],
        );
        runner.start(&mut s);
        s.run(&mut runner, FOREVER);
        assert!(runner.all_finished());
        assert_eq!(runner.report(0).iterations.len(), 2);
        assert_eq!(runner.report(1).iterations.len(), 2);
    }

    #[test]
    fn bursty_job_pauses_between_bursts() {
        let mut s = sim(PathAlgo::Obs, 128, 4);
        let nics = ring(&s, &[0, 8]);
        let pause = SimDuration::from_millis(5);
        let mut runner = AllReduceRunner::new(
            &mut s,
            vec![AllReduceJob {
                nics,
                data_bytes: 256 * 1024,
                iterations: 4,
                burst: Some(BurstSchedule {
                    run_iters: 2,
                    pause,
                }),
            }],
        );
        runner.start(&mut s);
        s.run(&mut runner, FOREVER);
        let rep = runner.report(0);
        assert_eq!(rep.iterations.len(), 4);
        // Gap between iteration 1 and 2 includes the pause.
        let gap = rep.iterations[2]
            .started
            .duration_since(rep.iterations[1].finished);
        assert!(gap >= pause, "gap={gap}");
        // Gap between 0 and 1 does not.
        let gap01 = rep.iterations[1]
            .started
            .duration_since(rep.iterations[0].finished);
        assert!(gap01 < pause);
    }

    #[test]
    #[should_panic(expected = "a job needs at least one iteration")]
    fn add_job_rejects_zero_iterations() {
        let mut s = sim(PathAlgo::Obs, 128, 1);
        let nics = ring(&s, &[0, 8]);
        AllReduceRunner::new(
            &mut s,
            vec![AllReduceJob {
                nics,
                data_bytes: 1024,
                iterations: 0,
                burst: None,
            }],
        );
    }

    #[test]
    fn interleaved_rings_give_every_rank_its_own_host() {
        for (rings, ranks) in [(1, 2), (1, 8), (2, 3), (3, 8), (4, 16)] {
            let layout = InterleavedRings::new(rings, ranks).unwrap();
            let topo = ClosTopology::build(layout.clos());
            let mut hosts: Vec<u32> = layout.nics(&topo).concat().iter().map(|n| n.0).collect();
            hosts.sort_unstable();
            let all: Vec<u32> = (0..(rings * ranks) as u32).collect();
            assert_eq!(hosts, all, "{rings} × {ranks}");
        }
        // Fig. 10's three 8-rank jobs: rank r of job j on host
        // r/2 + (r%2)·12 + j·4.
        let layout = InterleavedRings::new(3, 8).unwrap();
        let topo = ClosTopology::build(layout.clos());
        for (j, ring) in layout.nics(&topo).iter().enumerate() {
            for (r, nic) in ring.iter().enumerate() {
                assert_eq!(nic.0 as usize, r / 2 + (r % 2) * 12 + j * 4);
            }
        }
    }

    #[test]
    fn interleaved_rings_reject_short_rings_and_odd_totals() {
        assert_eq!(InterleavedRings::new(1, 0), Err(RingLayoutError::TooFewRanks(0)));
        assert_eq!(InterleavedRings::new(4, 1), Err(RingLayoutError::TooFewRanks(1)));
        assert_eq!(InterleavedRings::new(1, 3), Err(RingLayoutError::OddTotal(3)));
        assert_eq!(InterleavedRings::new(3, 5), Err(RingLayoutError::OddTotal(15)));
    }

    fn rec(started: u64, finished: u64) -> IterationRecord {
        IterationRecord {
            iter: 0,
            started: SimTime::from_nanos(started),
            finished: SimTime::from_nanos(finished),
        }
    }

    /// An iteration finishing exactly at the fault counts as before it,
    /// and one starting exactly at recovery counts as after it; neither
    /// is bridged.
    #[test]
    fn fault_windows_split_at_the_boundaries() {
        let (fault_start, recovered_at) = (SimTime::from_nanos(100), SimTime::from_nanos(200));
        let w = FaultWindows::split(
            &[
                (rec(0, 100), 1.0),
                (rec(100, 200), 2.0),
                (rec(200, 300), 5.0),
                (rec(50, 250), 4.0),
            ],
            fault_start,
            recovered_at,
        );
        assert_eq!(w.before, Some(1.0));
        assert_eq!(w.bridged, Some(3.0));
        assert_eq!(w.after, Some(5.0));
        // One iteration past either boundary moves it into the bridge.
        let w = FaultWindows::split(
            &[(rec(0, 101), 1.0), (rec(199, 300), 2.0)],
            fault_start,
            recovered_at,
        );
        assert_eq!((w.before, w.bridged, w.after), (None, Some(1.5), None));
    }

    /// Calibration averages every iteration of every ring.
    #[test]
    fn calibration_covers_every_ring() {
        let mut s = sim(PathAlgo::Obs, 128, 3);
        let job = |nics| AllReduceJob {
            nics,
            data_bytes: 2 * 1024 * 1024,
            iterations: 2,
            burst: None,
        };
        let jobs = vec![job(ring(&s, &[0, 8])), job(ring(&s, &[1, 9]))];
        let c = calibrate(&mut s, jobs.clone());
        let mut s = sim(PathAlgo::Obs, 128, 3);
        let mut runner = AllReduceRunner::new(&mut s, jobs);
        runner.start(&mut s);
        s.run(&mut runner, FOREVER);
        let bw: Vec<f64> = runner.busbw_samples().iter().map(|s| s.1).collect();
        assert_eq!(bw.len(), 4);
        assert_eq!(c.busbw_gbs, stats::mean(&bw).unwrap());
        let ns: u64 = (0..2)
            .flat_map(|j| runner.report(j).iterations)
            .map(|r| r.duration().as_nanos())
            .sum();
        assert_eq!(c.iter_time.as_nanos(), ns / 4);
    }

    #[test]
    fn fig10_shape_background_hurts_single_path_more_than_spray() {
        let run = |algo: PathAlgo, paths: u32| -> f64 {
            let mut s = sim(algo, paths, 5);
            let probe = ring(&s, &[0, 1, 8, 9]);
            let bg1 = ring(&s, &[2, 3, 10, 11]);
            let bg2 = ring(&s, &[4, 5, 12, 13]);
            let mk = |nics: Vec<NicId>, iters: u32| AllReduceJob {
                nics,
                data_bytes: 4 * 1024 * 1024,
                iterations: iters,
                burst: None,
            };
            let mut runner = AllReduceRunner::new(
                &mut s,
                vec![mk(probe, 3), mk(bg1, 12), mk(bg2, 12)],
            );
            runner.start(&mut s);
            s.run(&mut runner, FOREVER);
            runner.report(0).mean_bus_bandwidth_gbs()
        };
        let single = run(PathAlgo::SinglePath, 1);
        let spray = run(PathAlgo::Obs, 128);
        assert!(
            spray > single,
            "spray busbw {spray} should beat single-path {single}"
        );
    }
}
