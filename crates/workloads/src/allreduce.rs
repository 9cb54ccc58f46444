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

use stellar_net::{Fabric, NicId};
use stellar_sim::{SimDuration, SimTime};
use stellar_transport::{App, ConnId, MsgId, TransportSim};

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
        if self.iterations.is_empty() {
            return 0.0;
        }
        (0..self.iterations.len())
            .map(|i| self.bus_bandwidth_gbs(i))
            .sum::<f64>()
            / self.iterations.len() as f64
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

/// Drives one or more AllReduce jobs as a transport [`App`].
pub struct AllReduceRunner {
    jobs: Vec<JobState>,
    /// `by_conn[c]`: `(job, receiver rank)` of ring connection `c`;
    /// `None` for connections other apps opened in the same sim.
    by_conn: Vec<Option<(usize, usize)>>,
}

impl AllReduceRunner {
    /// Create the runner and open every ring connection in `sim`.
    pub fn new<F: Fabric>(sim: &mut TransportSim<F>, jobs: Vec<AllReduceJob>) -> Self {
        let mut runner = AllReduceRunner {
            jobs: Vec::new(),
            by_conn: Vec::new(),
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
