//! The simulator workload `sim_ycsb` and the simulated twin of
//! `chan_flexizz`.
//!
//! Each run repeats one seeded scenario back to back. Every repeat must
//! reproduce the first one's fingerprint exactly and pass
//! `check_chaos_invariants`. Replica 0, the primary, is wrapped in a
//! [`WindowProbe`] that stamps the wall clock each time its executed
//! frontier advances, so a simulator "window" is the wall time the
//! simulator needs to execute as many batches as one `chan_flexizz`
//! window holds, taken as a sliding window starting at every batch.

use crate::chan::WINDOW_BATCHES;
use crate::report::{record_units, Outcome, Unit};
use crate::stats;
use flexitrust::protocol::{ConsensusEngine, Message, Outbox, ProtocolProperties, TimerKind};
use flexitrust::sim::{build_replicas, ReplicaSetup, ScenarioSpec, SimReport, Simulation};
use flexitrust::types::{
    BandwidthConfig, Digest, ProtocolId, ReplicaId, SeqNum, SystemConfig, Transaction, View,
};
use flexitrust::workload::{KeyDistribution, WorkloadConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repeats per run at least, whatever `--seconds` says: fingerprints need
/// a second repeat to compare against and medians a third.
pub const MIN_REPEATS: usize = 3;

/// Extra simulation builds timed per run for `setup_s`.
pub const SETUP_REPEATS: usize = 15;

/// The simulated scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Flexi-ZZ, n = 4, batch 100, 2 000 clients on YCSB-B (95 % reads,
    /// zipfian over 600 k records, 100 B values), unlimited links.
    Ycsb,
    /// The simulator's prediction for `chan_flexizz`: Flexi-ZZ, n = 4,
    /// batch 20, one closed-loop client per window slot, 16 B updates.
    ChanTwin,
}

impl Scenario {
    /// The scenario's spec for `seed`.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let mut spec = match self {
            Scenario::Ycsb => ScenarioSpec {
                f: 1,
                batch_size: 100,
                clients: 2_000,
                workload: WorkloadConfig::ycsb_b(),
                bandwidth: BandwidthConfig::unlimited(),
                duration_us: 80_000,
                warmup_us: 20_000,
                ..ScenarioSpec::paper_default(ProtocolId::FlexiZz)
            },
            Scenario::ChanTwin => ScenarioSpec {
                f: crate::chan::F,
                batch_size: crate::chan::BATCH,
                clients: crate::chan::WINDOW_TXNS,
                workload: WorkloadConfig {
                    record_count: crate::chan::WINDOW_TXNS as u64,
                    value_size: 16,
                    read_proportion: 0.0,
                    update_proportion: 1.0,
                    insert_proportion: 0.0,
                    rmw_proportion: 0.0,
                    scan_proportion: 0.0,
                    max_scan_len: 1,
                    distribution: KeyDistribution::Uniform,
                },
                bandwidth: BandwidthConfig::unlimited(),
                duration_us: 200_000,
                warmup_us: 50_000,
                ..ScenarioSpec::paper_default(ProtocolId::FlexiZz)
            },
        };
        spec.seed = seed;
        spec
    }
}

/// Wraps an engine and stamps the wall clock each time the engine's
/// executed frontier advances.
struct WindowProbe {
    inner: Box<dyn ConsensusEngine>,
    executed: u64,
    stamps: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl WindowProbe {
    fn observe(&mut self) {
        let executed = self.inner.last_executed().0;
        if executed > self.executed {
            self.executed = executed;
            if let Ok(mut stamps) = self.stamps.lock() {
                stamps.push((executed, Instant::now()));
            }
        }
    }
}

/// Sliding windows of [`WINDOW_BATCHES`] batches: for every executed seq
/// `k` (0 standing for `start`), the wall time from executing `k` to
/// executing `k + WINDOW_BATCHES`, in milliseconds. `stamps` holds
/// `(frontier, time)` pairs in frontier order; a stamp covers every seq
/// its frontier jumped over.
pub fn sliding_windows(start: Instant, stamps: &[(u64, Instant)]) -> Vec<f64> {
    let mut at = vec![start];
    for &(frontier, time) in stamps {
        while (at.len() as u64) <= frontier {
            at.push(time);
        }
    }
    at.windows(WINDOW_BATCHES + 1)
        .map(|w| w[WINDOW_BATCHES].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect()
}

impl ConsensusEngine for WindowProbe {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }
    fn properties(&self) -> ProtocolProperties {
        self.inner.properties()
    }
    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        self.inner.on_client_request(txns, out);
        self.observe();
    }
    fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Outbox) {
        self.inner.on_message(from, msg, out);
        self.observe();
    }
    fn on_timer(&mut self, timer: TimerKind, out: &mut Outbox) {
        self.inner.on_timer(timer, out);
        self.observe();
    }
    fn view(&self) -> View {
        self.inner.view()
    }
    fn last_executed(&self) -> SeqNum {
        self.inner.last_executed()
    }
    fn executed_txns(&self) -> u64 {
        self.inner.executed_txns()
    }
    fn state_digest(&self) -> Option<Digest> {
        self.inner.state_digest()
    }
    fn is_primary(&self) -> bool {
        self.inner.is_primary()
    }
}

/// One simulation repeat.
pub struct SimRun {
    /// The simulator's report.
    pub report: SimReport,
    /// `build_replicas` + `Simulation::with_replicas`, seconds.
    pub setup_s: f64,
    /// `Simulation::run`, seconds.
    pub run_s: f64,
    /// Wall time of each sliding window at the primary, milliseconds.
    pub window_ms: Vec<f64>,
}

/// Builds `spec`'s simulation [`SETUP_REPEATS`] times without running
/// it; returns each build's wall time in seconds.
pub fn setup_times(spec: &ScenarioSpec) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let sim = Simulation::new(spec.clone());
            let took = start.elapsed().as_secs_f64();
            drop(sim);
            took
        })
        .collect()
}

/// Builds and runs `spec` once.
pub fn run_once(spec: &ScenarioSpec) -> SimRun {
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let setup = Instant::now();
    let replicas = build_replicas(spec)
        .into_iter()
        .enumerate()
        .map(|(i, setup)| match i {
            0 => ReplicaSetup {
                engine: Box::new(WindowProbe {
                    inner: setup.engine,
                    executed: 0,
                    stamps: Arc::clone(&stamps),
                }),
                enclave: setup.enclave,
            },
            _ => setup,
        })
        .collect();
    let sim = Simulation::with_replicas(spec.clone(), replicas);
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = sim.run();
    let run_s = start.elapsed().as_secs_f64();
    let stamps = stamps.lock().map(|s| s.clone()).unwrap_or_default();
    let window_ms = sliding_windows(start, &stamps);
    SimRun {
        report,
        setup_s,
        run_s,
        window_ms,
    }
}

/// Everything a repeat must reproduce exactly: event and message counts,
/// completions, and the simulated throughput and latency outputs.
pub fn fingerprint(r: &SimReport) -> String {
    format!(
        "events={} msgs={} completed={} executed={} tc={} net_busy={} tput={:x} p50={:x} p99={:x}",
        r.events_processed,
        r.messages_delivered,
        r.completed_txns,
        r.max_replica_executed,
        r.tc_accesses_total,
        r.net_busy_ns,
        r.throughput_tps.to_bits(),
        r.p50_latency_ms.to_bits(),
        r.p99_latency_ms.to_bits(),
    )
}

/// Repeats `spec` until `seconds` have passed (and at least
/// [`MIN_REPEATS`] times), checking every repeat. Completed transactions
/// count as attempted; a repeat that fails a check counts all of them as
/// failed.
pub fn repeat(spec: &ScenarioSpec, seconds: f64, outcome: &mut Outcome) -> Vec<SimRun> {
    let start = Instant::now();
    let mut runs: Vec<SimRun> = Vec::new();
    while runs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        let run = run_once(spec);
        let txns = run.report.completed_txns;
        outcome.attempted += txns;
        let mut problems = Vec::new();
        if let Err(e) = run.report.check_chaos_invariants() {
            problems.push(e);
        }
        if let Some(first) = runs.first() {
            let (want, got) = (fingerprint(&first.report), fingerprint(&run.report));
            if want != got {
                problems.push(format!("repeat {} fingerprint {got} != {want}", runs.len()));
            }
        }
        if !problems.is_empty() {
            outcome.failed += txns;
            for p in problems {
                outcome.fail(p);
            }
        }
        runs.push(run);
    }
    runs
}

/// The simulator's wall-clock speed (simulated seconds, warm-up included,
/// per wall second) and its deterministic predictions, from `runs`.
/// Like the host metrics, the speed is the best repeat's (see
/// [`record_units`](crate::report::record_units)).
pub fn record_predictions(runs: &[SimRun], outcome: &mut Outcome) {
    let speed: Vec<f64> = runs
        .iter()
        .map(|r| r.report.total_duration_s / r.run_s)
        .collect();
    outcome.notes.push(format!(
        "simulated s per wall s, by repeat: {}",
        stats::list(&speed)
    ));
    outcome.set("sim_s_per_wall_s", stats::best_high(&speed));
    let first = runs.first().map(|r| &r.report);
    outcome.set(
        "sim_txn_per_s",
        first.map_or(f64::NAN, |r| r.throughput_tps),
    );
    outcome.set(
        "sim_latency_p50_ms",
        first.map_or(f64::NAN, |r| r.p50_latency_ms),
    );
    outcome.set(
        "sim_latency_p99_ms",
        first.map_or(f64::NAN, |r| r.p99_latency_ms),
    );
}

/// Host-level metrics of a simulator workload: the simulator is the host,
/// so each repeat is a measuring unit whose commits are the transactions
/// executed at the busiest replica per wall second and whose windows are
/// [`WindowProbe`] windows.
pub fn record_host(runs: &[SimRun], mut setup_s: Vec<f64>, outcome: &mut Outcome) {
    let units: Vec<Unit> = runs
        .iter()
        .map(|r| Unit {
            txn_per_s: r.report.max_replica_executed as f64 / r.run_s,
            window_ms: r.window_ms.clone(),
        })
        .collect();
    record_units(&units, outcome);
    setup_s.extend(runs.iter().map(|r| r.setup_s));
    outcome.set("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sliding_windows_cover_every_start_and_jumped_seqs() {
        let start = Instant::now();
        let ms = |n: u64| start + Duration::from_millis(n);
        // Seqs 1..=9 one per ms, except that the frontier jumps from 3 to 5.
        let stamps: Vec<(u64, Instant)> = [1, 2, 3, 5, 6, 7, 8, 9, 10]
            .into_iter()
            .map(|seq| (seq, ms(seq)))
            .collect();
        let windows = sliding_windows(start, &stamps);
        // Starts at seqs 0, 1 and 2; seq 4 shares seq 5's stamp.
        assert_eq!(windows.len(), 3);
        assert!((windows[0] - 8.0).abs() < 1e-9); // 0 -> 8
        assert!((windows[1] - 8.0).abs() < 1e-9); // 1 -> 9
        assert!((windows[2] - 8.0).abs() < 1e-9); // 2 -> 10
    }
}
