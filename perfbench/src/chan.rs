//! `chan_flexizz`: a closed loop against the threaded channel cluster.
//!
//! One client thread keeps one window of [`WINDOW_BATCHES`] batches in
//! flight through `Cluster::run_workload` and starts the next window only
//! when every transaction of the previous one reached its reply quorum.
//! Flexi-ZZ's `2f + 1` reply quorum keeps back-to-back windows sound: the
//! one trailing reply per transaction cannot complete a later window's
//! request on its own.

use crate::report::{Outcome, Unit};
use crate::stats;
use flexitrust::host::CommittedTxn;
use flexitrust::runtime::Cluster;
use flexitrust::types::ProtocolId;
use std::time::{Duration, Instant};

/// Fault threshold (n = 3f + 1 = 4 replicas).
pub const F: usize = 1;
/// Transactions per consensus batch.
pub const BATCH: usize = 20;
/// Batches per closed-loop window.
pub const WINDOW_BATCHES: usize = 8;
/// Transactions per window.
pub const WINDOW_TXNS: usize = BATCH * WINDOW_BATCHES;
/// Logical clients the window's transactions are spread over.
pub const CLIENTS: usize = 8;
/// A window that has not fully committed by then is a missed deadline.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// `Cluster::start` calls timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Untimed windows before measuring, so lazy set-up and caches settle.
const WARMUP_WINDOWS: usize = 50;
/// Consecutive windows per measuring unit (about half a second).
pub const UNIT_WINDOWS: usize = 1_000;

/// Cuts the measured windows into units of [`UNIT_WINDOWS`] consecutive
/// windows, dropping a partial last unit. A unit's rate is its committed
/// transactions over its summed window time.
pub fn units(window_ms: &[f64]) -> Vec<Unit> {
    window_ms
        .chunks_exact(UNIT_WINDOWS)
        .map(|chunk| Unit {
            txn_per_s: (chunk.len() * WINDOW_TXNS) as f64 * 1e3 / chunk.iter().sum::<f64>(),
            window_ms: chunk.to_vec(),
        })
        .collect()
}

/// Checks one window's commit log: exactly `txns` commits, each of the
/// window's `(client, request)` pairs exactly once (client `i % clients`,
/// request `i / clients + 1`, as `run_workload` numbers them), all at
/// sequence numbers above `prev_max_seq`. A seq at or below it means a
/// trailing reply of an earlier window completed this one. Returns the
/// window's highest seq.
pub fn check_window(
    log: &[CommittedTxn],
    txns: usize,
    clients: usize,
    prev_max_seq: u64,
) -> Result<u64, String> {
    if log.len() != txns {
        return Err(format!("window committed {} of {txns} txns", log.len()));
    }
    let mut seen = vec![false; txns];
    let mut max_seq = 0;
    for entry in log {
        let (client, request) = (entry.client.0 as usize, entry.request.0 as usize);
        // Invert the numbering: txn i is (i % clients, i / clients + 1).
        let slot = (client < clients && request >= 1)
            .then(|| (request - 1) * clients + client)
            .filter(|&i| i < txns)
            .ok_or_else(|| format!("commit of unknown txn c{client} r{request}"))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("txn c{client} r{request} committed twice"));
        }
        if entry.seq.0 <= prev_max_seq {
            return Err(format!(
                "stale completion: txn c{client} r{request} at seq {} is at or below \
                 the previous window's highest seq {prev_max_seq}",
                entry.seq.0
            ));
        }
        max_seq = max_seq.max(entry.seq.0);
    }
    Ok(max_seq)
}

/// What the closed loop measured.
pub struct LoopResult {
    /// Wall-clock time of each measured window, milliseconds.
    pub window_ms: Vec<f64>,
    /// Transactions committed in measured windows.
    pub committed: u64,
    /// Wall-clock time of the measured windows, seconds.
    pub elapsed_s: f64,
    /// Messages the cluster shed across measured windows.
    pub dropped: u64,
}

/// Runs the closed loop on `cluster` for `seconds`, recording attempts,
/// failures and check results into `outcome`. A missed deadline counts the
/// window's transactions as failed and ends the loop.
pub fn closed_loop(cluster: &Cluster, seconds: f64, outcome: &mut Outcome) -> LoopResult {
    let mut result = LoopResult {
        window_ms: Vec::new(),
        committed: 0,
        elapsed_s: 0.0,
        dropped: 0,
    };
    let mut prev_max_seq = 0;
    let mut window = 0usize;
    let mut measure_start = Instant::now();
    loop {
        if window == WARMUP_WINDOWS {
            measure_start = Instant::now();
        }
        let measured = window >= WARMUP_WINDOWS;
        if measured && measure_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let start = Instant::now();
        let summary = cluster.run_workload(WINDOW_TXNS, CLIENTS, DEADLINE);
        let took = start.elapsed();
        window += 1;
        if measured {
            outcome.attempted += WINDOW_TXNS as u64;
            result.dropped += summary.dropped_messages;
        }
        if summary.completed_txns < WINDOW_TXNS as u64 {
            outcome.notes.push(format!(
                "window {window} missed its {DEADLINE:?} deadline: {} of {WINDOW_TXNS} txns committed",
                summary.completed_txns
            ));
            if !measured {
                outcome.attempted += WINDOW_TXNS as u64;
            }
            outcome.failed += WINDOW_TXNS as u64;
            break;
        }
        match check_window(&summary.commit_log, WINDOW_TXNS, CLIENTS, prev_max_seq) {
            Ok(max_seq) => prev_max_seq = max_seq,
            Err(e) => {
                outcome.fail(format!("window {window}: {e}"));
                break;
            }
        }
        if measured {
            result.window_ms.push(took.as_secs_f64() * 1e3);
            result.committed += summary.completed_txns;
        }
    }
    result.elapsed_s = measure_start.elapsed().as_secs_f64();
    result
}

/// Starts the workload's cluster.
pub fn start_cluster() -> Cluster {
    Cluster::start(ProtocolId::FlexiZz, F, BATCH)
}

/// Median wall time of [`SETUP_REPEATS`] [`start_cluster`] calls, seconds;
/// each cluster is shut down untimed.
pub fn setup_s() -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let cluster = start_cluster();
            let took = start.elapsed().as_secs_f64();
            cluster.shutdown();
            took
        })
        .collect();
    stats::median(&times).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust::types::{ClientId, RequestId, SeqNum};

    /// A well-formed window: `txns` commits over `clients`, seqs from
    /// `first_seq`, `BATCH` txns per seq.
    fn window(txns: usize, clients: usize, first_seq: u64) -> Vec<CommittedTxn> {
        (0..txns)
            .map(|i| CommittedTxn {
                seq: SeqNum(first_seq + (i / BATCH) as u64),
                client: ClientId((i % clients) as u64),
                request: RequestId((i / clients) as u64 + 1),
            })
            .collect()
    }

    #[test]
    fn a_clean_window_passes_and_reports_its_highest_seq() {
        let log = window(WINDOW_TXNS, CLIENTS, 9);
        assert_eq!(check_window(&log, WINDOW_TXNS, CLIENTS, 8), Ok(16));
    }

    #[test]
    fn a_stale_completion_is_rejected() {
        // One txn completed by a trailing reply of the previous window,
        // which executed at seq 8.
        let mut log = window(WINDOW_TXNS, CLIENTS, 9);
        log[37].seq = SeqNum(8);
        let err = check_window(&log, WINDOW_TXNS, CLIENTS, 8).unwrap_err();
        assert!(err.contains("stale completion"), "{err}");
    }

    #[test]
    fn duplicate_missing_and_foreign_commits_are_rejected() {
        let mut dup = window(WINDOW_TXNS, CLIENTS, 1);
        dup[5] = dup[4];
        assert!(check_window(&dup, WINDOW_TXNS, CLIENTS, 0)
            .unwrap_err()
            .contains("twice"));

        let short = window(WINDOW_TXNS - 1, CLIENTS, 1);
        assert!(check_window(&short, WINDOW_TXNS, CLIENTS, 0)
            .unwrap_err()
            .contains("159 of 160"));

        let mut foreign = window(WINDOW_TXNS, CLIENTS, 1);
        foreign[0].client = ClientId(CLIENTS as u64);
        assert!(check_window(&foreign, WINDOW_TXNS, CLIENTS, 0)
            .unwrap_err()
            .contains("unknown"));
    }
}
