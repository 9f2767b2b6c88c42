//! Reproduces the problems that keep the TCP host and f + 1-quorum
//! clusters out of the benchmark's timed workloads (see `../README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --example repro -- <case>
//! ```
//!
//! Cases:
//! * `tcp-flexibft-burst` — 11 fresh loopback-TCP Flexi-BFT clusters, one
//!   burst of 20 000 txns each; a burst that stops short stalled.
//! * `tcp-closed-loop <flexizz|pbft>` — the `chan_flexizz` closed loop
//!   (160-txn windows, 1 s deadline) on the TCP host for up to 30 s:
//!   window latency percentiles, windows of 40 ms or more, and the first
//!   missed deadline.
//! * `stale-windows <flexibft|pbft>` — back-to-back 160-txn windows on the
//!   channel cluster for 5 s, counting windows a trailing reply of the
//!   previous window completed.

use flexitrust::runtime::{Cluster, ClusterSummary, TcpCluster};
use flexitrust::types::ProtocolId;
use flexitrust_perfbench::chan::{check_window, BATCH, CLIENTS, DEADLINE, F, WINDOW_TXNS};
use flexitrust_perfbench::stats;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn protocol(name: Option<&str>) -> Option<ProtocolId> {
    match name? {
        "flexizz" => Some(ProtocolId::FlexiZz),
        "flexibft" => Some(ProtocolId::FlexiBft),
        "pbft" => Some(ProtocolId::Pbft),
        _ => None,
    }
}

fn tcp_flexibft_burst() {
    const BURSTS: usize = 11;
    const TXNS: usize = 20_000;
    let mut stalled = 0;
    for burst in 1..=BURSTS {
        let cluster =
            TcpCluster::start(ProtocolId::FlexiBft, F, BATCH).expect("tcp cluster starts");
        let summary = cluster.run_workload(TXNS, CLIENTS, Duration::from_secs(10));
        cluster.shutdown();
        let verdict = if summary.completed_txns < TXNS as u64 {
            stalled += 1;
            "STALLED"
        } else {
            "ok"
        };
        println!(
            "burst {burst:>2}: {:>5} of {TXNS} txns committed in {:.2} s  {verdict}",
            summary.completed_txns,
            summary.elapsed.as_secs_f64()
        );
    }
    println!("{stalled} of {BURSTS} bursts stalled");
}

/// Runs back-to-back windows through `run` for up to `seconds`, printing
/// latency percentiles and the first missed deadline or stale window.
fn closed_loop(seconds: f64, mut run: impl FnMut() -> ClusterSummary) {
    let start = Instant::now();
    let mut window_ms = Vec::new();
    let (mut prev_max_seq, mut stale, mut missed) = (0, 0, None);
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let summary = run();
        let took = t.elapsed().as_secs_f64() * 1e3;
        if summary.completed_txns < WINDOW_TXNS as u64 {
            missed = Some((window_ms.len() + 1, summary.completed_txns));
            break;
        }
        window_ms.push(took);
        match check_window(&summary.commit_log, WINDOW_TXNS, CLIENTS, prev_max_seq) {
            Ok(max_seq) => prev_max_seq = max_seq,
            Err(_) => {
                stale += 1;
                prev_max_seq = summary
                    .commit_log
                    .iter()
                    .map(|c| c.seq.0)
                    .max()
                    .unwrap_or(0);
            }
        }
    }
    println!("windows: {}", stats::describe(&window_ms, "ms"));
    let sorted = stats::sorted(&window_ms);
    if let Some(p99) = stats::tail_percentile(&sorted, 0.99) {
        println!("p99 {p99:.3} ms");
    }
    let slow = window_ms.iter().filter(|&&ms| ms >= 40.0).count();
    println!("{slow} windows took 40 ms or more");
    println!(
        "{stale} of {} windows failed the window check",
        window_ms.len()
    );
    match missed {
        Some((window, done)) => println!(
            "window {window} missed its {DEADLINE:?} deadline with {done} of {WINDOW_TXNS} txns: STALLED"
        ),
        None => println!("no deadline missed in {seconds} s"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let case = args.first().map(String::as_str);
    let proto = protocol(args.get(1).map(String::as_str));
    match (case, proto) {
        (Some("tcp-flexibft-burst"), _) => tcp_flexibft_burst(),
        (Some("tcp-closed-loop"), Some(p)) => {
            let cluster = TcpCluster::start(p, F, BATCH).expect("tcp cluster starts");
            closed_loop(30.0, || {
                cluster.run_workload(WINDOW_TXNS, CLIENTS, DEADLINE)
            });
            cluster.shutdown();
        }
        (Some("stale-windows"), Some(p)) => {
            let cluster = Cluster::start(p, F, BATCH);
            closed_loop(5.0, || cluster.run_workload(WINDOW_TXNS, CLIENTS, DEADLINE));
            cluster.shutdown();
        }
        _ => {
            eprintln!(
                "usage: repro tcp-flexibft-burst | tcp-closed-loop <flexizz|pbft> | \
                 stale-windows <flexibft|pbft>"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
