//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chan_flexizz|sim_ycsb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead (see
//! `perfbench/README.md`). Either way it checks the program's outputs,
//! prints a human-readable report, and ends standard output with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. A failed check
//! exits non-zero.

use flexitrust::trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry};
use flexitrust::types::{
    ClientId, KvOp, ProtocolId, ReplicaId, RequestId, SystemConfig, Transaction,
};
use flexitrust::workload::WorkloadGenerator;
use flexitrust_perfbench::report::{record_units, Outcome, END_TO_END, PER_LAYER};
use flexitrust_perfbench::sim::{self, Scenario};
use flexitrust_perfbench::{chan, layers, replay, stats};
use std::process::ExitCode;
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ChanFlexiZz,
    SimYcsb,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "chan_flexizz" => Some(Workload::ChanFlexiZz),
            "sim_ycsb" => Some(Workload::SimYcsb),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(bad("expected a positive number")),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match (args.workload, args.trace) {
        (Workload::ChanFlexiZz, false) => chan_end_to_end(&args, &mut outcome),
        (Workload::ChanFlexiZz, true) => chan_layers(&args, &mut outcome),
        (Workload::SimYcsb, false) => sim_end_to_end(Scenario::Ycsb, &args, &mut outcome),
        (Workload::SimYcsb, true) => sim_layers(Scenario::Ycsb, &args, &mut outcome),
    }
    outcome.check(catalogue);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "--- {} metrics ---",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for (name, unit, _) in catalogue {
        if let Some((_, value)) = outcome.metrics.iter().find(|(n, _)| n == name) {
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
    for error in &outcome.errors {
        eprintln!("CHECK FAILED: {error}");
    }
    println!("{}", outcome.json(catalogue));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set size of this process, megabytes (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

// ---------------------------------------------------------------------
// chan_flexizz
// ---------------------------------------------------------------------

/// Share of a `chan_flexizz` run spent on the simulated twin.
const TWIN_SHARE: f64 = 0.2;

fn chan_end_to_end(args: &Args, outcome: &mut Outcome) {
    // Set-up is timed first, in a fresh process; the simulated twin runs
    // next, before the cluster's threads exist, so neither competes with
    // the closed loop.
    outcome.set("setup_s", chan::setup_s());
    let mut twin = Outcome::default();
    let runs = sim::repeat(
        &Scenario::ChanTwin.spec(args.seed),
        args.seconds * TWIN_SHARE,
        &mut twin,
    );
    outcome.errors.append(&mut twin.errors);
    sim::record_predictions(&runs, outcome);

    let cluster = chan::start_cluster();
    let result = chan::closed_loop(&cluster, args.seconds * (1.0 - TWIN_SHARE), outcome);
    cluster.shutdown();
    let units = chan::units(&result.window_ms);
    if units.is_empty() {
        outcome.fail(format!(
            "{} windows make no unit of {}",
            result.window_ms.len(),
            chan::UNIT_WINDOWS
        ));
    }
    record_units(&units, outcome);
    outcome.set(
        "ops_ok_share",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome.notes.push(format!(
        "chan_flexizz: {} txns committed in {:.3} s, {} messages shed",
        result.committed, result.elapsed_s, result.dropped
    ));
}

/// The configuration `Cluster::start(FlexiZz, F, BATCH)` gives its
/// replicas.
fn chan_config() -> SystemConfig {
    let mut config = SystemConfig::for_protocol(ProtocolId::FlexiZz, chan::F);
    config.batch_size = chan::BATCH;
    config.view_timeout_us = 30_000_000;
    config
}

/// The cluster `Cluster::start(FlexiZz, F, BATCH)` builds, constructed
/// here through the same public constructors for the one-thread replay.
fn chan_replay_cluster() -> replay::Cluster {
    let config = chan_config();
    let shared = Arc::new(config.clone());
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
    let mut cluster = replay::Cluster {
        config,
        engines: Vec::new(),
        enclaves: Vec::new(),
    };
    for i in 0..shared.n {
        let id = ReplicaId(i as u32);
        let enclave = Enclave::shared(EnclaveConfig::counter_only(id, AttestationMode::Real));
        cluster
            .engines
            .push(Box::new(flexitrust::core::FlexiZz::new(
                Arc::clone(&shared),
                id,
                enclave.clone(),
                registry.clone(),
            )));
        cluster.enclaves.push(enclave);
    }
    cluster
}

/// A `chan_flexizz` window, exactly as `run_workload` builds it.
fn chan_window() -> Vec<Transaction> {
    (0..chan::WINDOW_TXNS)
        .map(|i| {
            Transaction::new(
                ClientId((i % chan::CLIENTS) as u64),
                RequestId((i / chan::CLIENTS) as u64 + 1),
                KvOp::Update {
                    key: i as u64,
                    value: vec![i as u8; 16].into(),
                },
            )
        })
        .collect()
}

fn chan_layers(args: &Args, outcome: &mut Outcome) {
    let windows = vec![chan_window(); REPLAY_WINDOWS];
    replay_layers(
        chan_replay_cluster,
        &windows,
        AttestationMode::Real,
        &chan_config(),
        outcome,
    );
    // Only the threaded cluster sheds messages; count them over a short
    // closed loop.
    let cluster = chan::start_cluster();
    let result = chan::closed_loop(&cluster, args.seconds / 4.0, outcome);
    cluster.shutdown();
    outcome.set(
        "runtime.dropped_msgs_per_ktxn",
        result.dropped as f64 * 1e3 / result.committed.max(1) as f64,
    );
    outcome.set("runtime.peak_rss_mb", peak_rss_mb());
    let twin = Scenario::ChanTwin.spec(args.seed);
    outcome.set(
        "workload.next_txn_ns",
        layers::next_txn_ns(twin.workload.clone(), args.seed, GENERATED_TXNS),
    );
    sim_counts(&twin, outcome);
}

// ---------------------------------------------------------------------
// sim_ycsb
// ---------------------------------------------------------------------

fn sim_end_to_end(scenario: Scenario, args: &Args, outcome: &mut Outcome) {
    let spec = scenario.spec(args.seed);
    let setup_s = sim::setup_times(&spec);
    let runs = sim::repeat(&spec, args.seconds, outcome);
    sim::record_host(&runs, setup_s, outcome);
    outcome.set(
        "ops_ok_share",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    sim::record_predictions(&runs, outcome);
    if let Some(first) = runs.first() {
        outcome.notes.push(format!(
            "{} repeats; first: {}",
            runs.len(),
            first.report.summary_line()
        ));
    }
}

/// Transactions timed for `workload.next_txn_ns`.
const GENERATED_TXNS: usize = 200_000;

fn sim_layers(scenario: Scenario, args: &Args, outcome: &mut Outcome) {
    let spec = scenario.spec(args.seed);
    let config = spec.system_config();
    let window_txns = config.batch_size * chan::WINDOW_BATCHES;
    let mut generator = WorkloadGenerator::new(spec.workload.clone(), ClientId(0), args.seed);
    let windows: Vec<Vec<Transaction>> = (0..REPLAY_WINDOWS)
        .map(|_| {
            (0..window_txns)
                .map(|i| {
                    Transaction::new(
                        ClientId((i % chan::CLIENTS) as u64),
                        RequestId((i / chan::CLIENTS) as u64 + 1),
                        generator.next_transaction().into_op(),
                    )
                })
                .collect()
        })
        .collect();
    let build = || {
        let setups = flexitrust::sim::build_replicas(&spec);
        let mut cluster = replay::Cluster {
            config: config.clone(),
            engines: Vec::new(),
            enclaves: Vec::new(),
        };
        for setup in setups {
            cluster.engines.push(setup.engine);
            cluster.enclaves.extend(setup.enclave);
        }
        cluster
    };
    replay_layers(build, &windows, AttestationMode::Counting, &config, outcome);
    outcome.notes.push(
        "runtime.dropped_msgs_per_ktxn: the simulator has no runtime transport; 0 by construction"
            .to_string(),
    );
    outcome.set("runtime.dropped_msgs_per_ktxn", 0.0);
    outcome.set("runtime.peak_rss_mb", peak_rss_mb());
    outcome.set(
        "workload.next_txn_ns",
        layers::next_txn_ns(spec.workload.clone(), args.seed, GENERATED_TXNS),
    );
    sim_counts(&spec, outcome);
}

// ---------------------------------------------------------------------
// Shared traced-run pieces
// ---------------------------------------------------------------------

/// Windows replayed per traced pass: 128 × 8 = 1 024 batches, past the
/// first checkpoint at seq 1 000.
const REPLAY_WINDOWS: usize = 128;

/// Untraced/traced replay pairs whose median wall times give the tracing
/// overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Replays the workload's cluster untraced and traced, records the host,
/// trusted, protocol, crypto and exec metrics and the tracing overhead.
fn replay_layers(
    build: impl Fn() -> replay::Cluster,
    windows: &[Vec<Transaction>],
    mode: AttestationMode,
    config: &SystemConfig,
    outcome: &mut Outcome,
) {
    let run = |trace: bool| replay::replay(build(), windows, chan::CLIENTS, trace);
    // A discarded warm-up pass, then alternating untraced and traced
    // passes, so neither side alone pays first-touch costs or host drift.
    let mut passes = Vec::with_capacity(1 + 2 * OVERHEAD_PAIRS);
    for i in 0..=2 * OVERHEAD_PAIRS {
        match run(i > 0 && i % 2 == 0) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                outcome.fail(e);
                return;
            }
        }
    }
    outcome.attempted += passes.iter().map(|p| p.txns).sum::<u64>();
    let wall = |trace_pass: usize| -> Vec<f64> {
        passes
            .iter()
            .skip(1)
            .skip(trace_pass)
            .step_by(2)
            .map(|p| p.wall_s)
            .collect()
    };
    let (plain_s, traced_s) = (
        stats::median(&wall(0)).unwrap_or(f64::NAN),
        stats::median(&wall(1)).unwrap_or(f64::NAN),
    );
    let Some(traced) = passes.pop() else {
        return;
    };
    outcome.notes.push(format!(
        "replay: {} windows, {} txns, {} batches; median of {OVERHEAD_PAIRS} passes: \
         untraced {plain_s:.4} s, traced {traced_s:.4} s",
        windows.len(),
        traced.txns,
        traced.batches
    ));
    outcome.set("trace.overhead_share", traced_s / plain_s - 1.0);
    outcome.notes.push("spans (per call):".to_string());
    for ((kind, role), span) in &traced.deliver {
        outcome.notes.push(format!(
            "  host.deliver {kind:<12} {role:<8?} {}",
            stats::describe(&span.ns, "ns")
        ));
    }
    for (kind, name) in [
        ("PrePrepare", "host.deliver_ns.PrePrepare"),
        ("Checkpoint", "host.deliver_ns.Checkpoint"),
    ] {
        let all: Vec<f64> = traced
            .deliver
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .flat_map(|(_, s)| s.ns.iter().copied())
            .collect();
        if all.is_empty() {
            outcome.notes.push(format!(
                "  {name}: the protocol sent no {kind}; 0 by construction"
            ));
        }
        outcome.set(name, replay::Span { ns: all }.mean());
    }
    let mut span_note = |label: &str, span: &replay::Span| {
        outcome
            .notes
            .push(format!("  {label:<26} {}", stats::describe(&span.ns, "ns")));
    };
    span_note("host.client_request", &traced.client_request);
    span_note("protocol.on_reply", &traced.on_reply);
    outcome.set("host.client_request_ns", traced.client_request.mean());
    outcome.set("protocol.on_reply_ns", traced.on_reply.mean());
    let batches = traced.batches.max(1) as f64;
    let backups = (config.n - 1).max(1) as f64;
    outcome.set(
        "trusted.append_f_per_batch.primary",
        traced.append_f.0 as f64 / batches,
    );
    outcome.set(
        "trusted.append_f_per_batch.backup",
        traced.append_f.1 as f64 / batches / backups,
    );
    outcome.set(
        "protocol.replies_per_txn",
        traced.replies as f64 / traced.txns.max(1) as f64,
    );
    outcome.set(
        "protocol.useful_reply_share",
        traced.needed as f64 * traced.txns as f64 / traced.replies.max(1) as f64,
    );

    let batches = layers::batches(&windows.concat(), config.batch_size);
    match layers::trusted(mode, config.n, &batches) {
        Ok((append, verify)) => {
            outcome.notes.push(format!(
                "  trusted.append_f           {}",
                stats::describe(&append.ns, "ns")
            ));
            outcome.notes.push(format!(
                "  crypto.attest_verify       {}",
                stats::describe(&verify.ns, "ns")
            ));
            outcome.set("trusted.append_f_ns", append.mean());
            outcome.set("crypto.attest_verify_ns", verify.mean());
        }
        Err(e) => outcome.fail(e),
    }
    match layers::exec(config, &batches) {
        Ok(ns) => outcome.set("exec.submit_ns_per_txn", ns),
        Err(e) => outcome.fail(e),
    }
}

/// The simulator's counts and wall cost for `spec`, from one repeat.
fn sim_counts(spec: &flexitrust::sim::ScenarioSpec, outcome: &mut Outcome) {
    let run = sim::run_once(spec);
    let r = &run.report;
    if let Err(e) = r.check_chaos_invariants() {
        outcome.fail(e);
    }
    outcome.attempted += r.completed_txns;
    let txns = r.max_replica_executed.max(1) as f64;
    let wall_ns = run.run_s * 1e9;
    outcome.notes.push(format!(
        "sim: {} events, {} messages, {} txns executed at the busiest replica, {:.4} s wall",
        r.events_processed, r.messages_delivered, r.max_replica_executed, run.run_s
    ));
    outcome.set("sim.wall_ns_per_txn", wall_ns / txns);
    outcome.set("sim.events_per_txn", r.events_processed as f64 / txns);
    outcome.set("sim.msgs_per_txn", r.messages_delivered as f64 / txns);
    outcome.set(
        "sim.wall_ns_per_event",
        wall_ns / r.events_processed.max(1) as f64,
    );
    let batches = txns / spec.batch_size.max(1) as f64;
    outcome.set(
        "sim.tc_accesses_per_batch",
        r.tc_accesses_total as f64 / batches,
    );
    outcome.set(
        "sim.tc_primary_share",
        r.tc_accesses_primary as f64 / r.tc_accesses_total.max(1) as f64,
    );
}
