//! A one-thread replay of a workload's cluster through `host::Dispatcher`.
//!
//! The replay builds a workload's engines through their public
//! constructors and drives them with a bench-side [`EngineHost`]: one FIFO
//! of in-flight messages and a list of client replies, with no clock (the
//! pattern of `attacks::harness`). Each window's transactions go to the
//! primary as full batches; the FIFO is drained until it is empty and
//! every reply is fed to per-client `ClientLibrary` trackers. With tracing
//! on, every dispatcher call and every `ClientLibrary::on_reply` call is a
//! span keyed by message kind and by primary or backup.

use crate::chan::check_window;
use flexitrust::host::{CommittedTxn, Dispatcher, EngineHost, TimerToken};
use flexitrust::protocol::{
    ClientLibrary, ClientReply, ConsensusEngine, ProtocolProperties, RequestStatus, SharedMessage,
    TimerKind,
};
use flexitrust::trusted::SharedEnclave;
use flexitrust::types::{ClientId, ReplicaId, RequestId, SystemConfig, Transaction};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// The engines of one cluster, ready to replay.
pub struct Cluster {
    /// Configuration shared by every engine.
    pub config: SystemConfig,
    /// One engine per replica; replica 0 is the primary.
    pub engines: Vec<Box<dyn ConsensusEngine>>,
    /// Each replica's trusted component, when the protocol has one.
    pub enclaves: Vec<SharedEnclave>,
}

/// The replay's environment: a FIFO network and a reply list.
#[derive(Default)]
struct QueueHost {
    queue: VecDeque<(ReplicaId, ReplicaId, SharedMessage)>,
    replies: Vec<ClientReply>,
}

impl EngineHost for QueueHost {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        self.queue.push_back((from, to, msg));
    }

    fn reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        self.replies.push(reply);
    }

    fn schedule_timer(&mut self, _: ReplicaId, _: TimerKind, _: u64, _: TimerToken) {
        // No clock: windows hold whole batches, so no flush timer is needed,
        // and a failure-free replay never needs a view change.
    }
}

/// Durations of one kind of call, nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Span {
    /// One entry per call.
    pub ns: Vec<f64>,
}

impl Span {
    /// Mean nanoseconds per call; 0 when the call never happened.
    pub fn mean(&self) -> f64 {
        match self.ns.len() {
            0 => 0.0,
            n => self.ns.iter().sum::<f64>() / n as f64,
        }
    }
}

/// Whether a span ran at the primary or at a backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The replica leading the view.
    Primary,
    /// Any other replica.
    Backup,
}

/// What a replay observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Transactions committed (each exactly once, checked per window).
    pub txns: u64,
    /// Batches proposed.
    pub batches: u64,
    /// Client replies received.
    pub replies: u64,
    /// Matching replies each request needs.
    pub needed: usize,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
    /// `Dispatcher::deliver` spans by message kind and role.
    pub deliver: BTreeMap<(&'static str, Role), Span>,
    /// `Dispatcher::client_request` spans.
    pub client_request: Span,
    /// `ClientLibrary::on_reply` spans.
    pub on_reply: Span,
    /// `AppendF` calls at the primary and summed over backups.
    pub append_f: (u64, u64),
}

/// Times `f` into `span` when tracing.
fn timed<T>(trace: bool, span: &mut Span, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    let start = Instant::now();
    let value = f();
    span.ns.push(start.elapsed().as_nanos() as f64);
    value
}

/// Replays `windows` on `cluster`, each numbered as `run_workload` numbers
/// its transactions: txn `i` belongs to client `i % clients` with request
/// `i / clients + 1`.
pub fn replay(
    mut cluster: Cluster,
    windows: &[Vec<Transaction>],
    clients: usize,
    trace: bool,
) -> Result<Replay, String> {
    let n = cluster.engines.len();
    let rule = ProtocolProperties::for_protocol(cluster.config.protocol).reply_quorum;
    let batch = cluster.config.batch_size.max(1);
    let primary = 0usize;
    let append_fs = |enclaves: &[SharedEnclave]| -> Vec<u64> {
        enclaves
            .iter()
            .map(|e| e.stats().snapshot().counter_append_fs)
            .collect()
    };
    let before = append_fs(&cluster.enclaves);
    let mut dispatcher = Dispatcher::new(n);
    let mut host = QueueHost::default();
    let mut out = Replay::default();
    let mut prev_max_seq = 0;
    let start = Instant::now();
    for (w, txns) in windows.iter().enumerate() {
        let mut libraries: Vec<ClientLibrary> = (0..clients as u64)
            .map(|c| ClientLibrary::new(ClientId(c), &cluster.config, rule))
            .collect();
        for i in 0..txns.len() {
            libraries[i % clients].begin(RequestId((i / clients) as u64 + 1));
        }
        out.needed = libraries.first().map_or(0, ClientLibrary::needed);
        let expected = txns.len();
        let mut log: Vec<CommittedTxn> = Vec::with_capacity(expected);
        for chunk in txns.chunks(batch) {
            out.batches += 1;
            let engine = &mut *cluster.engines[primary];
            // Transaction clones are reference-count bumps on shared payloads.
            let chunk = chunk.to_vec();
            timed(trace, &mut out.client_request, || {
                dispatcher.client_request(engine, chunk, &mut host)
            });
        }
        loop {
            for reply in std::mem::take(&mut host.replies) {
                out.replies += 1;
                let Some(library) = libraries.get_mut(reply.client.0 as usize) else {
                    return Err(format!("reply for unknown client {}", reply.client.0));
                };
                let before = library.completed();
                let status = timed(trace, &mut out.on_reply, || library.on_reply(&reply));
                if let (true, RequestStatus::Complete { seq, .. }) =
                    (library.completed() > before, status)
                {
                    log.push(CommittedTxn {
                        seq,
                        client: reply.client,
                        request: reply.request,
                    });
                }
            }
            let Some((from, to, msg)) = host.queue.pop_front() else {
                break;
            };
            let role = if to.as_usize() == primary {
                Role::Primary
            } else {
                Role::Backup
            };
            let span = out.deliver.entry((msg.kind(), role)).or_default();
            let engine = &mut *cluster.engines[to.as_usize()];
            timed(trace, span, || {
                dispatcher.deliver(engine, from, msg, &mut host)
            });
        }
        prev_max_seq = check_window(&log, expected, clients, prev_max_seq)
            .map_err(|e| format!("replay window {w}: {e}"))?;
        out.txns += expected as u64;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let after = append_fs(&cluster.enclaves);
    for (i, (a, b)) in after.iter().zip(&before).enumerate() {
        let calls = a - b;
        if i == primary {
            out.append_f.0 += calls;
        } else {
            out.append_f.1 += calls;
        }
    }
    Ok(out)
}
