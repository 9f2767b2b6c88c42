//! Paths every protocol shares through the one PBFT-family engine, run for
//! every protocol: a view change past a slot that was accepted but never
//! executed, and a client retry whose request then commits.

use flexitrust::baselines::common::{
    deliver_until_quiescent, message_queues, route_actions, run_cluster_until_quiescent,
};
use flexitrust::baselines::{
    CheapBft, MinBft, MinZz, OpbftEa, Pbft, PbftEa, PbftFamilyEngine, Zyzzyva,
};
use flexitrust::prelude::*;
use flexitrust::protocol::Action;
use flexitrust::trusted::AttestationMode;
use flexitrust::types::KvOp;

/// Every protocol but CheapBFT, whose passive replicas only vote after a
/// protocol switch this repository does not model.
fn protocols() -> impl Iterator<Item = ProtocolId> {
    ProtocolId::ALL
        .into_iter()
        .filter(|p| *p != ProtocolId::CheapBft)
}

/// A cluster of `protocol` with fault threshold 1 and one-transaction
/// batches, over counting-mode enclaves.
fn cluster(protocol: ProtocolId) -> Vec<PbftFamilyEngine> {
    let mut cfg = SystemConfig::for_protocol(protocol, 1);
    cfg.batch_size = 1;
    let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
    (0..cfg.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            let enclave = Enclave::shared(EnclaveConfig::log_based(id, AttestationMode::Counting));
            let (cfg, registry) = (cfg.clone(), registry.clone());
            match protocol {
                ProtocolId::Pbft => Pbft::engine(cfg, id),
                ProtocolId::Zyzzyva => Zyzzyva::engine(cfg, id),
                ProtocolId::PbftEa => PbftEa::engine(cfg, id, enclave, registry),
                ProtocolId::OpbftEa => OpbftEa::engine(cfg, id, enclave, registry),
                ProtocolId::MinBft => MinBft::engine(cfg, id, enclave, registry),
                ProtocolId::MinZz => MinZz::engine(cfg, id, enclave, registry),
                ProtocolId::CheapBft => CheapBft::engine(cfg, id, enclave, registry),
                ProtocolId::FlexiBft | ProtocolId::OFlexiBft => {
                    FlexiBft::new(cfg, id, enclave, registry)
                }
                ProtocolId::FlexiZz | ProtocolId::OFlexiZz => {
                    FlexiZz::new(cfg, id, enclave, registry)
                }
            }
        })
        .collect()
}

fn txn(request: u64) -> Transaction {
    Transaction::new(
        ClientId(1),
        RequestId(request),
        KvOp::Update {
            key: request,
            value: vec![1].into(),
        },
    )
}

fn executed(engine: &PbftFamilyEngine, txn: &Transaction) -> bool {
    engine
        .core()
        .cached_reply(txn.client(), txn.request())
        .is_some()
}

#[test]
fn a_slot_accepted_but_never_executed_does_not_wedge_the_next_view() {
    for protocol in protocols() {
        let mut engines = cluster(protocol);
        // 1. The primary's PrePrepare reaches everyone; every vote is lost.
        let mut out = Outbox::new();
        engines[0].on_client_request(vec![txn(1)], &mut out);
        let proposal = out.broadcasts()[0].clone();
        for engine in engines.iter_mut() {
            engine.on_message(ReplicaId(0), proposal.clone(), &mut Outbox::new());
        }
        // 2. The old primary is cut off and the backups' view-change timers
        // fire.
        let mut queues = message_queues(&engines);
        for engine in engines.iter_mut().skip(1) {
            let mut out = Outbox::new();
            engine.on_timer(TimerKind::ViewChange, &mut out);
            route_actions(engine.id(), out.drain(), &mut queues);
        }
        deliver_until_quiescent(&mut engines[1..], &mut queues, 100);
        assert!(engines[1].is_primary(), "{protocol:?}");
        // 3. A fresh request reaches the new primary.
        let fresh = txn(2);
        run_cluster_until_quiescent(&mut engines[1..], vec![(0, vec![fresh.clone()])], 300);
        // 4. Every live replica executes it.
        for engine in &engines[1..] {
            assert_eq!(engine.view(), View(1), "{protocol:?} {}", engine.id());
            assert!(
                executed(engine, &fresh),
                "{protocol:?}: replica {} is wedged at {:?}",
                engine.id(),
                engine.last_executed()
            );
        }
    }
}

#[test]
fn a_committed_retry_cancels_its_forwarded_timer() {
    for protocol in protocols() {
        let mut engines = cluster(protocol);
        let retried = txn(1);
        // A client retries at backup 1, which forwards to the primary and
        // arms a forwarded-request timer — never a view-change timer.
        let mut out = Outbox::new();
        let retry = Message::ClientRetry {
            txn: retried.clone(),
        };
        engines[1].on_message(ReplicaId(1), retry, &mut out);
        let timers: Vec<TimerKind> = out
            .actions()
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .collect();
        let [TimerKind::RequestForwarded(tag)] = timers[..] else {
            panic!("{protocol:?}: the retry armed {timers:?}");
        };
        // The primary proposes the forwarded request; the proposal cancels
        // the timer at the backup, and the request commits.
        let mut queues = message_queues(&engines);
        route_actions(ReplicaId(1), out.drain(), &mut queues);
        let forward = std::mem::take(&mut queues[0]);
        let mut out = Outbox::new();
        for (from, msg) in forward {
            engines[0].on_message(from, msg, &mut out);
        }
        route_actions(ReplicaId(0), out.drain(), &mut queues);
        let mut out = Outbox::new();
        for (from, msg) in std::mem::take(&mut queues[1]) {
            engines[1].on_message(from, msg, &mut out);
        }
        assert!(
            out.actions().iter().any(|a| matches!(
                a,
                Action::CancelTimer { timer: TimerKind::RequestForwarded(t) } if *t == tag
            )),
            "{protocol:?}: the proposal left the timer armed"
        );
        assert!(!out.actions().iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: TimerKind::ViewChange,
                ..
            }
        )));
        route_actions(ReplicaId(1), out.drain(), &mut queues);
        deliver_until_quiescent(&mut engines, &mut queues, 300);
        assert!(executed(&engines[1], &retried), "{protocol:?}");
        // A late expiry of the cancelled timer starts no view change.
        let mut out = Outbox::new();
        engines[1].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        assert!(out.is_empty(), "{protocol:?}");
        assert!(!engines[1].in_view_change(), "{protocol:?}");
    }
}
