//! Flexi-ZZ: the single-phase speculative FlexiTrust protocol (Figure 4).
//!
//! Flexi-ZZ is the FlexiTrust conversion of MinZZ (and, transitively, of
//! Zyzzyva): the primary binds each batch to its trusted counter with
//! `AppendF` and broadcasts the attested `PrePrepare`; every replica that
//! accepts the proposal executes it speculatively, in sequence order, and
//! replies directly to the client; the client completes with `2f + 1`
//! matching replies out of `3f + 1` replicas.
//!
//! Three properties distinguish it from Zyzzyva/MinZZ (§8.3):
//!
//! * The fast path only needs `n − f` replies, so it survives up to `f`
//!   unresponsive replicas without falling back to a slower path
//!   (Figure 7).
//! * One trusted-counter access per consensus, at the primary only.
//! * A simple view change: an unhappy client re-broadcasts its transaction;
//!   replicas answer from their reply cache or forward it to the primary
//!   and start a timer; on expiry they vote for a view change, and the new
//!   primary creates a fresh counter (`Create`) and re-proposes, in order,
//!   everything that may have committed, filling gaps with no-ops.
//!   Requests executed by fewer than `2f + 1` replicas may be dropped, in
//!   which case those replicas roll back — which is safe precisely because
//!   no client can have completed such a request.

use flexitrust_baselines::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for Flexi-ZZ replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexiZz;

impl FlexiZz {
    /// The Flexi-ZZ style parameters: MinZZ's speculative single phase,
    /// with `AppendF` at the primary only and `2f + 1` view-change quorums
    /// over `3f + 1` replicas.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::FlexiZz,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::TwoFPlusOne,
            commit_quorum_rule: QuorumRule::TwoFPlusOne,
            speculative: true,
            primary_attest: PrimaryAttest::AppendF,
            replica_attest: ReplicaAttest::None,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiZz, f)
    }

    /// The configuration of the sequential ablation `oFlexi-ZZ`.
    pub fn sequential_config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::OFlexiZz, f)
    }

    /// The counter-only enclave Flexi-ZZ expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`; a configuration for
    /// `oFlexi-ZZ` gives the sequential ablation.
    // A builder: every protocol is the one `PbftFamilyEngine`, so `new`
    // returns that engine rather than `Self`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        let config = config.into();
        let style = ProtocolStyle {
            id: match config.protocol {
                ProtocolId::OFlexiZz => ProtocolId::OFlexiZz,
                _ => ProtocolId::FlexiZz,
            },
            ..Self::style()
        };
        PbftFamilyEngine::new(config, id, style, Some(enclave), Some(registry))
    }

    /// Creates the sequential ablation (`oFlexi-ZZ`) engine for replica `id`.
    pub fn sequential(
        f: usize,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        Self::new(Self::sequential_config(f), id, enclave, registry)
    }
}

/// Builds a full Flexi-ZZ cluster (engine per replica) over counting-mode
/// enclaves; used by tests, examples and the simulator registry.
pub fn build_cluster(config: &SystemConfig) -> Vec<PbftFamilyEngine> {
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            FlexiZz::new(
                config.clone(),
                id,
                FlexiZz::enclave(id, AttestationMode::Counting),
                registry.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_baselines::common::{
        deliver_until_quiescent, message_queues, route_actions, run_cluster_until_quiescent,
    };
    use flexitrust_protocol::{Action, ConsensusEngine, Message, Outbox, TimerKind};
    use flexitrust_types::{ClientId, KvOp, RequestId, SeqNum, Transaction, View};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![7].into(),
                    },
                )
            })
            .collect()
    }

    fn cluster(f: usize, batch_size: usize) -> Vec<PbftFamilyEngine> {
        let mut cfg = FlexiZz::config(f);
        cfg.batch_size = batch_size;
        build_cluster(&cfg)
    }

    #[test]
    fn single_phase_speculative_commit() {
        let mut engines = cluster(1, 2);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(4))], 300);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn replies_are_speculative_and_need_2f_plus_1_at_the_client() {
        let mut engines = cluster(2, 1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[3].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
        assert_eq!(
            engines[0].properties().reply_quorum,
            QuorumRule::TwoFPlusOne
        );
        assert_eq!(engines[0].properties().phases, 1);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let mut engines = cluster(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(6))], 300);
        let primary = engines[0].enclave().unwrap().stats().snapshot();
        assert_eq!(primary.counter_append_fs, 6);
        for e in &engines[1..] {
            let backup = e.enclave().unwrap().stats().snapshot();
            assert_eq!(backup.total_accesses(), 0);
        }
    }

    #[test]
    fn sequential_ablation_proposes_one_instance_at_a_time() {
        let mut cfg = FlexiZz::sequential_config(1);
        cfg.batch_size = 1;
        let mut engines = build_cluster(&cfg);
        assert_eq!(engines[0].style().id, ProtocolId::OFlexiZz);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(4), &mut out);
        assert_eq!(engines[0].outstanding(), 1);
        assert_eq!(out.broadcasts().len(), 1);
    }

    #[test]
    fn fast_path_survives_f_unresponsive_replicas() {
        // With f = 1 (n = 4), one replica never receives anything; the other
        // three still execute and reply — enough for the 2f + 1 = 3 reply
        // rule, unlike MinZZ/Zyzzyva which would need all replicas.
        let mut engines = cluster(1, 1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut replies = 0;
        for engine in engines.iter_mut().take(3) {
            let mut out = Outbox::new();
            engine.on_message(ReplicaId(0), preprepare.clone(), &mut out);
            replies += out.replies().len();
        }
        assert_eq!(replies, 3);
        let needed = engines[0].config().quorum(QuorumRule::TwoFPlusOne);
        assert!(replies >= needed);
    }

    #[test]
    fn client_retry_is_answered_from_the_reply_cache() {
        let mut engines = cluster(1, 1);
        let request = txns(1);
        run_cluster_until_quiescent(&mut engines, vec![(0, request.clone())], 300);
        let mut out = Outbox::new();
        engines[2].on_message(
            ReplicaId(1),
            Message::ClientRetry {
                txn: request[0].clone(),
            },
            &mut out,
        );
        assert_eq!(out.replies().len(), 1);
        assert_eq!(out.replies()[0].request, request[0].request());
    }

    #[test]
    fn unserved_client_retry_forwards_to_primary_and_arms_a_timer() {
        let mut engines = cluster(1, 1);
        let txn = txns(1).remove(0);
        let mut out = Outbox::new();
        engines[2].on_message(ReplicaId(1), Message::ClientRetry { txn }, &mut out);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(*out.sends()[0].0, ReplicaId(0));
        assert!(forwarded_timer(&out).is_some());
    }

    #[test]
    fn forwarded_request_timeout_triggers_a_view_change_vote() {
        let mut engines = cluster(1, 1);
        let mut two = txns(2);
        let other = two.remove(1);
        let retried = two.remove(0);
        let mut out = Outbox::new();
        engines[2].on_message(
            ReplicaId(1),
            Message::ClientRetry { txn: retried },
            &mut out,
        );
        let tag = forwarded_timer(&out).expect("the retry arms a forwarded-request timer");
        // A PrePrepare that does not carry the retried transaction leaves
        // its timer armed.
        let mut out = Outbox::new();
        engines[0].on_client_request(vec![other], &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[2].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(engines[2].last_executed(), SeqNum(1));
        assert!(!cancels(&out, tag));
        let mut out = Outbox::new();
        engines[2].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        assert_eq!(view_change_votes(&out), 1);
        assert!(engines[2].in_view_change());
    }

    /// The tag of the forwarded-request timer `out` arms, if any.
    fn forwarded_timer(out: &Outbox) -> Option<u64> {
        out.actions().iter().find_map(|a| match a {
            Action::SetTimer {
                timer: TimerKind::RequestForwarded(t),
                ..
            } => Some(*t),
            _ => None,
        })
    }

    fn cancels(out: &Outbox, tag: u64) -> bool {
        out.actions().iter().any(|a| {
            matches!(
                a,
                Action::CancelTimer {
                    timer: TimerKind::RequestForwarded(t)
                } if *t == tag
            )
        })
    }

    fn view_change_votes(out: &Outbox) -> usize {
        out.broadcasts()
            .into_iter()
            .filter(|m| m.kind() == "ViewChange")
            .count()
    }

    #[test]
    fn preprepare_carrying_a_forwarded_txn_cancels_its_timer() {
        let mut engines = cluster(1, 1);
        let txn = txns(1).remove(0);
        let mut out = Outbox::new();
        engines[2].on_message(ReplicaId(1), Message::ClientRetry { txn }, &mut out);
        let tag = forwarded_timer(&out).expect("the retry arms a forwarded-request timer");
        // The primary receives the forwarded request and proposes it.
        let (to, forward) = out.sends()[0];
        assert_eq!(*to, ReplicaId(0));
        let mut out = Outbox::new();
        engines[0].on_message(ReplicaId(2), forward.clone(), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[2].on_message(ReplicaId(0), preprepare, &mut out);
        assert!(cancels(&out, tag));
        assert_eq!(engines[2].last_executed(), SeqNum(1));
        // A timer expiry that races the cancellation starts no view change.
        let mut out = Outbox::new();
        engines[2].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        assert_eq!(view_change_votes(&out), 0);
        assert!(!engines[2].in_view_change());
    }

    #[test]
    fn view_change_reproposes_executed_batches_and_preserves_results() {
        let mut engines = cluster(1, 1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(2))], 300);
        // Primary goes silent; every backup times out and votes.
        let mut queues = message_queues(&engines);
        for engine in engines.iter_mut().skip(1) {
            let mut out = Outbox::new();
            engine.on_timer(TimerKind::ViewChange, &mut out);
            route_actions(engine.id(), out.drain(), &mut queues);
        }
        deliver_until_quiescent(&mut engines[1..], &mut queues, 100);
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
        }
        assert!(engines[1].is_primary());
        assert!(engines[1].view_changes_completed() >= 1);
    }
}
