//! Flexi-BFT: the two-phase FlexiTrust protocol (Figure 3 of the paper).
//!
//! Flexi-BFT is the FlexiTrust conversion of MinBFT (and, transitively, of
//! PBFT): the primary binds each batch to its trusted counter with `AppendF`
//! and broadcasts an attested `PrePrepare`; a backup that accepts the
//! proposal marks it *prepared* immediately (the attestation already rules
//! out equivocation, so PBFT's extra round is unnecessary) and broadcasts a
//! plain `Prepare`; a replica that collects `2f + 1` matching `Prepare`
//! messages marks the batch *committed* and executes it in sequence order;
//! the client completes with `f + 1` matching replies.
//!
//! Compared with MinBFT, moving back to `n = 3f + 1` with `2f + 1` quorums
//! restores client responsiveness (§5), reduces trusted-component usage to
//! one access per consensus at the primary only (§6, G2), and lets the
//! primary keep many consensus instances in flight concurrently (§7, G1).
//! The sequential ablation `oFlexi-BFT` of Figure 6(i) is this same style
//! with the in-flight window forced to one ([`FlexiBft::sequential`]).

use flexitrust_baselines::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// Builder for Flexi-BFT replica engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexiBft;

impl FlexiBft {
    /// The Flexi-BFT style parameters: MinBFT's two phases, with `AppendF`
    /// at the primary only and `2f + 1` quorums over `3f + 1` replicas.
    pub fn style() -> ProtocolStyle {
        ProtocolStyle {
            id: ProtocolId::FlexiBft,
            use_commit_phase: false,
            prepare_quorum_rule: QuorumRule::TwoFPlusOne,
            commit_quorum_rule: QuorumRule::TwoFPlusOne,
            speculative: false,
            primary_attest: PrimaryAttest::AppendF,
            replica_attest: ReplicaAttest::None,
            active_subset_only: false,
        }
    }

    /// The default configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::FlexiBft, f)
    }

    /// The configuration of the sequential ablation `oFlexi-BFT`.
    pub fn sequential_config(f: usize) -> SystemConfig {
        SystemConfig::for_protocol(ProtocolId::OFlexiBft, f)
    }

    /// The counter-only enclave Flexi-BFT expects at each replica.
    pub fn enclave(id: ReplicaId, mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(id, mode))
    }

    /// Creates the engine for replica `id`; a configuration for
    /// `oFlexi-BFT` gives the sequential ablation.
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
                ProtocolId::OFlexiBft => ProtocolId::OFlexiBft,
                _ => ProtocolId::FlexiBft,
            },
            ..Self::style()
        };
        PbftFamilyEngine::new(config, id, style, Some(enclave), Some(registry))
    }

    /// Creates the sequential ablation (`oFlexi-BFT`) engine for replica `id`.
    pub fn sequential(
        f: usize,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        Self::new(Self::sequential_config(f), id, enclave, registry)
    }
}

/// Builds a full Flexi-BFT cluster (engine per replica) over counting-mode
/// enclaves; used by tests, examples and the simulator registry.
pub fn build_cluster(config: &SystemConfig) -> Vec<PbftFamilyEngine> {
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            FlexiBft::new(
                config.clone(),
                id,
                FlexiBft::enclave(id, AttestationMode::Counting),
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
    use flexitrust_crypto::make_batch;
    use flexitrust_protocol::{ConsensusEngine, Message, Outbox, TimerKind};
    use flexitrust_trusted::{AttestKind, Attestation};
    use flexitrust_types::{Batch, ClientId, Digest, KvOp, RequestId, SeqNum, Transaction, View};

    fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![9].into(),
                    },
                )
            })
            .collect()
    }

    fn cluster(batch_size: usize) -> Vec<PbftFamilyEngine> {
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = batch_size;
        build_cluster(&cfg)
    }

    /// The proposals `out` broadcast, in order.
    fn proposals(out: &Outbox) -> Vec<(View, SeqNum, Batch, Option<Attestation>)> {
        out.broadcasts()
            .into_iter()
            .filter_map(|m| match m {
                Message::PrePrepare {
                    view,
                    seq,
                    batch,
                    attestation,
                } => Some((*view, *seq, batch.clone(), attestation.clone())),
                _ => None,
            })
            .collect()
    }

    fn prepare(seq: SeqNum, digest: Digest) -> Message {
        Message::Prepare {
            view: View(0),
            seq,
            digest,
            attestation: None,
        }
    }

    #[test]
    fn cluster_commits_in_two_phases_with_2f_plus_1_quorums() {
        let mut engines = cluster(2);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(4))], 300);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn primary_proposes_with_contiguous_counter_values() {
        let mut engines = cluster(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(3), &mut out);
        let seqs: Vec<u64> = proposals(&out).iter().map(|p| p.1 .0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        let counter = engines[0].enclave().unwrap().stats().snapshot();
        assert_eq!(counter.counter_append_fs, 3);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let mut engines = cluster(1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(5))], 300);
        let primary_accesses = engines[0].enclave().unwrap().stats().snapshot();
        assert_eq!(primary_accesses.counter_append_fs, 5);
        for e in &engines[1..] {
            assert_eq!(
                e.enclave().unwrap().stats().snapshot().total_accesses(),
                0,
                "backup {} must not touch its enclave",
                e.id()
            );
        }
    }

    #[test]
    fn parallel_instances_are_in_flight_simultaneously() {
        let mut engines = cluster(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(10), &mut out);
        // All ten proposals go out before any commit, i.e. ten instances are
        // outstanding concurrently (G1).
        assert_eq!(engines[0].outstanding(), 10);
        assert_eq!(out.broadcasts().len(), 10);
    }

    #[test]
    fn sequential_ablation_proposes_one_instance_at_a_time() {
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Counting);
        let mut cfg = FlexiBft::sequential_config(1);
        cfg.batch_size = 1;
        let mut primary = FlexiBft::new(
            cfg,
            ReplicaId(0),
            FlexiBft::enclave(ReplicaId(0), AttestationMode::Counting),
            registry,
        );
        assert_eq!(primary.style().id, ProtocolId::OFlexiBft);
        assert!(!primary.properties().out_of_order);
        let mut out = Outbox::new();
        primary.on_client_request(txns(10), &mut out);
        assert_eq!(primary.outstanding(), 1);
        assert_eq!(out.broadcasts().len(), 1);
    }

    #[test]
    fn client_reply_rule_is_f_plus_1() {
        let engines = build_cluster(&FlexiBft::config(2));
        assert_eq!(engines[0].properties().reply_quorum, QuorumRule::FPlusOne);
        assert_eq!(engines[0].properties().phases, 2);
        assert!(engines[0].properties().primary_only_tc);
    }

    #[test]
    fn acceptance_rejects_bad_attestations() {
        let mut engines = cluster(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let (view, seq, batch, attestation) = proposals(&out).remove(0);
        let att = attestation.unwrap();
        let mut wrong_seq = att.clone();
        wrong_seq.value = 9;
        let mut wrong_kind = att.clone();
        wrong_kind.kind = AttestKind::CounterCreate;
        let other_batch = make_batch(txns(2).split_off(1));
        let rejected = [
            // Missing attestation.
            (0, seq, batch.clone(), None),
            // Attestation bound to a different sequence number.
            (0, SeqNum(9), batch.clone(), Some(wrong_seq)),
            // Attestation of the wrong kind.
            (0, seq, batch.clone(), Some(wrong_kind)),
            // Attestation bound to a different batch.
            (0, seq, other_batch, Some(att.clone())),
            // From a replica that is not the primary.
            (2, seq, batch.clone(), Some(att.clone())),
        ];
        for (from, seq, batch, attestation) in rejected {
            let mut out = Outbox::new();
            let msg = Message::PrePrepare {
                view,
                seq,
                batch,
                attestation,
            };
            engines[1].on_message(ReplicaId(from), msg, &mut out);
            assert!(out.is_empty());
            assert_eq!(engines[1].accepted_digest(seq), None);
        }
        // The genuine proposal is still acceptable exactly once.
        let genuine = Message::PrePrepare {
            view,
            seq,
            batch: batch.clone(),
            attestation: Some(att),
        };
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), genuine.clone(), &mut out);
        assert_eq!(out.broadcasts().len(), 1);
        assert_eq!(engines[1].accepted_digest(seq), Some(batch.digest()));
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), genuine, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            engines[1]
                .enclave()
                .unwrap()
                .stats()
                .snapshot()
                .total_accesses(),
            0
        );
    }

    #[test]
    fn forged_attestation_from_host_key_is_rejected() {
        // Even in Real mode a Byzantine primary cannot fabricate an
        // attestation with its replica key; the backup must reject it.
        let mut cfg = FlexiBft::config(1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Real);
        let enclave = FlexiBft::enclave(ReplicaId(1), AttestationMode::Real);
        let mut backup = FlexiBft::new(cfg, ReplicaId(1), enclave, registry);
        let batch = make_batch(txns(1));
        let forged = Attestation {
            host: ReplicaId(0),
            counter: 0,
            value: 1,
            digest: batch.digest(),
            kind: AttestKind::CounterBind,
            signature: flexitrust_crypto::Signature::zero(),
        };
        let mut out = Outbox::new();
        let msg = Message::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            batch,
            attestation: Some(forged),
        };
        backup.on_message(ReplicaId(0), msg, &mut out);
        assert!(out.is_empty());
        assert_eq!(backup.accepted_digest(SeqNum(1)), None);
    }

    #[test]
    fn commit_requires_2f_plus_1_prepares() {
        let mut engines = cluster(1);
        // Hand-deliver the proposal to replica 1 and only two Prepare votes:
        // not enough (2f + 1 = 3).
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let digest = proposals(&out)[0].2.digest();
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), preprepare, &mut out);
        for voter in [1u32, 2] {
            let mut out = Outbox::new();
            engines[1].on_message(ReplicaId(voter), prepare(SeqNum(1), digest), &mut out);
        }
        assert_eq!(engines[1].last_executed(), SeqNum(0));
        // The third distinct vote commits.
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(3), prepare(SeqNum(1), digest), &mut out);
        assert_eq!(engines[1].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
        assert!(!out.replies()[0].speculative);
    }

    #[test]
    fn proposal_arriving_after_its_prepare_quorum_commits() {
        let mut engines = cluster(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1), &mut out);
        let preprepare = out.broadcasts()[0].clone();
        let digest = proposals(&out)[0].2.digest();
        // The backups' 2f + 1 Prepares reach the primary before its own
        // PrePrepare comes back to it.
        for voter in [1u32, 2, 3] {
            let mut out = Outbox::new();
            engines[0].on_message(ReplicaId(voter), prepare(SeqNum(1), digest), &mut out);
        }
        assert_eq!(engines[0].last_executed(), SeqNum(0));
        let mut out = Outbox::new();
        engines[0].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(engines[0].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
    }

    #[test]
    fn view_change_creates_a_fresh_counter_and_reproposes_contiguously() {
        let mut engines = cluster(1);
        // The primary proposed three batches; replica 1 accepted them all,
        // but no Prepare vote got through.
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(3), &mut out);
        for msg in out.broadcasts() {
            engines[1].on_message(ReplicaId(0), msg.clone(), &mut Outbox::new());
        }
        // Replica 1 is the primary of view 1: its own ViewChange reports
        // the accepted proposals as prepared, and two more votes complete
        // the 2f + 1 quorum.
        let mut out = Outbox::new();
        engines[1].on_timer(TimerKind::ViewChange, &mut out);
        let own_vote = out.broadcasts()[0].clone();
        let Message::ViewChange { prepared, .. } = &own_vote else {
            panic!("expected a ViewChange");
        };
        assert_eq!(prepared.len(), 3);
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(1), own_vote, &mut out);
        for sender in [2u32, 3] {
            let vote = Message::ViewChange {
                new_view: View(1),
                last_stable: SeqNum(0),
                prepared: Vec::new(),
            };
            engines[1].on_message(ReplicaId(sender), vote, &mut out);
        }
        assert_eq!(engines[1].view(), View(1));
        assert!(engines[1].is_primary());
        let new_view = out
            .broadcasts()
            .into_iter()
            .find(|m| m.kind() == "NewView")
            .cloned()
            .expect("the new primary announces the view");
        let Message::NewView {
            proposals,
            counter_attestation,
            supporting_votes,
            ..
        } = new_view
        else {
            unreachable!()
        };
        let seqs: Vec<u64> = proposals.iter().map(|(s, _, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(proposals.iter().all(|(_, _, a)| a.is_some()));
        assert_eq!(supporting_votes, 3);
        // The NewView carries a counter-creation attestation.
        assert_eq!(counter_attestation.unwrap().kind, AttestKind::CounterCreate);
    }

    #[test]
    fn new_view_without_counter_attestation_is_rejected() {
        let mut engines = cluster(1);
        let mut out = Outbox::new();
        let msg = Message::NewView {
            view: View(1),
            supporting_votes: 3,
            proposals: vec![(SeqNum(1), Batch::noop(1), None)],
            counter_attestation: None,
        };
        engines[2].on_message(ReplicaId(1), msg, &mut out);
        assert!(out.is_empty());
        assert_eq!(engines[2].view(), View(0));
    }

    #[test]
    fn view_change_preserves_accepted_batches() {
        let mut engines = cluster(1);
        run_cluster_until_quiescent(&mut engines, vec![(0, txns(3))], 300);
        // Everyone executed 3 batches in view 0. Now the primary goes silent
        // and the backups time out.
        let mut queues = message_queues(&engines);
        for engine in engines.iter_mut().skip(1) {
            let mut out = Outbox::new();
            engine.on_timer(TimerKind::ViewChange, &mut out);
            route_actions(engine.id(), out.drain(), &mut queues);
        }
        deliver_until_quiescent(&mut engines[1..], &mut queues, 100);
        // The backups are now in view 1 with replica 1 as primary, and the
        // previously executed state is intact.
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(3));
            assert_eq!(e.view_changes_completed(), 1);
        }
        assert!(engines[1].is_primary());
    }
}
