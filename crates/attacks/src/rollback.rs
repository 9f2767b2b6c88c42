//! The §6 rollback attack on trusted-component state.
//!
//! A Byzantine primary whose enclave is not rollback-protected (plain SGX
//! enclave counters) snapshots the enclave state, gets an attestation for
//! transaction `T` at sequence number 1, shows it to one half of the honest
//! replicas, restores the snapshot, gets an equally valid attestation for a
//! different transaction `T'` at the *same* sequence number, and shows that
//! to the other half. In MinBFT (`n = 2f + 1`, quorums of `f + 1`) both
//! halves commit and execute, so two honest replicas execute different
//! transactions at the same sequence number — a safety violation. In
//! Flexi-BFT the same rollback produces the same pair of attestations, but a
//! commit needs `2f + 1` of `3f + 1` replicas, and two such quorums always
//! share an honest replica that accepts only one proposal per slot — so at
//! most one of the conflicting transactions can ever commit.

use flexitrust_baselines::PbftFamilyEngine;
use flexitrust_core::FlexiBft;
use flexitrust_crypto::make_batch;
use flexitrust_protocol::{ConsensusEngine, Message, Outbox};
use flexitrust_trusted::{
    Attestation, AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, TrustedHardware,
};
use flexitrust_types::{
    Batch, ClientId, Digest, KvOp, ProtocolId, ReplicaId, RequestId, SeqNum, SystemConfig,
    Transaction, View,
};

/// Outcome of the rollback attack against one protocol.
#[derive(Debug, Clone)]
pub struct RollbackReport {
    /// The protocol that was attacked.
    pub protocol: ProtocolId,
    /// Whether the enclave allowed the rollback (hardware dependent).
    pub rollback_succeeded: bool,
    /// The sequence number both conflicting proposals were bound to.
    pub seq: SeqNum,
    /// Digests of the two conflicting proposals.
    pub digests: (Digest, Digest),
    /// How many honest replicas executed the first proposal.
    pub executed_t: usize,
    /// How many honest replicas executed the conflicting proposal.
    pub executed_t_prime: usize,
    /// Whether the two conflicting proposals both gathered enough support to
    /// *commit* (execute as final) at honest replicas.
    pub safety_violated: bool,
}

fn txn(tag: u64) -> Transaction {
    Transaction::new(
        ClientId(9),
        RequestId(tag),
        KvOp::Update {
            key: tag,
            value: vec![tag as u8].into(),
        },
    )
}

/// Builds the two conflicting attested proposals by rolling back the
/// primary's enclave between them. Returns `None` if the hardware refused
/// the rollback.
fn equivocating_proposals(
    hardware: TrustedHardware,
) -> Option<(Batch, Attestation, Batch, Attestation)> {
    let primary_enclave = Enclave::shared(
        EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Real).with_hardware(hardware),
    );
    let control = primary_enclave.rollback_control();
    let snapshot = control.snapshot();

    let batch_t = make_batch(vec![txn(1)]);
    let (seq_t, att_t) = primary_enclave
        .append_f(0, batch_t.digest())
        .expect("fresh counter accepts the first append");

    if control.restore(&snapshot).is_err() {
        return None;
    }

    let batch_t_prime = make_batch(vec![txn(2)]);
    let (seq_t_prime, att_t_prime) = primary_enclave
        .append_f(0, batch_t_prime.digest())
        .expect("rolled-back counter accepts the conflicting append");
    assert_eq!(seq_t, seq_t_prime, "both proposals bind to the same slot");
    Some((batch_t, att_t, batch_t_prime, att_t_prime))
}

/// Runs the rollback attack against MinBFT with fault threshold `f`.
///
/// The primary shows `T` to itself plus the first `f` backups and `T'` to
/// the remaining `f` backups; with `f + 1` prepare quorums both halves
/// commit, violating safety (unless the hardware is rollback-protected, in
/// which case the attack dies at the restore step).
pub fn rollback_attack_minbft(f: usize, hardware: TrustedHardware) -> RollbackReport {
    use flexitrust_baselines::MinBft;
    let mut config = MinBft::config(f);
    config.batch_size = 1;
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);

    let Some((batch_t, att_t, batch_tp, att_tp)) = equivocating_proposals(hardware) else {
        return RollbackReport {
            protocol: ProtocolId::MinBft,
            rollback_succeeded: false,
            seq: SeqNum(1),
            digests: (Digest::ZERO, Digest::ZERO),
            executed_t: 0,
            executed_t_prime: 0,
            safety_violated: false,
        };
    };

    // Honest backups 1..n; the Byzantine primary is replica 0.
    let mut backups: Vec<_> = (1..config.n)
        .map(|i| {
            MinBft::engine(
                config.clone(),
                ReplicaId(i as u32),
                MinBft::enclave(ReplicaId(i as u32), AttestationMode::Real),
                registry.clone(),
            )
        })
        .collect();

    // Group A (first f backups) sees T; group B (last f backups) sees T'.
    let preprepare = |batch: &Batch, att: &Attestation| Message::PrePrepare {
        view: View(0),
        seq: SeqNum(1),
        batch: batch.clone(),
        attestation: Some(att.clone()),
    };
    let mut prepares_a = Vec::new();
    let mut prepares_b = Vec::new();
    for (i, backup) in backups.iter_mut().enumerate() {
        let mut out = Outbox::new();
        let group_a = i < f;
        let msg = if group_a {
            preprepare(&batch_t, &att_t)
        } else {
            preprepare(&batch_tp, &att_tp)
        };
        backup.on_message(ReplicaId(0), msg, &mut out);
        for m in out.broadcasts() {
            if m.kind() == "Prepare" {
                if group_a {
                    prepares_a.push((backup.id(), m.clone()));
                } else {
                    prepares_b.push((backup.id(), m.clone()));
                }
            }
        }
    }
    // The Byzantine primary contributes its own (validly attested) Prepare to
    // each group, completing the f + 1 quorums.
    prepares_a.push((
        ReplicaId(0),
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch_t.digest(),
            attestation: Some(att_t.clone()),
        },
    ));
    prepares_b.push((
        ReplicaId(0),
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch_tp.digest(),
            attestation: Some(att_tp.clone()),
        },
    ));
    // Deliver each group's prepares within the group only (the adversary
    // schedules messages, §6).
    let mut executed_t = 0;
    let mut executed_tp = 0;
    for (i, backup) in backups.iter_mut().enumerate() {
        let group = if i < f { &prepares_a } else { &prepares_b };
        for (from, msg) in group {
            let mut out = Outbox::new();
            backup.on_message(*from, msg.clone(), &mut out);
        }
        if backup.last_executed() >= SeqNum(1) {
            if i < f {
                executed_t += 1;
            } else {
                executed_tp += 1;
            }
        }
    }

    RollbackReport {
        protocol: ProtocolId::MinBft,
        rollback_succeeded: true,
        seq: SeqNum(1),
        digests: (batch_t.digest(), batch_tp.digest()),
        executed_t,
        executed_t_prime: executed_tp,
        safety_violated: executed_t > 0 && executed_tp > 0,
    }
}

/// Runs the same rollback attack against Flexi-BFT with fault threshold `f`.
///
/// The conflicting attestations exist just the same, but no split of the
/// `3f` honest backups gives both proposals a `2f + 1` commit quorum, so at
/// most one of them can execute at honest replicas.
pub fn rollback_attack_flexibft(f: usize, hardware: TrustedHardware) -> RollbackReport {
    let mut config = SystemConfig::for_protocol(ProtocolId::FlexiBft, f);
    config.batch_size = 1;
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);

    let Some((batch_t, att_t, batch_tp, att_tp)) = equivocating_proposals(hardware) else {
        return RollbackReport {
            protocol: ProtocolId::FlexiBft,
            rollback_succeeded: false,
            seq: SeqNum(1),
            digests: (Digest::ZERO, Digest::ZERO),
            executed_t: 0,
            executed_t_prime: 0,
            safety_violated: false,
        };
    };

    let mut backups: Vec<PbftFamilyEngine> = (1..config.n)
        .map(|i| {
            FlexiBft::new(
                config.clone(),
                ReplicaId(i as u32),
                FlexiBft::enclave(ReplicaId(i as u32), AttestationMode::Real),
                registry.clone(),
            )
        })
        .collect();

    // The adversary splits the 3f honest backups as favourably as it can:
    // half see T, half see T'.
    let split = backups.len() / 2;
    let mut prepares_a = Vec::new();
    let mut prepares_b = Vec::new();
    for (i, backup) in backups.iter_mut().enumerate() {
        let mut out = Outbox::new();
        let (batch, att) = if i < split {
            (&batch_t, &att_t)
        } else {
            (&batch_tp, &att_tp)
        };
        backup.on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: batch.clone(),
                attestation: Some(att.clone()),
            },
            &mut out,
        );
        for m in out.broadcasts() {
            if m.kind() == "Prepare" {
                if i < split {
                    prepares_a.push((backup.id(), m.clone()));
                } else {
                    prepares_b.push((backup.id(), m.clone()));
                }
            }
        }
    }
    // The Byzantine primary votes for both.
    prepares_a.push((
        ReplicaId(0),
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch_t.digest(),
            attestation: None,
        },
    ));
    prepares_b.push((
        ReplicaId(0),
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch_tp.digest(),
            attestation: None,
        },
    ));

    let mut executed_t = 0;
    let mut executed_tp = 0;
    for (i, backup) in backups.iter_mut().enumerate() {
        let group = if i < split { &prepares_a } else { &prepares_b };
        for (from, msg) in group {
            let mut out = Outbox::new();
            backup.on_message(*from, msg.clone(), &mut out);
        }
        if backup.last_executed() >= SeqNum(1) {
            if i < split {
                executed_t += 1;
            } else {
                executed_tp += 1;
            }
        }
    }

    RollbackReport {
        protocol: ProtocolId::FlexiBft,
        rollback_succeeded: true,
        seq: SeqNum(1),
        digests: (batch_t.digest(), batch_tp.digest()),
        executed_t,
        executed_t_prime: executed_tp,
        safety_violated: executed_t > 0 && executed_tp > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minbft_loses_safety_on_rollbackable_hardware() {
        let report = rollback_attack_minbft(2, TrustedHardware::default_enclave());
        assert!(report.rollback_succeeded);
        assert_ne!(report.digests.0, report.digests.1);
        assert!(report.executed_t >= 1);
        assert!(report.executed_t_prime >= 1);
        assert!(report.safety_violated);
    }

    #[test]
    fn minbft_is_safe_on_rollback_protected_hardware() {
        let report = rollback_attack_minbft(2, TrustedHardware::typical_tpm());
        assert!(!report.rollback_succeeded);
        assert!(!report.safety_violated);
    }

    #[test]
    fn flexi_bft_survives_the_same_rollback() {
        let report = rollback_attack_flexibft(2, TrustedHardware::default_enclave());
        // The attestations equivocate just the same...
        assert!(report.rollback_succeeded);
        assert_ne!(report.digests.0, report.digests.1);
        // ...but no conflicting pair can both commit.
        assert!(!report.safety_violated, "{report:?}");
        assert_eq!(report.executed_t, 0);
        assert_eq!(report.executed_t_prime, 0);
    }
}
