//! Layers below the engines, timed by calling their public functions on a
//! workload's own inputs.

use crate::replay::Span;
use flexitrust::crypto::make_batch;
use flexitrust::exec::{ExecutionQueue, KvStore};
use flexitrust::trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry};
use flexitrust::types::{Batch, ClientId, ReplicaId, SeqNum, SystemConfig, Transaction};
use flexitrust::workload::{WorkloadConfig, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Cuts `txns` into batches of `batch` transactions with their digests.
pub fn batches(txns: &[Transaction], batch: usize) -> Vec<Batch> {
    // Transaction clones are reference-count bumps on shared payloads.
    txns.chunks(batch.max(1))
        .map(|chunk| make_batch(chunk.to_vec()))
        .collect()
}

/// `Enclave::append_f` on each batch's digest, then
/// `EnclaveRegistry::verify` on each attestation it returned. Every
/// attestation must verify, at consecutive counter values.
pub fn trusted(mode: AttestationMode, n: usize, batches: &[Batch]) -> Result<(Span, Span), String> {
    let enclave = Enclave::new(EnclaveConfig::counter_only(ReplicaId(0), mode));
    let registry = EnclaveRegistry::deterministic(n, mode);
    let (counter, _) = enclave.create_counter(0);
    let mut append = Span::default();
    let mut attestations = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        let result = enclave.append_f(counter, batch.digest());
        append.ns.push(start.elapsed().as_nanos() as f64);
        let (value, attestation) = result.map_err(|e| format!("append_f failed: {e}"))?;
        if value != i as u64 + 1 {
            return Err(format!("append_f returned {value}, expected {}", i + 1));
        }
        attestations.push(attestation);
    }
    let mut verify = Span::default();
    for attestation in &attestations {
        let start = Instant::now();
        let result = registry.verify(attestation);
        verify.ns.push(start.elapsed().as_nanos() as f64);
        result.map_err(|e| format!("attestation did not verify: {e}"))?;
    }
    Ok((append, verify))
}

/// `ExecutionQueue::submit` on `batches` in sequence order, with the
/// store layout the engines use; returns nanoseconds per transaction.
pub fn exec(config: &SystemConfig, batches: &[Batch]) -> Result<f64, String> {
    let mut store = KvStore::new();
    store.reshard(config.exec_shards);
    let mut queue = ExecutionQueue::with_workers(store, config.exec_workers);
    let mut ns = 0.0;
    let mut txns = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        txns += batch.txns().len() as u64;
        let start = Instant::now();
        let executed = queue.submit(SeqNum(i as u64 + 1), batch.clone());
        ns += start.elapsed().as_nanos() as f64;
        if executed.len() != 1 || executed[0].outcomes.len() != batch.txns().len() {
            return Err(format!("batch {} did not execute exactly once", i + 1));
        }
    }
    if queue.executed_txns() != txns {
        return Err(format!(
            "execution queue executed {} of {txns} txns",
            queue.executed_txns()
        ));
    }
    Ok(ns / txns.max(1) as f64)
}

/// Mean nanoseconds per `WorkloadGenerator::next_transaction` over
/// `count` calls for `config` and `seed`.
pub fn next_txn_ns(config: WorkloadConfig, seed: u64, count: usize) -> f64 {
    let mut generator = WorkloadGenerator::new(config, ClientId(0), seed);
    let start = Instant::now();
    for _ in 0..count {
        black_box(generator.next_transaction());
    }
    start.elapsed().as_nanos() as f64 / count.max(1) as f64
}
