//! Criterion benches behind Fig 7: per-journal Dasein verification costs
//! (what / when / who) on the full ledger kernel.

use ledgerdb_bench::harness::{self as criterion, criterion_group, criterion_main, BenchmarkId, Criterion};
use ledgerdb_bench::BenchLedger;
use ledgerdb_core::verify;
use ledgerdb_crypto::keys::KeyPair;
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_crypto::sha256;
use ledgerdb_timesvc::clock::Clock;
use ledgerdb_timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb_timesvc::tsa::TsaPool;
use std::sync::Arc;

fn bench_what(c: &mut Criterion) {
    let mut group = c.benchmark_group("dasein_what");
    for size in [256usize, 4096] {
        let mut bench = BenchLedger::new(64, 10);
        let requests = bench.signed_requests(512, size, |i| Some(format!("d{i}")));
        bench.populate(requests);
        let anchor = bench.ledger.anchor();
        group.bench_with_input(BenchmarkId::new("existence", size), &size, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 97) % 512;
                let (tx_hash, proof) = bench.ledger.prove_existence(i, &anchor).unwrap();
                verify::existence(&bench.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_when(c: &mut Criterion) {
    let mut group = c.benchmark_group("dasein_when");
    group.sample_size(20);
    let mut bench = BenchLedger::new(64, 10);
    let requests = bench.signed_requests(64, 256, |i| Some(format!("d{i}")));
    bench.populate(requests);
    let clock: Arc<dyn Clock> = Arc::clone(bench.ledger.clock());
    let pool = Arc::new(TsaPool::new(1, Arc::clone(&clock)));
    let tledger = TLedger::new(TLedgerConfig::default(), clock, pool);
    bench.ledger.anchor_time(&tledger).unwrap();
    tledger.finalize_now().unwrap();
    group.bench_function("receipt+attestation", |b| {
        b.iter(|| {
            let (entry, proof, root) = tledger.prove_entry(0).unwrap();
            ledgerdb_accumulator::Shrubs::verify(&root, &entry.leaf_digest(), &proof).unwrap();
            tledger.covering_time_journal(0).unwrap().attestation.verify().unwrap();
        })
    });
    group.finish();
}

fn bench_who(c: &mut Criterion) {
    let mut group = c.benchmark_group("dasein_who");
    group.sample_size(20);
    let msg = sha256(b"journal request");
    for signers in [1usize, 3, 5, 7] {
        let keys: Vec<KeyPair> =
            (0..signers).map(|i| KeyPair::from_seed(format!("s{i}").as_bytes())).collect();
        let mut ms = MultiSignature::new();
        for k in &keys {
            ms.add(k, &msg);
        }
        group.bench_with_input(BenchmarkId::new("multisig_verify", signers), &signers, |b, _| {
            b.iter(|| assert!(ms.verify_all(&msg)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_what, bench_when, bench_who
}
criterion_main!(benches);
