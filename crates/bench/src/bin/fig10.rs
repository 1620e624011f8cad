//! Figure 10: application-level comparison — LedgerDB vs Hyperledger
//! Fabric — for data notarization and data lineage.
//!
//! (a) notarization throughput, 256B payloads, growing journal volume.
//!     Paper: LedgerDB 52K→50K TPS, Fabric 2386→1978 TPS (~23×).
//! (b) notarization verification latency, ~4KB payloads.
//!     Paper: LedgerDB ~2.5ms, Fabric ~1.2s (~500×).
//! (c) lineage verification throughput vs clue entry count.
//!     Paper: LedgerDB ≫ Fabric at small entry counts, converging past
//!     ~50 entries (LedgerDB pays one random I/O per entry; Fabric reads
//!     the whole history in ~one I/O).
//! (d) lineage verification latency vs entry count. Paper: ~300× lower
//!     for LedgerDB on average.
//!
//! LedgerDB numbers: measured kernel compute plus the paper's in-cluster
//! LAN round trip. Fabric numbers: the pipeline simulator (real endorser
//! signatures, modeled Kafka batching). Per-entry random-I/O charge for
//! LedgerDB lineage: 100 µs (ESSD-class read, DESIGN.md §2).

use ledgerdb_baselines::fabric::{FabricConfig, FabricSim};
use ledgerdb_baselines::network::NetworkProfile;
use ledgerdb_bench::{banner, fmt_latency, fmt_tps, row, throughput, timed, BenchLedger};
use ledgerdb_clue::cm_tree::CmTree;
use ledgerdb_core::verify;

/// Per-entry random I/O charge for LedgerDB lineage reads (µs).
const ENTRY_IO_US: u64 = 100;

fn main() {
    let svc = NetworkProfile::cluster_service();

    banner("Fig 10(a): notarization Append TPS, 256B payloads (paper: ~52K vs ~2.4K)");
    for &n in &[1u64 << 10, 1 << 12, 1 << 14, 1 << 16] {
        let mut bench = BenchLedger::new(256, 15);
        let requests = bench.signed_requests(n, 256, |i| Some(format!("doc-{i}")));
        let ledger_tps = throughput(n, || {
            for r in requests {
                bench.ledger.append_preverified(r).unwrap();
            }
            bench.ledger.seal_block();
        });
        let fabric = FabricSim::new(FabricConfig::default());
        let fabric_tps = fabric.write_tps(n);
        row(
            &format!("n=2^{}", n.trailing_zeros()),
            &[
                ("LedgerDB", fmt_tps(ledger_tps)),
                ("Fabric", fmt_tps(fabric_tps)),
                ("speedup", format!("{:.0}x", ledger_tps / fabric_tps)),
            ],
        );
    }

    banner("Fig 10(b): notarization verification latency, 4KB payloads (paper: ~2.5ms vs ~1.2s)");
    for &n in &[1u64 << 10, 1 << 14] {
        let mut bench = BenchLedger::new(64, 15);
        let requests = bench.signed_requests(n, 4096, |i| Some(format!("doc-{i}")));
        bench.populate(requests);
        let anchor = bench.ledger.anchor();
        // LedgerDB verified read: existence proof + client verification,
        // one LAN round trip.
        let reps = 200u64;
        let ((), secs) = timed(|| {
            for i in 0..reps {
                let jsn = (i * 7) % n;
                let (tx_hash, proof) = bench.ledger.prove_existence(jsn, &anchor).unwrap();
                verify::existence(&bench.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
            }
        });
        let ledger_latency = secs / reps as f64 + svc.round_trip(4096).seconds();

        let mut fabric = FabricSim::new(FabricConfig::default());
        fabric.invoke("doc", vec![0u8; 4096]);
        let (_, fabric_latency) = fabric.query_verify("doc");
        row(
            &format!("n=2^{}", n.trailing_zeros()),
            &[
                ("LedgerDB", fmt_latency(ledger_latency)),
                ("Fabric", fmt_latency(fabric_latency.seconds())),
                ("ratio", format!("{:.0}x", fabric_latency.seconds() / ledger_latency)),
            ],
        );
    }

    banner("Fig 10(c,d): lineage verification vs clue entries (paper: converges past ~50 entries)");
    for &entries in &[1u64, 10, 50, 100, 200] {
        // LedgerDB: a clue with `entries` journals on a busy ledger.
        let mut bench = BenchLedger::new(256, 15);
        let requests = bench.signed_requests(4096, 1024, |i| {
            if i < entries {
                Some("asset".to_string())
            } else {
                Some(format!("noise-{i}"))
            }
        });
        bench.populate(requests);
        let cm_root = bench.ledger.clue_root();
        let reps = 50u64;
        let ((), secs) = timed(|| {
            for _ in 0..reps {
                let proof = bench.ledger.prove_clue("asset").unwrap();
                CmTree::verify_client(&cm_root, &proof).unwrap();
            }
        });
        // Latency: one service round trip + one random I/O per entry.
        let ledger_latency = secs / reps as f64
            + svc.round_trip(1024 * entries as usize).seconds()
            + (entries * ENTRY_IO_US) as f64 / 1e6;
        // Throughput: server-side pipeline (no client RTT in the
        // steady-state rate), bounded by compute + per-entry random I/O.
        let ledger_tps = 1.0 / (secs / reps as f64 + (entries * ENTRY_IO_US) as f64 / 1e6);

        // Fabric: same history length.
        let mut fabric = FabricSim::new(FabricConfig::default());
        for i in 0..entries {
            fabric.invoke("asset", vec![i as u8; 1024]);
        }
        let (count, fabric_latency) = fabric.query_verify_lineage("asset");
        assert_eq!(count.unwrap(), entries);
        let fabric_tps = fabric.lineage_query_tps(entries);

        row(
            &format!("{entries} entries"),
            &[
                ("LedgerDB-TPS", fmt_tps(ledger_tps)),
                ("Fabric-TPS", fmt_tps(fabric_tps)),
                ("LedgerDB-lat", fmt_latency(ledger_latency)),
                ("Fabric-lat", fmt_latency(fabric_latency.seconds())),
            ],
        );
    }
}
