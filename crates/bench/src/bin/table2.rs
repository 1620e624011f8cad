//! Table II: application-level latency — LedgerDB vs QLDB — as public
//! cloud services.
//!
//! Paper (seconds):
//!   Notarization insert    QLDB 0.065   LedgerDB 0.027
//!   Notarization retrieve  QLDB 0.036   LedgerDB 0.028
//!   Notarization verify    QLDB 1.557   LedgerDB 0.028   (~56×)
//!   Lineage 5-versions     QLDB 7.786   LedgerDB 0.028   (~278×)
//!   Lineage 100-versions   QLDB 155.9   LedgerDB 0.030   (~5197×)
//!
//! Both sides run over the same same-region cloud profile (one API round
//! trip ≈ 25 ms); QLDB additionally pays its measured service-side
//! verification traversal (modeled constant, DESIGN.md §2), and its
//! lineage costs one GetRevision per version. LedgerDB verification is a
//! single round trip carrying a CM-Tree/fam proof.

use ledgerdb_baselines::network::NetworkProfile;
use ledgerdb_baselines::qldb::{QldbConfig, QldbSim};
use ledgerdb_bench::{banner, fmt_latency, row, timed, BenchLedger, XorShift};
use ledgerdb_clue::cm_tree::CmTree;
use ledgerdb_core::{verify, TxRequest};

const DOC_SIZE: usize = 32 * 1024;

fn main() {
    let cloud = NetworkProfile::cloud();
    let rtt = cloud.round_trip(DOC_SIZE).seconds();

    banner("Table II: notarization (32KB documents)");

    // ---------------- QLDB side ----------------
    let mut qldb = QldbSim::new(QldbConfig::default());
    let mut rng = XorShift::new(21);
    let mut insert_lat = 0.0;
    for i in 0..64u64 {
        let (_, lat) = qldb.insert(&format!("doc-{i}"), rng.payload(DOC_SIZE));
        insert_lat = lat.seconds();
    }
    let (_, retrieve_lat) = qldb.retrieve("doc-5");
    let (ok, verify_lat) = qldb.verify_revision(5);
    ok.unwrap();

    // ---------------- LedgerDB side ----------------
    let mut bench = BenchLedger::new(16, 15);
    let mut rng = XorShift::new(22);
    let mut ack = None;
    let (_, ledger_insert_compute) = timed(|| {
        for i in 0..64u64 {
            let req = TxRequest::signed(
                &bench.alice,
                rng.payload(DOC_SIZE),
                vec![format!("doc-{i}")],
                i,
            );
            ack = Some(bench.ledger.append_committed(req).unwrap());
        }
    });
    let ledger_insert = ledger_insert_compute / 64.0 + rtt;

    let (_, retrieve_compute) = timed(|| bench.ledger.get_payload(5).unwrap());
    let ledger_retrieve = retrieve_compute + rtt;

    let anchor = bench.ledger.anchor();
    let ((), verify_compute) = timed(|| {
        let (tx_hash, proof) = bench.ledger.prove_existence(5, &anchor).unwrap();
        verify::existence(&bench.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    });
    let ledger_verify = verify_compute + cloud.round_trip(4096).seconds();

    row(
        "Insert",
        &[
            ("QLDB", fmt_latency(insert_lat)),
            ("LedgerDB", fmt_latency(ledger_insert)),
            ("paper", "0.065 / 0.027".into()),
        ],
    );
    row(
        "Retrieve",
        &[
            ("QLDB", fmt_latency(retrieve_lat.seconds())),
            ("LedgerDB", fmt_latency(ledger_retrieve)),
            ("paper", "0.036 / 0.028".into()),
        ],
    );
    row(
        "Verify",
        &[
            ("QLDB", fmt_latency(verify_lat.seconds())),
            ("LedgerDB", fmt_latency(ledger_verify)),
            ("paper", "1.557 / 0.028".into()),
        ],
    );

    banner("Table II: lineage ([key, data, prehash, sig] schema in QLDB; clue in LedgerDB)");
    for &versions in &[5u64, 100] {
        // QLDB: one key with `versions` revisions.
        let mut qldb = QldbSim::new(QldbConfig::default());
        let mut rng = XorShift::new(31);
        for _ in 0..versions {
            qldb.insert("asset", rng.payload(1024));
        }
        let (count, qldb_lat) = qldb.verify_lineage("asset");
        assert_eq!(count.unwrap(), versions);

        // LedgerDB: a clue with `versions` entries.
        let mut bench = BenchLedger::new(256, 15);
        let requests = bench.signed_requests(versions + 512, 1024, |i| {
            if i < versions {
                Some("asset".to_string())
            } else {
                Some(format!("noise-{i}"))
            }
        });
        bench.populate(requests);
        let cm_root = bench.ledger.clue_root();
        let ((), compute) = timed(|| {
            let proof = bench.ledger.prove_clue("asset").unwrap();
            CmTree::verify_client(&cm_root, &proof).unwrap();
        });
        let ledger_lat = compute + cloud.round_trip(1024 * versions as usize).seconds();

        row(
            &format!("Verify {versions}-versions"),
            &[
                ("QLDB", fmt_latency(qldb_lat.seconds())),
                ("LedgerDB", fmt_latency(ledger_lat)),
                ("ratio", format!("{:.0}x", qldb_lat.seconds() / ledger_lat)),
            ],
        );
    }
}
