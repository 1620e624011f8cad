//! Export/import integration tests. There is one whole-ledger format:
//! *export* is a checkpoint committed next to the payload stream
//! (`checkpoint_now`), *import* is `open_durable` /
//! `recover_with_checkpoint` on those files — the root-re-deriving load
//! production restarts use. A ledger survives the trip with every
//! verification structure intact, and forged, tampered or truncated
//! exports are rejected.

use ledgerdb::core::checkpoint::decode_cm;
use ledgerdb::core::recovery::{open_durable, recover_with_checkpoint, CHECKPOINT_DIR, PAYLOAD_FILE};
use ledgerdb::core::{
    audit_ledger, verify, AuditConfig, Block, CheckpointManifest, Journal, LedgerConfig, LedgerDb,
    LedgerError, MemberRegistry, OccultMode, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::wire::{Wire, Writer};
use ledgerdb::crypto::Digest;
use ledgerdb::storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb::storage::stream::{FileStreamStore, MemoryStreamStore, StreamStore};
use ledgerdb::storage::FsyncPolicy;
use ledgerdb::telemetry::Registry;
use ledgerdb::timesvc::clock::SimClock;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct World {
    ledger: LedgerDb,
    /// Scratch root: the live ledger lives in `root/source`, every
    /// export is a sibling copy.
    root: PathBuf,
    alice: KeyPair,
    dba: KeyPair,
    regulator: KeyPair,
}

impl Drop for World {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn config() -> LedgerConfig {
    LedgerConfig { block_size: 4, fam_delta: 5, name: "persist".into(), state_backend: Default::default() }
}

fn members() -> (CertificateAuthority, KeyPair, KeyPair, KeyPair) {
    (
        CertificateAuthority::from_seed(b"persist-ca"),
        KeyPair::from_seed(b"persist-alice"),
        KeyPair::from_seed(b"persist-dba"),
        KeyPair::from_seed(b"persist-reg"),
    )
}

fn registry() -> MemberRegistry {
    let (ca, alice, dba, regulator) = members();
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    registry
}

fn open(dir: &Path) -> Result<LedgerDb, LedgerError> {
    open_durable(config(), registry(), dir, FsyncPolicy::Never, Arc::new(SimClock::new()))
        .map(|(ledger, _)| ledger)
}

fn world(tag: &str) -> World {
    let root = std::env::temp_dir().join(format!("ledgerdb-persist-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (_, alice, dba, regulator) = members();
    World { ledger: open(&root.join("source")).unwrap(), root, alice, dba, regulator }
}

fn populate(w: &mut World, n: u64) {
    for i in 0..n {
        let req = TxRequest::signed(
            &w.alice,
            format!("payload-{i}").into_bytes(),
            vec![format!("c{}", i % 3)],
            i,
        );
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// Export the (sealed) ledger: commit a checkpoint, then copy the
/// ledger directory — payload stream, reset WAL, checkpoint store — to
/// `root/<name>`. The copy is the export; the source keeps running.
fn export(w: &mut World, name: &str) -> PathBuf {
    let source = w.root.join("source");
    let store = Arc::new(CheckpointStore::open(&source.join(CHECKPOINT_DIR)).unwrap());
    w.ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), u64::MAX);
    w.ledger.checkpoint_now().unwrap().expect("a sealed ledger checkpoints");
    let dest = w.root.join(name);
    copy_dir(&source, &dest);
    dest
}

/// Import an export, asserting the state came from the checkpoint and
/// not from a WAL replay.
fn import(dir: &Path) -> Result<LedgerDb, LedgerError> {
    let (ledger, report) =
        open_durable(config(), registry(), dir, FsyncPolicy::Never, Arc::new(SimClock::new()))?;
    assert!(report.checkpoint.is_some(), "import loads the checkpoint: {report:?}");
    assert_eq!(report.journals_replayed, 0, "nothing left to replay: {report:?}");
    Ok(ledger)
}

/// Re-publish an export's checkpoint with its segments (and, through
/// `fix`, its manifest) rewritten. Every content address is recomputed,
/// so only the loader's structural and root re-derivation checks stand
/// between the forgery and a running ledger.
fn forge(
    dir: &Path,
    rewrite: impl Fn(&str, Vec<u8>) -> Vec<u8>,
    fix: impl FnOnce(&mut CheckpointManifest),
) {
    let store = CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap();
    let (_, manifest_bytes) = store.load_head().unwrap().expect("exported HEAD");
    let mut manifest = CheckpointManifest::from_wire(&manifest_bytes).unwrap();
    let segments: Vec<(String, Vec<u8>)> = manifest
        .segments
        .iter()
        .map(|(role, digest)| (role.clone(), rewrite(role, store.read_segment(digest).unwrap())))
        .collect();
    fix(&mut manifest);
    store
        .publish(
            &segments,
            |refs| {
                manifest.segments = refs.to_vec();
                manifest.to_wire()
            },
            &CkptIo::new(),
        )
        .unwrap();
}

/// Rewrite only the decoded `journals` segment.
fn forge_journals(dir: &Path, edit: impl Fn(&mut Vec<Journal>)) {
    forge(
        dir,
        |role, bytes| {
            if role != "journals" {
                return bytes;
            }
            let mut journals = Vec::<Journal>::from_wire(&bytes).unwrap();
            edit(&mut journals);
            journals.to_wire()
        },
        |_| {},
    );
}

/// Rewrite only the decoded `cm` segment: each clue's CM-Tree2 node
/// storage and jsn references.
fn forge_cm(dir: &Path, edit: impl Fn(&str, &mut Vec<Digest>, &mut Vec<u64>)) {
    forge(
        dir,
        |role, bytes| {
            if role != "cm" {
                return bytes;
            }
            let parts = decode_cm(&bytes).unwrap();
            let mut w = Writer::new();
            w.put_u64(parts.len() as u64);
            for (clue, subtree, mut refs) in parts {
                let mut nodes = subtree.nodes().to_vec();
                edit(&clue, &mut nodes, &mut refs);
                clue.encode(&mut w);
                w.put_u64(subtree.leaf_count());
                nodes.encode(&mut w);
                refs.encode(&mut w);
            }
            w.into_bytes()
        },
        |_| {},
    );
}

#[test]
fn round_trip_preserves_roots_and_proofs() {
    let mut w = world("roundtrip");
    populate(&mut w, 20);
    let dir = export(&mut w, "export");
    let restored = import(&dir).unwrap();

    assert_eq!(restored.journal_count(), w.ledger.journal_count());
    assert_eq!(restored.journal_root(), w.ledger.journal_root());
    assert_eq!(restored.clue_root(), w.ledger.clue_root());
    assert_eq!(restored.state_root(), w.ledger.state_root());
    assert_eq!(restored.block_count(), w.ledger.block_count());
    assert_eq!(restored.state_fingerprint(), w.ledger.state_fingerprint());

    // Proofs still work on the restored ledger.
    let anchor = restored.anchor();
    for jsn in 0..restored.journal_count() {
        let (tx_hash, proof) = restored.prove_existence(jsn, &anchor).unwrap();
        verify::existence(&restored.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    }
    let clue_proof = restored.prove_clue("c1").unwrap();
    verify::clue(&restored.clue_root(), &clue_proof).unwrap();

    // And the restored ledger passes the full audit.
    audit_ledger(&restored, &AuditConfig::default()).unwrap();
}

#[test]
fn restored_ledger_continues_appending() {
    let mut w = world("continue");
    populate(&mut w, 10);
    let dir = export(&mut w, "export");
    let mut restored = import(&dir).unwrap();
    let req = TxRequest::signed(&w.alice, b"after-restore".to_vec(), vec!["c0".into()], 999);
    let ack = restored.append(req).unwrap();
    assert_eq!(ack.jsn, 10);
    restored.seal_block();
    assert_eq!(restored.get_payload(10).unwrap(), b"after-restore");
    audit_ledger(&restored, &AuditConfig::default()).unwrap();
    // What it appended after the import survives a plain reopen.
    drop(restored);
    assert_eq!(open(&dir).unwrap().get_payload(10).unwrap(), b"after-restore");
}

#[test]
fn mutations_survive_restore() {
    let mut w = world("mutations");
    populate(&mut w, 16);
    // Occult one journal and purge the first four.
    let od = w.ledger.occult_approval_digest(6);
    let mut oms = MultiSignature::new();
    oms.add(&w.dba, &od);
    oms.add(&w.regulator, &od);
    w.ledger.occult(6, oms, OccultMode::Sync).unwrap();
    let pd = w.ledger.purge_approval_digest(4);
    let mut pms = MultiSignature::new();
    pms.add(&w.dba, &pd);
    pms.add(&w.alice, &pd);
    w.ledger.purge(4, pms, &[], false).unwrap();
    w.ledger.seal_block();

    let dir = export(&mut w, "export");
    let restored = import(&dir).unwrap();

    assert!(restored.is_occulted(6));
    assert!(restored.get_tx(6).is_err());
    assert!(restored.get_tx(1).is_err(), "purged journal stays purged");
    assert_eq!(restored.pseudo_genesis().unwrap().purge_to, 4);
    let report = audit_ledger(&restored, &AuditConfig::default()).unwrap();
    assert_eq!(report.occult_journals, 1);
    assert_eq!(report.purge_journals, 1);
}

/// The import must fail, and for the stated reason.
fn assert_rejected(dir: &Path, why: &str) {
    match import(dir) {
        Ok(_) => panic!("forged export imported (expected: {why})"),
        Err(e) => assert!(e.to_string().contains(why), "expected {why:?}, got: {e}"),
    }
}

#[test]
fn tampered_export_rejected() {
    let mut w = world("tamper");
    populate(&mut w, 12);
    let pristine = export(&mut w, "pristine");
    let tampered = |name: &str| {
        let dir = w.root.join(name);
        copy_dir(&pristine, &dir);
        dir
    };

    // Payload swap: the checkpointed journal's digest no longer matches
    // its slot in the payload stream.
    let dir = tampered("payload-swap");
    {
        let stream = FileStreamStore::open(&dir.join(PAYLOAD_FILE)).unwrap();
        let tail: Vec<Vec<u8>> = (4..stream.len()).map(|i| stream.read(i).unwrap()).collect();
        stream.truncate_records(3).unwrap();
        stream.append(b"forged payload").unwrap();
        for payload in tail {
            stream.append(&payload).unwrap();
        }
    }
    assert_rejected(&dir, "payload slot 3 digest does not match");

    // Journal reorder: sequence check.
    let dir = tampered("reorder");
    forge_journals(&dir, |journals| journals.swap(1, 2));
    assert_rejected(&dir, "journal 1 carries jsn 2");

    // Dropped journal: the manifest's and the blocks' accounting both
    // still name it.
    let dir = tampered("dropped");
    forge_journals(&dir, |journals| {
        journals.pop();
    });
    assert_rejected(&dir, "journal count mismatch");

    // Rewritten journal content under an intact sequence: its tx-hash
    // no longer matches what the covering block committed to.
    let dir = tampered("rewritten");
    forge_journals(&dir, |journals| journals[5].clues = vec!["forged".into()]);
    assert_rejected(&dir, "does not commit to its journals' tx hashes");

    // Tampered block root: the chain link (and the roots the segments
    // re-derive to) no longer agree with it.
    let dir = tampered("block-root");
    forge(
        &dir,
        |role, bytes| {
            if role != "blocks" {
                return bytes;
            }
            let mut blocks = Vec::<Block>::from_wire(&bytes).unwrap();
            blocks[0].info.journal_root = ledgerdb::crypto::sha256(b"evil");
            blocks.to_wire()
        },
        |_| {},
    );
    assert_rejected(&dir, "chain link broken");

    // The clue index names the wrong journals. No root commits to the
    // CM-Tree's jsn references, so only their re-derivation from the
    // journals catches these: swapped within one clue, and pointing
    // past the last journal.
    let dir = tampered("clue-refs-swapped");
    forge_cm(&dir, |clue, _, refs| {
        if clue == "c0" {
            refs.swap(0, 1);
        }
    });
    assert_rejected(&dir, "clue index for 'c0' does not match its journals");
    let dir = tampered("clue-ref-past-end");
    forge_cm(&dir, |clue, _, refs| {
        if clue == "c1" {
            *refs.last_mut().unwrap() = 12 + 100;
        }
    });
    assert_rejected(&dir, "clue index for 'c1' does not match its journals");
    // A CM-Tree2 leaf that is not its journal's tx-hash.
    let dir = tampered("clue-leaf");
    forge_cm(&dir, |clue, nodes, _| {
        if clue == "c2" {
            nodes[0] = ledgerdb::crypto::sha256(b"evil");
        }
    });
    assert_rejected(&dir, "clue 'c2' leaf 0 is not its journal's tx hash");

    // A manifest claiming roots its segments do not re-derive to.
    let dir = tampered("manifest-root");
    forge(&dir, |_, bytes| bytes, |m| m.info.state_root = ledgerdb::crypto::sha256(b"evil"));
    assert_rejected(&dir, "roots do not re-derive");

    // The untouched export still imports.
    import(&pristine).unwrap();
}

#[test]
fn export_over_memory_streams_imports_into_the_same_format() {
    // The checkpoint is the format whatever the streams are made of: a
    // ledger over in-memory streams exports into a checkpoint store and
    // imports through `recover_with_checkpoint` — what `open_durable`
    // runs once it has opened its files.
    let root = std::env::temp_dir().join(format!("ledgerdb-persist-mem-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let payloads: Arc<dyn StreamStore> = Arc::new(MemoryStreamStore::new());
    let wal: Arc<dyn StreamStore> = Arc::new(MemoryStreamStore::new());
    let (_, alice, _, _) = members();
    let mut ledger = LedgerDb::with_durability(
        config(),
        registry(),
        Arc::clone(&payloads),
        Arc::clone(&wal),
        Arc::new(SimClock::new()),
    );
    for i in 0..8u64 {
        let req = TxRequest::signed(&alice, format!("payload-{i}").into_bytes(), vec![], i);
        ledger.append(req).unwrap();
    }
    let store = Arc::new(CheckpointStore::open(&root).unwrap());
    ledger.enable_checkpoints(Arc::clone(&store), Arc::new(CkptIo::new()), u64::MAX);
    ledger.checkpoint_now().unwrap().expect("a sealed ledger checkpoints");
    assert_eq!(wal.len(), 0, "the checkpoint covers every WAL record");

    let (restored, report) = recover_with_checkpoint(
        config(),
        registry(),
        payloads,
        wal,
        Arc::new(SimClock::new()),
        &Registry::new(),
        Some(&store),
    )
    .unwrap();
    assert_eq!(report.checkpoint_journals, 8);
    assert_eq!(restored.journal_root(), ledger.journal_root());
    assert_eq!(restored.state_fingerprint(), ledger.state_fingerprint());
    assert_eq!(restored.get_payload(3).unwrap(), b"payload-3");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_export_rejected() {
    let mut w = world("truncate");
    populate(&mut w, 6);
    let pristine = export(&mut w, "pristine");
    // Every file of the export, cut at several lengths: the manifest
    // and segments fail their content address, `HEAD` stops naming a
    // manifest, and a shortened payload stream no longer holds the
    // slots the checkpointed journals reference.
    let mut files = vec![PathBuf::from(PAYLOAD_FILE)];
    for entry in std::fs::read_dir(pristine.join(CHECKPOINT_DIR)).unwrap() {
        files.push(Path::new(CHECKPOINT_DIR).join(entry.unwrap().file_name()));
    }
    assert!(files.len() >= 9, "payload stream + HEAD + manifest + six segments: {files:?}");
    for (n, file) in files.iter().enumerate() {
        let len = std::fs::metadata(pristine.join(file)).unwrap().len() as usize;
        for cut in [0, 5.min(len - 1), len / 2, len - 1] {
            if file.ends_with("HEAD") && cut == len - 1 {
                continue; // drops only the trailing newline: still the same digest
            }
            let dir = w.root.join(format!("cut-{n}-{cut}"));
            copy_dir(&pristine, &dir);
            let bytes = std::fs::read(dir.join(file)).unwrap();
            std::fs::write(dir.join(file), &bytes[..cut]).unwrap();
            assert!(import(&dir).is_err(), "{} cut to {cut} of {len} bytes", file.display());
        }
    }
}
