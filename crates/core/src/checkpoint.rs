//! Checkpoint serialization: sealed-prefix state ⇄ content-addressed
//! segments.
//!
//! A checkpoint captures the **entire metadata state** of the ledger at a
//! seal boundary — journals, blocks, fam tree, CM-Tree, world state,
//! occult bitmap, pseudo genesis and survival milestones — as six
//! content-addressed segments plus a manifest carrying the covered
//! watermarks `(journal_count, block_count)` and the three roots. The
//! payload stream is *not* captured: it is an independent append-only
//! file whose slots the checkpointed journals reference by index.
//!
//! After a checkpoint commits, the metadata WAL is reset to empty
//! ([`ledgerdb_storage::StreamStore::reset`]), so a restart becomes
//! *load checkpoint + replay the post-checkpoint WAL tail* — O(tail)
//! replay work instead of O(history).
//!
//! Loading **re-derives every root from the deserialized structures**
//! and cross-checks them against the manifest and the last covered
//! block, so a corrupted or tampered checkpoint is rejected rather than
//! silently installed (the same posture as WAL replay). The CM-Tree's
//! clue → jsn references are not committed by any root, so the loader
//! re-derives them from the journals and checks them instead.

use crate::ledger::{LedgerDb, PseudoGenesis};
use crate::types::{Block, Journal, LedgerInfo};
use crate::verify::{self, ChainTip};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamParts, FamTree};
use ledgerdb_accumulator::shrubs::Shrubs;
use ledgerdb_clue::cm_tree::CmTree;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sha256::Sha256;
use ledgerdb_crypto::wire::{Reader, Wire, WireError, Writer};
use crate::state::{StateBackend, StateCommitment, WorldState};
use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb_storage::occult_index::OccultIndex;
use std::collections::HashMap;

/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// Segment role names, in canonical write order.
const ROLES: [&str; 6] = ["journals", "blocks", "fam", "cm", "state", "aux"];

/// The checkpoint manifest: what the snapshot id commits to.
#[derive(Clone, Debug)]
pub struct CheckpointManifest {
    /// Ledger identity the checkpoint belongs to.
    pub ledger_id: Digest,
    /// Journals covered (`jsn < journal_count` lives in the checkpoint).
    pub journal_count: u64,
    /// Blocks covered (`height < block_count`).
    pub block_count: u64,
    /// The three roots at the covered seal boundary.
    pub info: LedgerInfo,
    /// `(role, content digest)` of every segment.
    pub segments: Vec<(String, Digest)>,
}

impl Wire for CheckpointManifest {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(MANIFEST_VERSION);
        self.ledger_id.encode(w);
        w.put_u64(self.journal_count);
        w.put_u64(self.block_count);
        self.info.encode(w);
        self.segments.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.get_u32()? != MANIFEST_VERSION {
            return Err(WireError::Invalid("unsupported checkpoint manifest version"));
        }
        Ok(CheckpointManifest {
            ledger_id: Digest::decode(r)?,
            journal_count: r.get_u64()?,
            block_count: r.get_u64()?,
            info: LedgerInfo::decode(r)?,
            segments: Vec::decode(r)?,
        })
    }
}

fn encode_shrubs(w: &mut Writer, s: &Shrubs) {
    w.put_u64(s.leaf_count());
    s.nodes().to_vec().encode(w);
}

fn decode_shrubs(r: &mut Reader<'_>) -> Result<Shrubs, WireError> {
    let leaf_count = r.get_u64()?;
    let nodes = Vec::<Digest>::decode(r)?;
    Shrubs::from_parts(nodes, leaf_count)
        .map_err(|_| WireError::Invalid("shrubs node storage does not match leaf count"))
}

/// `Vec<T>::to_wire` over borrowed items: the same bytes, no copy.
fn encode_seq<'a, T: Wire + 'a>(len: u64, items: impl Iterator<Item = &'a T>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(len);
    for item in items {
        item.encode(&mut w);
    }
    w.into_bytes()
}

fn encode_fam(parts: &FamParts) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(parts.delta);
    parts.sealed_roots.encode(&mut w);
    w.put_u64(parts.epochs.len() as u64);
    for epoch in &parts.epochs {
        match epoch {
            Some(tree) => {
                w.put_bool(true);
                encode_shrubs(&mut w, tree);
            }
            None => w.put_bool(false),
        }
    }
    encode_shrubs(&mut w, &parts.current);
    parts.epoch_first_jsn.encode(&mut w);
    w.put_u64(parts.journal_count);
    w.into_bytes()
}

/// Decode the `fam` segment. Public (with [`decode_cm`] and
/// [`decode_aux`]) so the hostile-bytes suite can drive every segment
/// decoder directly; the `journals`, `blocks` and `state` segments are
/// plain [`Wire`] vectors.
pub fn decode_fam(bytes: &[u8]) -> Result<FamParts, WireError> {
    let mut r = Reader::new(bytes);
    let delta = r.get_u32()?;
    let sealed_roots = Vec::<Digest>::decode(&mut r)?;
    let n = r.get_seq_len(1)?;
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push(if r.get_bool()? { Some(decode_shrubs(&mut r)?) } else { None });
    }
    let current = decode_shrubs(&mut r)?;
    let epoch_first_jsn = Vec::<u64>::decode(&mut r)?;
    let journal_count = r.get_u64()?;
    r.finish()?;
    Ok(FamParts { delta, sealed_roots, epochs, current, epoch_first_jsn, journal_count })
}

fn encode_cm(parts: &[(String, Shrubs, Vec<u64>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(parts.len() as u64);
    for (clue, subtree, refs) in parts {
        clue.encode(&mut w);
        encode_shrubs(&mut w, subtree);
        refs.encode(&mut w);
    }
    w.into_bytes()
}

/// Decode the `cm` segment: `(clue, subtree, jsn refs)` per clue.
pub fn decode_cm(bytes: &[u8]) -> Result<Vec<(String, Shrubs, Vec<u64>)>, WireError> {
    let mut r = Reader::new(bytes);
    let n = r.get_seq_len(1)?;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let clue = String::decode(&mut r)?;
        let subtree = decode_shrubs(&mut r)?;
        let refs = Vec::<u64>::decode(&mut r)?;
        parts.push((clue, subtree, refs));
    }
    r.finish()?;
    Ok(parts)
}

/// Auxiliary state: pseudo genesis, occult bitmap, survival milestones.
pub struct Aux {
    pseudo_genesis: Option<(u64, u64, LedgerInfo, Digest)>,
    occult_bits: Vec<u64>,
    occult_anchor: u64,
    survival: Vec<(u64, Vec<u8>)>,
}

fn encode_aux(aux: &Aux) -> Vec<u8> {
    let mut w = Writer::new();
    match &aux.pseudo_genesis {
        Some((purge_to, jsn, info, hash)) => {
            w.put_bool(true);
            w.put_u64(*purge_to);
            w.put_u64(*jsn);
            info.encode(&mut w);
            hash.encode(&mut w);
        }
        None => w.put_bool(false),
    }
    aux.occult_bits.encode(&mut w);
    w.put_u64(aux.occult_anchor);
    aux.survival.encode(&mut w);
    w.into_bytes()
}

/// Decode the `aux` segment.
pub fn decode_aux(bytes: &[u8]) -> Result<Aux, WireError> {
    let mut r = Reader::new(bytes);
    let pseudo_genesis = if r.get_bool()? {
        Some((r.get_u64()?, r.get_u64()?, LedgerInfo::decode(&mut r)?, Digest::decode(&mut r)?))
    } else {
        None
    };
    let occult_bits = Vec::<u64>::decode(&mut r)?;
    let occult_anchor = r.get_u64()?;
    let survival = Vec::<(u64, Vec<u8>)>::decode(&mut r)?;
    r.finish()?;
    Ok(Aux { pseudo_genesis, occult_bits, occult_anchor, survival })
}

/// Serialize the ledger's sealed-prefix state and commit it to `store`.
///
/// The ledger must be at a seal boundary (empty tail) — the WAL
/// reset that follows a successful checkpoint assumes every WAL record
/// is covered. Returns `(snapshot id, bytes written, segment digests)`;
/// the digests feed [`CheckpointStore::gc`].
pub(crate) fn write_checkpoint(
    ledger: &LedgerDb,
    store: &CheckpointStore,
    io: &CkptIo,
) -> Result<(Digest, u64, Vec<Digest>), LedgerError> {
    if ledger.pending_journals() != 0 {
        return Err(LedgerError::Recovery(
            "checkpoint requires a seal boundary (pending journals exist)".to_string(),
        ));
    }
    let aux = Aux {
        pseudo_genesis: ledger
            .pseudo_genesis
            .as_ref()
            .map(|g| (g.purge_to, g.purge_journal_jsn, g.snapshot, g.genesis_hash)),
        occult_bits: ledger.occult_index.export_parts().0,
        occult_anchor: ledger.occult_index.export_parts().1,
        survival: ledger
            .survival
            .milestones()
            .into_iter()
            .map(|m| (m.jsn, m.payload))
            .collect(),
    };
    let segments: Vec<(String, Vec<u8>)> = vec![
        ("journals".to_string(), encode_seq(ledger.journal_count(), ledger.journals())),
        ("blocks".to_string(), encode_seq(ledger.block_count(), ledger.blocks())),
        ("fam".to_string(), encode_fam(&ledger.fam.export_parts())),
        ("cm".to_string(), encode_cm(&ledger.cm_tree.export_parts())),
        ("state".to_string(), ledger.world_state.canonical_entries().to_wire()),
        ("aux".to_string(), encode_aux(&aux)),
    ];
    let ledger_id = ledger.id;
    let journal_count = ledger.journal_count();
    let block_count = ledger.block_count();
    let info = ledger.roots();
    let (snapshot_id, bytes) = store.publish(
        &segments,
        |refs| {
            CheckpointManifest {
                ledger_id,
                journal_count,
                block_count,
                info,
                segments: refs.to_vec(),
            }
            .to_wire()
        },
        io,
    )?;
    let digests = segments.iter().map(|(_, b)| ledgerdb_crypto::sha256(b)).collect();
    Ok((snapshot_id, bytes, digests))
}

/// A checkpoint deserialized, verified, and ready to install into a
/// fresh kernel.
pub(crate) struct LoadedCheckpoint {
    pub snapshot_id: Digest,
    pub manifest: CheckpointManifest,
    pub journals: Vec<Journal>,
    pub blocks: Vec<Block>,
    pub fam: FamTree,
    pub cm_tree: CmTree,
    pub world_state: WorldState,
    pub occult_index: OccultIndex,
    pub pseudo_genesis: Option<PseudoGenesis>,
    pub survival: Vec<(u64, Vec<u8>)>,
}

fn wire_err(what: &str, e: WireError) -> LedgerError {
    LedgerError::Recovery(format!("checkpoint {what} undecodable: {e}"))
}

/// The `cm` segment's jsn references are the clue → jsn index behind
/// `ListTx` and occult-by-clue, yet no root commits to them. So they
/// must equal, clue by clue and in order, the jsns of the journals that
/// carry each clue; and CM-Tree2 leaf `i` must be the tx-hash of journal
/// `refs[i]` (Shrubs keeps raw leaves, so this is a comparison).
fn check_clue_index(
    journals: &[Journal],
    tx_hashes: &[Digest],
    cm_parts: &[(String, Shrubs, Vec<u64>)],
) -> Result<(), LedgerError> {
    let mut expected: HashMap<&str, Vec<u64>> = HashMap::new();
    for j in journals {
        for clue in &j.clues {
            expected.entry(clue.as_str()).or_default().push(j.jsn);
        }
    }
    for (clue, subtree, refs) in cm_parts {
        if expected.remove(clue.as_str()).as_ref() != Some(refs) {
            return Err(LedgerError::Recovery(format!(
                "checkpoint clue index for '{clue}' does not match its journals"
            )));
        }
        for (i, &jsn) in refs.iter().enumerate() {
            let leaf = subtree.node(ledgerdb_accumulator::shrubs::leaf_pos(i as u64));
            if leaf != Some(tx_hashes[jsn as usize]) {
                return Err(LedgerError::Recovery(format!(
                    "checkpoint clue '{clue}' leaf {i} is not its journal's tx hash"
                )));
            }
        }
    }
    if let Some(clue) = expected.keys().next() {
        return Err(LedgerError::Recovery(format!(
            "checkpoint clue index is missing clue '{clue}'"
        )));
    }
    Ok(())
}

/// Load and fully verify the current checkpoint, if one exists.
///
/// Every root is **re-derived** from the deserialized structures and
/// checked against the manifest; the block chain is re-linked; the fam,
/// CM-Tree and world-state roots must reproduce the manifest's
/// `LedgerInfo` exactly. `Ok(None)` means no checkpoint was ever
/// committed; any damaged state is a hard [`LedgerError::Recovery`].
pub(crate) fn load_checkpoint(
    store: &CheckpointStore,
    expected_id: &Digest,
    expected_delta: u32,
    state_backend: StateBackend,
) -> Result<Option<LoadedCheckpoint>, LedgerError> {
    let Some((snapshot_id, manifest_bytes)) = store.load_head()? else {
        return Ok(None);
    };
    let manifest = CheckpointManifest::from_wire(&manifest_bytes)
        .map_err(|e| wire_err("manifest", e))?;
    if manifest.ledger_id != *expected_id {
        return Err(LedgerError::Recovery(
            "checkpoint belongs to a different ledger".to_string(),
        ));
    }
    let seg = |role: &str| -> Result<Vec<u8>, LedgerError> {
        let (_, digest) = manifest
            .segments
            .iter()
            .find(|(r, _)| r == role)
            .ok_or_else(|| LedgerError::Recovery(format!("checkpoint missing segment '{role}'")))?;
        Ok(store.read_segment(digest)?)
    };
    for role in ROLES {
        // Every canonical role must be present (extra roles are ignored
        // for forward compatibility).
        if !manifest.segments.iter().any(|(r, _)| r == role) {
            return Err(LedgerError::Recovery(format!("checkpoint missing segment '{role}'")));
        }
    }

    let journals = Vec::<Journal>::from_wire(&seg("journals")?)
        .map_err(|e| wire_err("journals segment", e))?;
    let blocks =
        Vec::<Block>::from_wire(&seg("blocks")?).map_err(|e| wire_err("blocks segment", e))?;
    let fam_parts = decode_fam(&seg("fam")?).map_err(|e| wire_err("fam segment", e))?;
    let cm_parts = decode_cm(&seg("cm")?).map_err(|e| wire_err("cm segment", e))?;
    let state_entries = Vec::<(Vec<u8>, Vec<u8>)>::from_wire(&seg("state")?)
        .map_err(|e| wire_err("state segment", e))?;
    let aux = decode_aux(&seg("aux")?).map_err(|e| wire_err("aux segment", e))?;

    // --- Structural verification ---------------------------------------
    if journals.len() as u64 != manifest.journal_count {
        return Err(LedgerError::Recovery("checkpoint journal count mismatch".to_string()));
    }
    for (i, j) in journals.iter().enumerate() {
        if j.jsn != i as u64 {
            return Err(LedgerError::Recovery(format!(
                "checkpoint journal {i} carries jsn {}",
                j.jsn
            )));
        }
    }
    if blocks.len() as u64 != manifest.block_count {
        return Err(LedgerError::Recovery("checkpoint block count mismatch".to_string()));
    }
    let mut tip = ChainTip::GENESIS;
    for (i, b) in blocks.iter().enumerate() {
        tip = verify::chain(&tip, b)
            .map_err(|e| LedgerError::Recovery(format!("checkpoint block {i}: {e}")))?;
    }
    // Seal-boundary invariant: the blocks cover every journal exactly.
    if tip.next_jsn != manifest.journal_count {
        return Err(LedgerError::Recovery(
            "checkpoint blocks do not cover its journals (not a seal boundary)".to_string(),
        ));
    }
    if fam_parts.delta != expected_delta {
        return Err(LedgerError::Recovery(format!(
            "checkpoint fam delta {} does not match configuration {expected_delta}",
            fam_parts.delta
        )));
    }
    if fam_parts.journal_count != manifest.journal_count {
        return Err(LedgerError::Recovery("checkpoint fam journal count mismatch".to_string()));
    }

    // tx-hashes are recomputed from the journals (never trusted). The
    // journals and blocks segments must name the same history: every
    // block commits to exactly the tx-hashes its journals re-derive to
    // (the coverage checks above keep the ranges in bounds).
    let tx_hashes: Vec<Digest> = journals.iter().map(|j| j.tx_hash()).collect();
    for b in &blocks {
        let lo = b.first_jsn as usize;
        if b.tx_hashes[..] != tx_hashes[lo..lo + b.journal_count as usize] {
            return Err(LedgerError::Recovery(format!(
                "checkpoint block {} does not commit to its journals' tx hashes",
                b.height
            )));
        }
    }
    check_clue_index(&journals, &tx_hashes, &cm_parts)?;

    // --- Rebuild and re-derive -----------------------------------------
    let fam = FamTree::from_parts(fam_parts)
        .map_err(|e| LedgerError::Recovery(format!("checkpoint fam rejected: {e}")))?;
    let cm_tree = CmTree::from_parts(cm_parts)
        .map_err(|e| LedgerError::Recovery(format!("checkpoint cm-tree rejected: {e}")))?;
    // The segment is backend-independent (canonical sorted pairs);
    // the configured backend decides which commitment re-derives — and
    // must reproduce the manifest roots, so a checkpoint written under
    // a different backend is rejected rather than silently re-rooted.
    let mut world_state = WorldState::new(state_backend);
    for (key, value) in &state_entries {
        world_state.insert_kv(key, value.clone());
    }
    let info = LedgerInfo {
        journal_root: fam.root(),
        clue_root: cm_tree.root(),
        state_root: world_state.commitment_root(),
    };
    if info != manifest.info {
        return Err(LedgerError::Recovery(
            "checkpoint roots do not re-derive from its segments".to_string(),
        ));
    }
    if let Some(last) = blocks.last() {
        if last.info != manifest.info {
            return Err(LedgerError::Recovery(
                "checkpoint roots disagree with its last covered block".to_string(),
            ));
        }
    }

    let pseudo_genesis = aux.pseudo_genesis.map(|(purge_to, purge_journal_jsn, snapshot, _)| {
        // The genesis hash is re-derived, not trusted from the segment.
        let genesis_hash = crate::ledger::pseudo_genesis_hash(expected_id, purge_to, &snapshot);
        PseudoGenesis { purge_to, purge_journal_jsn, snapshot, genesis_hash }
    });
    if let (Some(g), Some((_, _, _, stored))) = (&pseudo_genesis, &aux.pseudo_genesis) {
        if g.genesis_hash != *stored {
            return Err(LedgerError::Recovery(
                "checkpoint pseudo-genesis hash does not re-derive".to_string(),
            ));
        }
    }
    let occult_index = OccultIndex::from_parts(aux.occult_bits, aux.occult_anchor);

    Ok(Some(LoadedCheckpoint {
        snapshot_id,
        manifest,
        journals,
        blocks,
        fam,
        cm_tree,
        world_state,
        occult_index,
        pseudo_genesis,
        survival: aux.survival,
    }))
}

impl LedgerDb {
    /// A digest of the ledger's complete logical state — everything a
    /// recovered kernel must reproduce byte-for-byte. The crash-point
    /// harness compares this fingerprint between a recovered ledger and
    /// a never-crashed control.
    pub fn state_fingerprint(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.fingerprint.v1");
        h.update(&self.id.0);
        h.update(&self.journal_count().to_be_bytes());
        h.update(&self.block_count().to_be_bytes());
        let sealed_tx_hashes = self.sealed.iter().flat_map(|s| &s.block.tx_hashes);
        for tx in sealed_tx_hashes.chain(&self.tail.tx_hashes) {
            h.update(&tx.0);
        }
        for (i, j) in self.journals().enumerate() {
            let erased = self.store.is_erased(j.stream_index).unwrap_or(true);
            h.update(&[erased as u8, self.occult_index.is_marked(i as u64) as u8]);
        }
        for b in self.blocks() {
            h.update(&b.hash().0);
        }
        for jsn in self.sealed_journals()..self.journal_count() {
            h.update(&jsn.to_be_bytes());
        }
        h.update(&self.fam.root().0);
        h.update(&self.cm_tree.root().0);
        h.update(&self.world_state.commitment_root().0);
        for root in self.fam.sealed_roots() {
            h.update(&root.0);
        }
        match &self.pseudo_genesis {
            Some(g) => {
                h.update(&[1]);
                h.update(&g.purge_to.to_be_bytes());
                h.update(&g.purge_journal_jsn.to_be_bytes());
                h.update(&g.genesis_hash.0);
            }
            None => h.update(&[0]),
        }
        let (bits, anchor) = self.occult_index.export_parts();
        for word in bits {
            h.update(&word.to_be_bytes());
        }
        h.update(&anchor.to_be_bytes());
        for m in self.survival.milestones() {
            h.update(&m.jsn.to_be_bytes());
            h.update(&m.digest.0);
        }
        Digest(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberRegistry;
    use crate::recovery::{open_durable, CHECKPOINT_DIR, WAL_FILE};
    use crate::types::TxRequest;
    use crate::LedgerConfig;
    use ledgerdb_crypto::ca::{CertificateAuthority, Role};
    use ledgerdb_crypto::keys::KeyPair;
    use ledgerdb_crypto::multisig::MultiSignature;
    use ledgerdb_storage::stream::FsyncPolicy;
    use ledgerdb_timesvc::clock::SimClock;
    use std::sync::Arc;

    struct Members {
        dba: KeyPair,
        alice: KeyPair,
    }

    fn members() -> (MemberRegistry, Members) {
        let ca = CertificateAuthority::from_seed(b"ckpt-ca");
        let dba = KeyPair::from_seed(b"ckpt-dba");
        let regulator = KeyPair::from_seed(b"ckpt-reg");
        let alice = KeyPair::from_seed(b"ckpt-alice");
        let mut registry = MemberRegistry::new(*ca.public_key());
        registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
        registry.register(ca.issue("regulator", Role::Regulator, regulator.public())).unwrap();
        registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
        (registry, Members { dba, alice })
    }

    fn config(block_size: u64) -> LedgerConfig {
        LedgerConfig {
            block_size,
            fam_delta: 4,
            name: "ckpt-test".into(),
            state_backend: Default::default(),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ledgerdb-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tx(keys: &KeyPair, payload: &[u8], clues: &[&str], nonce: u64) -> TxRequest {
        TxRequest::signed(
            keys,
            payload.to_vec(),
            clues.iter().map(|s| s.to_string()).collect(),
            nonce,
        )
    }

    fn enable(ledger: &mut crate::LedgerDb, dir: &std::path::Path, every: u64) {
        let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
        ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), every);
    }

    #[test]
    fn checkpointed_reopen_is_byte_identical_and_o_tail() {
        let dir = temp_dir("roundtrip");
        let (registry, m) = members();
        let fingerprint = {
            let (mut ledger, _) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            enable(&mut ledger, &dir, 1);
            for i in 0..10u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["clue"], i)).unwrap();
            }
            assert!(ledger.durability_error().is_none(), "checkpoints committed cleanly");
            ledger.state_fingerprint()
        };
        // The WAL must have shrunk to the unsealed tail: 10 appends with
        // block size 4 leave exactly 2 journal records after the last
        // checkpoint (which covered the 8 sealed ones and both seals).
        let wal = ledgerdb_storage::stream::FileStreamStore::open(&dir.join(WAL_FILE)).unwrap();
        use ledgerdb_storage::stream::StreamStore as _;
        assert_eq!(wal.len(), 2, "WAL bounded by the post-checkpoint tail");
        drop(wal);

        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.checkpoint.is_some(), "reopen started from the checkpoint");
        assert_eq!(report.checkpoint_journals, 8);
        assert_eq!(report.checkpoint_blocks, 2);
        assert_eq!(report.journals_replayed, 2, "only the tail replayed");
        assert_eq!(report.skipped_wal_records, 0, "reset WAL holds no covered records");
        assert!(report.is_clean(), "clean checkpointed reopen: {report:?}");
        assert_eq!(ledger.state_fingerprint(), fingerprint);
        assert_eq!(ledger.journal_count(), 10);
        assert_eq!(ledger.get_payload(3).unwrap(), 3u64.to_be_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn purge_then_checkpoint_round_trips() {
        let dir = temp_dir("purge");
        let (registry, m) = members();
        let fingerprint = {
            let (mut ledger, _) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            enable(&mut ledger, &dir, 2);
            for i in 0..8u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["c"], i)).unwrap();
            }
            let digest = ledger.purge_approval_digest(4);
            let mut ms = MultiSignature::new();
            ms.add(&m.dba, &digest);
            ms.add(&m.alice, &digest);
            ledger.purge(4, ms, &[2], false).unwrap();
            // The purge journal plus enough to reach the next seal → the
            // post-purge checkpoint the purge scheduled.
            for i in 8..11u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["c"], i + 10)).unwrap();
            }
            assert!(ledger.durability_error().is_none());
            ledger.state_fingerprint()
        };
        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.checkpoint.is_some());
        assert_eq!(ledger.state_fingerprint(), fingerprint);
        let genesis = ledger.pseudo_genesis().unwrap();
        assert_eq!(genesis.purge_to, 4);
        assert!(matches!(ledger.get_tx(0), Err(crate::LedgerError::Purged(0))));
        assert_eq!(ledger.survival().milestones().len(), 1, "pinned survivor restored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_checkpoint_segment_refuses_to_load() {
        let dir = temp_dir("tamper");
        let (registry, m) = members();
        {
            let (mut ledger, _) = open_durable(
                config(2),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            enable(&mut ledger, &dir, 1);
            for i in 0..4u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["c"], i)).unwrap();
            }
        }
        // Flip a byte in the largest segment file (the WAL is already
        // reset, so there is no replay fallback — load must fail loudly).
        let seg = std::fs::read_dir(dir.join(CHECKPOINT_DIR))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
            .max_by_key(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        match open_durable(config(2), registry, &dir, FsyncPolicy::Always, Arc::new(SimClock::new()))
        {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("corrupt") || msg.contains("checkpoint"),
                    "tamper surfaced as a checkpoint fault: {msg}"
                );
            }
            Ok(_) => panic!("tampered checkpoint must not load"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_wire_round_trip_rejects_bad_version() {
        let manifest = CheckpointManifest {
            ledger_id: ledgerdb_crypto::sha256(b"id"),
            journal_count: 7,
            block_count: 2,
            info: LedgerInfo {
                journal_root: ledgerdb_crypto::sha256(b"a"),
                clue_root: ledgerdb_crypto::sha256(b"b"),
                state_root: ledgerdb_crypto::sha256(b"c"),
            },
            segments: vec![("journals".to_string(), ledgerdb_crypto::sha256(b"s"))],
        };
        let bytes = manifest.to_wire();
        let back = CheckpointManifest::from_wire(&bytes).unwrap();
        assert_eq!(back.journal_count, 7);
        assert_eq!(back.segments, manifest.segments);
        let mut bad = bytes.clone();
        bad[3] = 9; // version little/big-endian byte — either way ≠ 1
        assert!(CheckpointManifest::from_wire(&bad).is_err());
    }
}
