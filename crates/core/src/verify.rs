//! Proof and chain verification — the only place either is written.
//!
//! §II-C's client manner: a distrusting verifier checks every answer
//! from values it already trusts (a root from a block it verified, its
//! own fam anchor, the pinned LSP key) plus the proof the server sent.
//! Every function here is pure: it holds no state, takes the trusted
//! values as arguments and never asks a ledger for anything, so the
//! client, the auditor, the checkpoint loader and WAL replay all check
//! the same arithmetic whichever type holds their roots. The server
//! manner — the LSP answering from its own records — is
//! `Request::Verify` in `ledgerdb-server`.

use crate::state::StateProof;
use crate::types::{Block, Receipt};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb_bintrie::verify_bin_proof;
use ledgerdb_clue::cm_tree::{ClueProof, CmTree};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::PublicKey;
use ledgerdb_mpt::{verify_absence, verify_proof};
use std::fmt;

/// Existence (*what*, §III-A): `tx_hash` sits in the fam tree whose
/// root is `root`, along a proof built relative to `anchor`.
pub fn existence(
    root: &Digest,
    anchor: &TrustedAnchor,
    tx_hash: &Digest,
    proof: &FamProof,
) -> Result<(), LedgerError> {
    Ok(FamTree::verify(root, anchor, tx_hash, proof)?)
}

/// N-lineage (§IV-C): the clue proof re-derives the trusted CM-Tree1
/// root `clue_root`.
pub fn clue(clue_root: &Digest, proof: &ClueProof) -> Result<(), LedgerError> {
    Ok(CmTree::verify_client(clue_root, proof)?)
}

/// Verify a [`StateProof`] against a trusted state root. On success
/// returns the proven value (`None` = verified absence).
pub fn verify_state_proof<'a>(
    root: &Digest,
    proof: &'a StateProof,
) -> Result<Option<&'a [u8]>, LedgerError> {
    let state_err = |e: &dyn fmt::Display| LedgerError::State(e.to_string());
    match proof {
        StateProof::MptPresent(p) => {
            verify_proof(root, p).map_err(|e| state_err(&e))?;
            Ok(Some(&p.value))
        }
        StateProof::MptAbsent(p) => {
            verify_absence(root, p).map_err(|e| state_err(&e))?;
            Ok(None)
        }
        // A bintrie proof's own shape says inclusion or absence; the
        // envelope's tag must agree with it.
        StateProof::BinPresent(p) | StateProof::BinAbsent(p) => {
            let value = verify_bin_proof(root, p).map_err(|e| state_err(&e))?;
            match (proof, value) {
                (StateProof::BinPresent(_), None) => {
                    Err(LedgerError::State("inclusion tag on absence proof".to_string()))
                }
                (StateProof::BinAbsent(_), Some(_)) => {
                    Err(LedgerError::State("absence tag on inclusion proof".to_string()))
                }
                (_, value) => Ok(value),
            }
        }
    }
}

/// A receipt π_s (§III-C): signed by the pinned `lsp_key`, and naming a
/// jsn inside the block it names, whose jsn span `(first_jsn,
/// journal_count)` the caller took from its own verified chain. Whether
/// `receipt.tx_hash` is the journal at that jsn is an [`existence`]
/// check against the caller's own replica.
pub fn receipt(
    lsp_key: &PublicKey,
    block: (u64, u64),
    receipt: &Receipt,
) -> Result<(), LedgerError> {
    let (first_jsn, journal_count) = block;
    let in_block = receipt.jsn.checked_sub(first_jsn).is_some_and(|off| off < journal_count);
    if receipt.lsp_pk != *lsp_key || !in_block || !receipt.verify() {
        return Err(LedgerError::BadReceipt);
    }
    Ok(())
}

/// What a verifier trusts about a chain before its next block: the
/// height and first jsn that block must carry, and the hash it must link
/// to (`None` when the caller does not pin the genesis link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainTip {
    pub height: u64,
    pub next_jsn: u64,
    pub hash: Option<Digest>,
}

impl ChainTip {
    /// Before any block, with the genesis link unpinned.
    pub const GENESIS: ChainTip = ChainTip { height: 0, next_jsn: 0, hash: None };

    /// The tip right after `block` (reads its memoized hash).
    pub fn after(block: &Block) -> ChainTip {
        ChainTip {
            height: block.height + 1,
            next_jsn: block.first_jsn + block.journal_count,
            hash: Some(block.hash()),
        }
    }
}

/// The first way a block failed to extend a [`ChainTip`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainBreak {
    /// The block is not at the next height.
    Height { expected: u64, got: u64 },
    /// The block does not start at the next jsn.
    Jsn { expected: u64, got: u64 },
    /// `journal_count` disagrees with the tx-hashes the block carries.
    Count { claimed: u64, carried: u64 },
    /// `prev_block_hash` is not the tip's hash.
    Link,
}

impl fmt::Display for ChainBreak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainBreak::Height { expected, got } => {
                write!(f, "height {got} out of order (expected {expected})")
            }
            ChainBreak::Jsn { expected, got } => {
                write!(f, "starts at jsn {got}, not the next jsn {expected}")
            }
            ChainBreak::Count { claimed, carried } => {
                write!(f, "journal count mismatch ({claimed} claimed, {carried} tx-hashes)")
            }
            ChainBreak::Link => write!(f, "chain link broken"),
        }
    }
}

/// The chain rule: block n+1 extends block n. Checks height, jsn
/// continuity, the journal count against the carried tx-hashes, and the
/// previous-hash link, in that order; returns the tip after `block`.
pub fn chain(tip: &ChainTip, block: &Block) -> Result<ChainTip, ChainBreak> {
    if block.height != tip.height {
        return Err(ChainBreak::Height { expected: tip.height, got: block.height });
    }
    if block.first_jsn != tip.next_jsn {
        return Err(ChainBreak::Jsn { expected: tip.next_jsn, got: block.first_jsn });
    }
    if block.journal_count != block.tx_hashes.len() as u64 {
        return Err(ChainBreak::Count {
            claimed: block.journal_count,
            carried: block.tx_hashes.len() as u64,
        });
    }
    if tip.hash.is_some_and(|hash| block.prev_block_hash != hash) {
        return Err(ChainBreak::Link);
    }
    Ok(ChainTip::after(block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit_ledger, AuditConfig};
    use crate::checkpoint::{load_checkpoint, write_checkpoint, CheckpointManifest};
    use crate::client::LedgerClient;
    use crate::ledger::tests::fixture;
    use crate::ledger::LedgerDb;
    use crate::snapshot::SealedSegment;
    use crate::types::TxRequest;
    use ledgerdb_crypto::sha256;
    use ledgerdb_crypto::wire::Wire;
    use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo};
    use std::sync::Arc;

    /// An edit that makes a block commit one break.
    type Edit = fn(&mut Block);

    /// Each break the rule names, and the edit that makes the last of
    /// three 4-journal blocks commit it.
    const BREAKS: [(ChainBreak, Edit); 4] = [
        (ChainBreak::Height { expected: 2, got: 3 }, |b| b.height = 3),
        (ChainBreak::Jsn { expected: 8, got: 9 }, |b| b.first_jsn = 9),
        (ChainBreak::Count { claimed: 5, carried: 4 }, |b| b.journal_count = 5),
        (ChainBreak::Link, |b| b.prev_block_hash = sha256(b"forked history")),
    ];

    /// `journals` appends; 12 at `block_size` 4 seal into three blocks.
    fn ledger(block_size: u64, journals: u64) -> LedgerDb {
        let mut f = fixture(block_size);
        for i in 0..journals {
            f.ledger.append(TxRequest::signed(&f.alice, vec![i as u8], vec![], i)).unwrap();
        }
        f.ledger
    }

    fn blocks(ledger: &LedgerDb) -> Vec<Block> {
        ledger.blocks().cloned().collect()
    }

    fn assert_names(err: impl fmt::Display, brk: ChainBreak, caller: &str) {
        let msg = err.to_string();
        assert!(msg.contains(&brk.to_string()), "{caller} must reject {brk:?}, said: {msg}");
    }

    #[test]
    fn chain_rule_names_each_break() {
        let good = blocks(&ledger(4, 12));
        let tip = ChainTip::after(&good[1]);
        assert_eq!(chain(&tip, &good[2]), Ok(ChainTip::after(&good[2])));
        assert_eq!(chain(&ChainTip::GENESIS, &good[0]), Ok(ChainTip::after(&good[0])));
        for (brk, edit) in BREAKS {
            let mut bad = good[2].clone();
            edit(&mut bad);
            assert_eq!(chain(&tip, &bad), Err(brk));
        }
        // A pinned genesis link is checked; an unpinned one is not.
        let pinned = ChainTip { hash: Some(sha256(b"pseudo genesis")), ..ChainTip::GENESIS };
        assert_eq!(chain(&pinned, &good[0]), Err(ChainBreak::Link));
    }

    #[test]
    fn every_caller_rejects_every_break() {
        for (i, (brk, edit)) in BREAKS.into_iter().enumerate() {
            // Client sync: the first two blocks stay trusted.
            let honest = ledger(4, 12);
            let mut feed = blocks(&honest);
            edit(&mut feed[2]);
            let mut client = LedgerClient::new(*honest.lsp_public_key(), honest.fam_delta());
            assert_names(client.sync(&feed).unwrap_err(), brk, "sync");
            assert_eq!(client.height(), 2);

            // Audit step 4, over a kernel whose last segment was swapped.
            let mut forged = ledger(4, 12);
            let mut block = forged.sealed[2].block.clone();
            edit(&mut block);
            let journals = forged.sealed[2].journals.clone();
            forged.sealed[2] = Arc::new(SealedSegment { block, journals });
            let audited = audit_ledger(&forged, &AuditConfig::default());
            assert_names(audited.unwrap_err(), brk, "audit");

            // Checkpoint load, with the blocks segment rewritten.
            let dir = std::env::temp_dir()
                .join(format!("ledgerdb-verify-chain-{}-{i}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let store = CheckpointStore::open(&dir).unwrap();
            write_checkpoint(&honest, &store, &CkptIo::new()).unwrap();
            let mut manifest =
                CheckpointManifest::from_wire(&store.load_head().unwrap().unwrap().1).unwrap();
            let segments: Vec<(String, Vec<u8>)> = manifest
                .segments
                .iter()
                .map(|(role, digest)| {
                    let bytes = store.read_segment(digest).unwrap();
                    match role.as_str() {
                        "blocks" => {
                            let mut blocks = Vec::<Block>::from_wire(&bytes).unwrap();
                            edit(&mut blocks[2]);
                            (role.clone(), blocks.to_wire())
                        }
                        _ => (role.clone(), bytes),
                    }
                })
                .collect();
            let publish = |refs: &[(String, Digest)]| {
                manifest.segments = refs.to_vec();
                manifest.to_wire()
            };
            store.publish(&segments, publish, &CkptIo::new()).unwrap();
            let loaded =
                load_checkpoint(&store, &honest.id(), honest.fam_delta(), honest.state_backend());
            assert_names(loaded.err().expect("a forged checkpoint loaded"), brk, "checkpoint load");
            std::fs::remove_dir_all(&dir).ok();

            // WAL replay of the seal record, over a kernel holding the
            // same eight sealed and four pending journals.
            let mut replaying = ledger(4, 8);
            replaying.config.block_size = 16;
            let alice = fixture(4).alice;
            for n in 8..12u64 {
                replaying.append(TxRequest::signed(&alice, vec![n as u8], vec![], n)).unwrap();
            }
            let mut block = blocks(&honest)[2].clone();
            edit(&mut block);
            let replayed = crate::recovery::replay_seal(&mut replaying, block);
            assert_names(replayed.unwrap_err(), brk, "WAL replay");
            // The same kernel replays the honest seal record.
            crate::recovery::replay_seal(&mut replaying, blocks(&honest)[2].clone()).unwrap();
        }
    }
}
