//! The distrusting client / external auditor (§II-C verification manner 2).
//!
//! A [`LedgerClient`] never trusts the LSP. It *synchronizes* by
//! downloading sealed blocks, checking the block-hash chain, and
//! replaying every journal tx-hash through its **own fam replica** — so
//! each accepted block extends the client's trusted anchor exactly the
//! way §III-A1 prescribes ("before a new trusted anchor is set, all
//! earlier ledger data must be cryptographically verified"). After a
//! sync, the client can verify receipts, existence proofs and clue
//! proofs entirely from local trusted state plus wire-encoded proof
//! objects.

use crate::state::StateProof;
use crate::types::{Block, Receipt};
use crate::verify::{self, ChainTip};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb_clue::cm_tree::ClueProof;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::PublicKey;
use std::collections::HashMap;

/// Outcome of one synchronization pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Blocks accepted this pass.
    pub blocks_accepted: u64,
    /// Journals replayed into the fam replica this pass.
    pub journals_replayed: u64,
}

/// A stateful, distrusting ledger client.
pub struct LedgerClient {
    /// The LSP key receipts must be signed with.
    lsp_key: PublicKey,
    /// fam fractal height (must match the server's configuration).
    fam_delta: u32,
    /// The client's own fam replica over verified tx-hashes.
    fam: FamTree,
    /// `(first_jsn, journal_count)` of every verified block, by block
    /// hash: a receipt must name a jsn inside the block it names.
    blocks: HashMap<Digest, (u64, u64)>,
    /// Height, next jsn and hash the next block must extend.
    tip: ChainTip,
    /// Trusted clue root from the newest verified block.
    clue_root: Digest,
    /// Trusted world-state root from the newest verified block.
    state_root: Digest,
}

impl LedgerClient {
    /// Create a client trusting only `lsp_key` for receipts; `fam_delta`
    /// must match the ledger's configuration.
    pub fn new(lsp_key: PublicKey, fam_delta: u32) -> Self {
        LedgerClient {
            lsp_key,
            fam_delta,
            fam: FamTree::new(fam_delta),
            blocks: HashMap::new(),
            tip: ChainTip::GENESIS,
            clue_root: Digest::ZERO,
            state_root: Digest::ZERO,
        }
    }

    /// Verified block count.
    pub fn height(&self) -> u64 {
        self.tip.height
    }

    /// Journals replayed so far.
    pub fn verified_journals(&self) -> u64 {
        self.fam.journal_count()
    }

    /// The client's own trusted journal root.
    pub fn journal_root(&self) -> Digest {
        self.fam.root()
    }

    /// The trusted clue root (from the newest verified block).
    pub fn clue_root(&self) -> Digest {
        self.clue_root
    }

    /// The trusted world-state root.
    pub fn state_root(&self) -> Digest {
        self.state_root
    }

    /// The trusted anchor induced by the verified prefix (fam-aoa).
    pub fn anchor(&self) -> TrustedAnchor {
        self.fam.anchor()
    }

    /// Synchronize from a block feed. The feed may be the full chain or
    /// any suffix of it starting at or below the verified height (the
    /// remote block-download API serves suffixes): already-verified
    /// heights are skipped, and the first new block must extend the
    /// verified tip by the [chain rule](verify::chain). Rejects on the
    /// first inconsistency; earlier accepted blocks remain trusted, and
    /// the rejected block leaves no trace in the fam replica, so a later
    /// honest feed still syncs.
    pub fn sync(&mut self, blocks: &[Block]) -> Result<SyncReport, LedgerError> {
        let mut report = SyncReport::default();
        let verified = self.tip.height;
        for block in blocks.iter().filter(|b| b.height >= verified) {
            let tip = verify::chain(&self.tip, block).map_err(|e| {
                LedgerError::AuditFailed(format!("sync: block {}: {e}", block.height))
            })?;
            // Replay the journal digests through the local fam replica and
            // require the server's recorded root to re-derive.
            let replayed = self.fam.journal_count();
            for tx_hash in &block.tx_hashes {
                self.fam.append(*tx_hash);
            }
            if self.fam.root() != block.info.journal_root {
                self.fam.truncate(replayed).expect("the client's replica never erases epochs");
                return Err(LedgerError::AuditFailed(format!(
                    "sync: block {} journal root does not replay",
                    block.height
                )));
            }
            self.blocks.insert(block.hash(), (block.first_jsn, block.journal_count));
            self.tip = tip;
            self.clue_root = block.info.clue_root;
            self.state_root = block.info.state_root;
            report.blocks_accepted += 1;
            report.journals_replayed += block.journal_count;
        }
        Ok(report)
    }

    /// Verify an LSP receipt: the pinned key's signature, a jsn inside
    /// the verified block it names, and a tx-hash equal to the one this
    /// client's own replica holds at that jsn.
    pub fn verify_receipt(&self, receipt: &Receipt) -> Result<(), LedgerError> {
        let block = *self.blocks.get(&receipt.block_hash).ok_or(LedgerError::BadReceipt)?;
        verify::receipt(&self.lsp_key, block, receipt)?;
        let anchor = self.fam.anchor();
        let proof = self.fam.prove(receipt.jsn, &anchor).map_err(|_| LedgerError::BadReceipt)?;
        verify::existence(&self.fam.root(), &anchor, &receipt.tx_hash, &proof)
            .map_err(|_| LedgerError::BadReceipt)
    }

    /// Verify an existence proof against the client's own root/anchor.
    pub fn verify_existence(&self, tx_hash: &Digest, proof: &FamProof) -> Result<(), LedgerError> {
        verify::existence(&self.fam.root(), &self.fam.anchor(), tx_hash, proof)
    }

    /// Verify a clue (N-lineage) proof against the trusted clue root.
    pub fn verify_clue(&self, proof: &ClueProof) -> Result<(), LedgerError> {
        verify::clue(&self.clue_root, proof)
    }

    /// Verify a state-commitment proof (inclusion or absence, either
    /// backend) against the trusted state root from the newest verified
    /// block. Returns the proven latest-payload digest bytes, or `None`
    /// for verified absence.
    pub fn verify_state<'a>(
        &self,
        proof: &'a StateProof,
    ) -> Result<Option<&'a [u8]>, LedgerError> {
        verify::verify_state_proof(&self.state_root, proof)
    }

    /// The fam fractal height this client replays with.
    pub fn fam_delta(&self) -> u32 {
        self.fam_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::tests::fixture;
    use crate::types::TxRequest;
    use ledgerdb_crypto::sha256;
    use ledgerdb_crypto::wire::Wire;

    fn synced_world() -> (crate::ledger::tests::Fixture, LedgerClient) {
        let mut f = fixture(4);
        for i in 0..20u64 {
            let req = TxRequest::signed(
                &f.alice,
                format!("doc-{i}").into_bytes(),
                vec![format!("c{}", i % 2)],
                i,
            );
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        let mut client = LedgerClient::new(*f.ledger.lsp_public_key(), f.ledger.fam_delta());
        client.sync(&f.ledger.blocks().cloned().collect::<Vec<_>>()).unwrap();
        (f, client)
    }

    #[test]
    fn sync_replays_to_identical_root() {
        let (f, client) = synced_world();
        assert_eq!(client.journal_root(), f.ledger.journal_root());
        assert_eq!(client.clue_root(), f.ledger.clue_root());
        assert_eq!(client.verified_journals(), 20);
        assert_eq!(client.height(), 5);
    }

    #[test]
    fn incremental_sync() {
        let (mut f, mut client) = synced_world();
        for i in 100..108u64 {
            let req = TxRequest::signed(&f.alice, vec![i as u8], vec![], i);
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        let report = client.sync(&f.ledger.blocks().cloned().collect::<Vec<_>>()).unwrap();
        assert_eq!(report.blocks_accepted, 2);
        assert_eq!(report.journals_replayed, 8);
        assert_eq!(client.journal_root(), f.ledger.journal_root());
    }

    #[test]
    fn client_verifies_receipts_and_proofs_over_wire() {
        let (f, client) = synced_world();
        // Receipt.
        let receipt = f.ledger.receipt(7).unwrap().unwrap();
        client.verify_receipt(&Receipt::from_wire(&receipt.to_wire()).unwrap()).unwrap();
        // Existence (proof generated against the client's own anchor).
        let anchor = client.anchor();
        let (tx_hash, proof) = f.ledger.prove_existence(7, &anchor).unwrap();
        client.verify_existence(&tx_hash, &FamProof::from_wire(&proof.to_wire()).unwrap()).unwrap();
        // Clue lineage.
        let clue_proof = f.ledger.prove_clue("c1").unwrap();
        let decoded = ClueProof::from_wire(&clue_proof.to_wire()).unwrap();
        client.verify_clue(&decoded).unwrap();
        assert_eq!(decoded.entries.len(), 10);
    }

    /// Feed `ledger`'s chain to a fresh client with one tx-hash of block
    /// `tampered` swapped (threat-B tampering), then the honest chain.
    /// Earlier blocks stay accepted, and the rejection must leave nothing
    /// of the forged block in the client's replica.
    fn forged_block_rejected_then_honest_feed_syncs(ledger: &crate::ledger::LedgerDb, tampered: usize) {
        let mut client = LedgerClient::new(*ledger.lsp_public_key(), ledger.fam_delta());
        let honest: Vec<_> = ledger.blocks().cloned().collect();
        let mut forged = honest.clone();
        forged[tampered].tx_hashes[1] = sha256(b"tampered journal");
        let err = client.sync(&forged).unwrap_err();
        assert!(matches!(err, LedgerError::AuditFailed(_)));
        assert!(format!("{err}").contains("journal root does not replay"), "{err}");
        assert_eq!(client.height(), tampered as u64);
        assert_eq!(client.verified_journals(), honest[tampered].first_jsn);
        client.sync(&honest).unwrap();
        assert_eq!(client.journal_root(), ledger.journal_root());
        assert_eq!(client.height(), honest.len() as u64);
    }

    #[test]
    fn forged_block_feed_rejected() {
        let (f, _) = synced_world();
        forged_block_rejected_then_honest_feed_syncs(&f.ledger, 2);
    }

    #[test]
    fn forged_block_across_an_epoch_boundary_is_unrolled() {
        // δ = 2 (epochs of 4 leaves) and blocks of 4: block 2 holds jsns
        // 8..=11, and jsn 10 rolls an epoch.
        let f = fixture(4);
        let config = crate::LedgerConfig {
            block_size: 4,
            fam_delta: 2,
            name: "epochs".into(),
            state_backend: Default::default(),
        };
        let mut ledger = crate::ledger::LedgerDb::new(config, f.ledger.registry().clone());
        for i in 0..20u64 {
            ledger.append(TxRequest::signed(&f.alice, vec![i as u8], vec![], i)).unwrap();
        }
        forged_block_rejected_then_honest_feed_syncs(&ledger, 2);
    }

    #[test]
    fn forged_chain_link_rejected() {
        let (f, _) = synced_world();
        let mut fresh = LedgerClient::new(*f.ledger.lsp_public_key(), f.ledger.fam_delta());
        let mut blocks: Vec<_> = f.ledger.blocks().cloned().collect();
        blocks[3].prev_block_hash = sha256(b"forked history");
        assert!(fresh.sync(&blocks).is_err());
    }

    #[test]
    fn receipt_from_unknown_block_rejected() {
        let (f, client) = synced_world();
        let mut receipt = f.ledger.receipt(3).unwrap().unwrap();
        receipt.block_hash = sha256(b"phantom block");
        // Signature breaks too, but the block check alone must reject.
        assert!(client.verify_receipt(&receipt).is_err());
    }

    #[test]
    fn stale_client_rejects_proofs_against_newer_state() {
        let (mut f, client) = synced_world();
        for i in 200..204u64 {
            let req = TxRequest::signed(&f.alice, vec![i as u8], vec![], i);
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        // A proof against the server's *new* root fails the stale client.
        let server_anchor = f.ledger.anchor();
        let (tx_hash, proof) = f.ledger.prove_existence(21, &server_anchor).unwrap();
        assert!(client.verify_existence(&tx_hash, &proof).is_err());
    }

    /// A receipt for `jsn` carrying `tx_hash` and naming `block_hash`,
    /// signed with the ledger's own LSP key — what a lying server that
    /// holds the key can hand out.
    fn lsp_signed(f: &crate::ledger::tests::Fixture, jsn: u64, tx_hash: Digest, block_hash: Digest) -> Receipt {
        let honest = f.ledger.receipt(jsn).unwrap().unwrap();
        let msg = Receipt::signing_digest(jsn, &honest.request_hash, &tx_hash, &block_hash, honest.timestamp);
        Receipt { tx_hash, block_hash, signature: f.ledger.lsp_keys.sign(&msg), ..honest }
    }

    #[test]
    fn receipt_naming_another_block_rejected() {
        // Blocks of 4: jsn 17 sits in block 4, not block 0 (jsns 0-3).
        let (f, client) = synced_world();
        let honest = f.ledger.receipt(17).unwrap().unwrap();
        let block0 = f.ledger.blocks().next().unwrap().hash();
        let forged = lsp_signed(&f, 17, honest.tx_hash, block0);
        assert!(forged.verify(), "the forgery carries a valid LSP signature");
        assert!(matches!(client.verify_receipt(&forged), Err(LedgerError::BadReceipt)));
        client.verify_receipt(&honest).unwrap();
    }

    #[test]
    fn receipt_with_a_never_appended_tx_hash_rejected() {
        let (f, client) = synced_world();
        let honest = f.ledger.receipt(17).unwrap().unwrap();
        let forged = lsp_signed(&f, 17, sha256(b"never appended"), honest.block_hash);
        assert!(forged.verify(), "the forgery carries a valid LSP signature");
        assert!(matches!(client.verify_receipt(&forged), Err(LedgerError::BadReceipt)));
    }

    #[test]
    fn undecodable_bytes_rejected() {
        // Callers decode before verifying; hostile bytes stop at the codec.
        assert!(Receipt::from_wire(b"junk").is_err());
        assert!(FamProof::from_wire(b"junk").is_err());
        assert!(ClueProof::from_wire(b"junk").is_err());
        assert!(StateProof::from_wire(b"junk").is_err());
    }
}
