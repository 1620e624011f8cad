//! The Dasein-complete audit (§V).
//!
//! "A Dasein-complete ledger audit passes the entire verification for all
//! Dasein dimensions, i.e., what, when, who" (Definition 1). The audit
//! takes every journal — including purge, occult and time journals — plus
//! the latest LSP receipt, and runs the paper's six steps:
//!
//! 1. prove purge-journal validity (Prerequisite 1 signatures, Π₁) and
//!    occult-journal validity (Prerequisite 2 signatures, Π₂);
//! 2. locate the time journals, prove their signatures, and partition the
//!    blocks into the ranges each one covers;
//! 3. replay each range start-to-end, re-deriving every journal's tx-hash
//!    (using the retained hash for occulted journals, Protocol 2) and the
//!    fam accumulator roots (π_i);
//! 4. verify block-boundary digests across adjacent blocks (π'_i);
//! 5. verify the LSP's latest receipt (Π₃);
//! 6. conjoin: any sub-proof failure terminates the audit as failed.

use crate::ledger::LedgerDb;
use crate::types::JournalKind;
use crate::verify::{self, ChainTip};
use crate::LedgerError;
use ledgerdb_accumulator::fam::FamTree;
use ledgerdb_crypto::ca::Role;
use ledgerdb_crypto::keys::PublicKey;
use ledgerdb_timesvc::clock::Timestamp;

/// What the auditor trusts going in.
#[derive(Clone, Debug, Default)]
pub struct AuditConfig {
    /// TSA public keys the auditor accepts for time-journal attestations.
    pub tsa_keys: Vec<PublicKey>,
    /// The T-Ledger's signing key, when time journals carry notary
    /// receipts.
    pub tledger_key: Option<PublicKey>,
    /// Optional temporal predicate: only audit blocks sealed at or before
    /// this timestamp ("audit all transactions committed before …").
    pub until: Option<Timestamp>,
}

/// The audit's result evidence.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    pub journals_checked: u64,
    pub blocks_checked: u64,
    pub signatures_checked: u64,
    pub purge_journals: u64,
    pub occult_journals: u64,
    pub time_journals: u64,
    /// Block-range partitions induced by the time journals (step 2).
    pub time_ranges: Vec<(u64, u64)>,
}

/// Run the full Dasein-complete audit over a ledger.
///
/// Returns the evidence report, or the first failing step as an error
/// (the early-termination semantics of §V).
pub fn audit_ledger(ledger: &LedgerDb, config: &AuditConfig) -> Result<AuditReport, LedgerError> {
    let mut report = AuditReport::default();

    let block_limit = match config.until {
        Some(t) => ledger.blocks().take_while(|b| b.timestamp <= t).count(),
        None => ledger.sealed.len(),
    };
    // The audited segments: each block with its journals. Auditors see
    // kinds and retained hashes, so the occult retrieval gate is not
    // applied here.
    let segments = &ledger.sealed[..block_limit];
    let journal_limit = crate::snapshot::sealed_count(segments);

    // ------------------------------------------------------------------
    // Step 1: purge (Π₁) and occult (Π₂) journal validity.
    // ------------------------------------------------------------------
    for journal in segments.iter().flat_map(|s| &s.journals) {
        let jsn = journal.jsn;
        match &journal.kind {
            JournalKind::Purge { purge_to, approvals } => {
                let digest = ledger.purge_approval_digest(*purge_to);
                let mut required = ledger.registry().keys_with_role(Role::Dba);
                for pk in ledger.members_before(*purge_to) {
                    if !required.contains(&pk) {
                        required.push(pk);
                    }
                }
                if !approvals.covers(&digest, &required) {
                    return Err(LedgerError::AuditFailed(format!(
                        "purge journal {jsn}: Prerequisite 1 signatures invalid"
                    )));
                }
                report.signatures_checked += approvals.len() as u64;
                report.purge_journals += 1;
            }
            JournalKind::Occult { target, approvals } => {
                let digest = ledger.occult_approval_digest(*target);
                let mut required = ledger.registry().keys_with_role(Role::Dba);
                required.extend(ledger.registry().keys_with_role(Role::Regulator));
                if !approvals.covers(&digest, &required) {
                    return Err(LedgerError::AuditFailed(format!(
                        "occult journal {jsn}: Prerequisite 2 signatures invalid"
                    )));
                }
                report.signatures_checked += approvals.len() as u64;
                report.occult_journals += 1;
            }
            JournalKind::OccultClue { clue, approvals, .. } => {
                let digest = ledger.occult_clue_approval_digest(clue);
                let mut required = ledger.registry().keys_with_role(Role::Dba);
                required.extend(ledger.registry().keys_with_role(Role::Regulator));
                if !approvals.covers(&digest, &required) {
                    return Err(LedgerError::AuditFailed(format!(
                        "occult-by-clue journal {jsn}: Prerequisite 2 signatures invalid"
                    )));
                }
                report.signatures_checked += approvals.len() as u64;
                report.occult_journals += 1;
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Step 2: locate and prove time journals; partition block ranges.
    // ------------------------------------------------------------------
    let mut time_block_bounds = Vec::new();
    for (height, segment) in segments.iter().enumerate() {
        for journal in &segment.journals {
            let jsn = journal.jsn;
            if let JournalKind::Time(receipt) = &journal.kind {
                receipt.verify().map_err(|_| {
                    LedgerError::AuditFailed(format!("time journal {jsn}: bad notary signature"))
                })?;
                if let Some(expected) = &config.tledger_key {
                    if receipt.tledger_key != *expected {
                        return Err(LedgerError::AuditFailed(format!(
                            "time journal {jsn}: unexpected T-Ledger key"
                        )));
                    }
                }
                report.signatures_checked += 1;
                report.time_journals += 1;
                time_block_bounds.push(height as u64);
            }
        }
    }
    // Ranges ℬ₁..ℬₙ: (start, end] block spans between time journals; the
    // tail after the last time journal is audited as a final open range.
    let mut start = 0u64;
    for &bound in &time_block_bounds {
        report.time_ranges.push((start, bound + 1));
        start = bound + 1;
    }
    if start < block_limit as u64 {
        report.time_ranges.push((start, block_limit as u64));
    }

    // ------------------------------------------------------------------
    // Step 3: replay each range (𝒱): re-derive tx-hashes, client
    // signatures (who) and fam roots, block by block.
    // ------------------------------------------------------------------
    let mut replay_fam = FamTree::new(ledger.fam_delta());
    for segment in segments {
        let block = &segment.block;
        for (offset, journal) in segment.journals.iter().enumerate() {
            let jsn = journal.jsn;
            // Protocol 2: for an occulted journal the retained hash stands
            // in for the payload; the record's recomputed tx-hash IS that
            // retained hash, so replay is uniform.
            let tx_hash = journal.tx_hash();
            if block.tx_hashes.get(offset) != Some(&tx_hash) {
                return Err(LedgerError::AuditFailed(format!(
                    "journal {jsn}: tx-hash mismatch against block {}",
                    block.height
                )));
            }
            // who: verify π_c on client journals.
            if let (Some(pk), Some(sig)) = (&journal.client_pk, &journal.client_sig) {
                if !pk.verify(&journal.request_hash, sig) {
                    return Err(LedgerError::AuditFailed(format!(
                        "journal {jsn}: client signature π_c invalid"
                    )));
                }
                report.signatures_checked += 1;
            }
            replay_fam.append(tx_hash);
            report.journals_checked += 1;
        }
        // what: the block's recorded accumulator root must re-derive.
        if replay_fam.root() != block.info.journal_root {
            return Err(LedgerError::AuditFailed(format!(
                "block {}: fam root mismatch on replay",
                block.height
            )));
        }
        report.blocks_checked += 1;
    }

    // ------------------------------------------------------------------
    // Step 4: block boundary verification (𝒱').
    // ------------------------------------------------------------------
    for pair in segments.windows(2) {
        let (prev, next) = (&pair[0].block, &pair[1].block);
        verify::chain(&ChainTip::after(prev), next).map_err(|e| {
            LedgerError::AuditFailed(format!(
                "block boundary {} -> {}: {e}",
                prev.height, next.height
            ))
        })?;
    }

    // ------------------------------------------------------------------
    // Step 5: latest LSP receipt (Π₃).
    // ------------------------------------------------------------------
    if journal_limit > 0 {
        // Find the newest sealed journal with a receipt.
        let mut found = false;
        for jsn in (0..journal_limit).rev() {
            if let Some(receipt) = ledger.receipt(jsn)? {
                if !receipt.verify() || receipt.lsp_pk != *ledger.lsp_public_key() {
                    return Err(LedgerError::AuditFailed(format!(
                        "latest receipt (jsn {jsn}): LSP signature invalid"
                    )));
                }
                report.signatures_checked += 1;
                found = true;
                break;
            }
        }
        if !found {
            return Err(LedgerError::AuditFailed(
                "no sealed receipt available for step 5".to_string(),
            ));
        }
    }

    // Step 6 is the conjunction — reaching here means every π held.
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::tests::fixture;
    use crate::ledger::OccultMode;
    use crate::types::TxRequest;
    use ledgerdb_crypto::multisig::MultiSignature;
    use ledgerdb_timesvc::clock::Clock;
    use ledgerdb_timesvc::tledger::{TLedger, TLedgerConfig};
    use ledgerdb_timesvc::tsa::TsaPool;
    use std::sync::Arc;

    fn populated(block_size: u64, n: u64) -> crate::ledger::tests::Fixture {
        let mut f = fixture(block_size);
        for i in 0..n {
            let req = TxRequest::signed(
                &f.alice,
                format!("payload-{i}").into_bytes(),
                vec![format!("clue-{}", i % 3)],
                i,
            );
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        f
    }

    #[test]
    fn clean_ledger_audits_green() {
        let f = populated(4, 20);
        let report = audit_ledger(&f.ledger, &AuditConfig::default()).unwrap();
        assert_eq!(report.journals_checked, 20);
        assert_eq!(report.blocks_checked, 5);
        assert!(report.signatures_checked >= 21); // 20 π_c + receipt.
    }

    #[test]
    fn audit_covers_occult_and_purge() {
        let mut f = populated(4, 12);
        // Occult journal 3.
        let od = f.ledger.occult_approval_digest(3);
        let mut oms = MultiSignature::new();
        oms.add(&f.dba, &od);
        oms.add(&f.regulator, &od);
        f.ledger.occult(3, oms, OccultMode::Sync).unwrap();
        // Purge to 2.
        let pd = f.ledger.purge_approval_digest(2);
        let mut pms = MultiSignature::new();
        pms.add(&f.dba, &pd);
        pms.add(&f.alice, &pd);
        f.ledger.purge(2, pms, &[], false).unwrap();
        f.ledger.seal_block();

        let report = audit_ledger(&f.ledger, &AuditConfig::default()).unwrap();
        assert_eq!(report.occult_journals, 1);
        assert_eq!(report.purge_journals, 1);
    }

    #[test]
    fn audit_verifies_time_journals_and_partitions() {
        let mut f = populated(4, 8);
        let clock: Arc<dyn Clock> = Arc::clone(f.ledger.clock());
        let pool = Arc::new(TsaPool::new(1, Arc::clone(&clock)));
        let tledger = TLedger::new(TLedgerConfig::default(), clock, pool);
        f.ledger.anchor_time(&tledger).unwrap();
        for i in 100..104u64 {
            let req = TxRequest::signed(&f.alice, b"x".to_vec(), vec![], i);
            f.ledger.append(req).unwrap();
        }
        f.ledger.anchor_time(&tledger).unwrap();
        f.ledger.seal_block();

        let config = AuditConfig {
            tledger_key: Some(*tledger.public_key()),
            ..Default::default()
        };
        let report = audit_ledger(&f.ledger, &config).unwrap();
        assert_eq!(report.time_journals, 2);
        assert!(report.time_ranges.len() >= 2);
    }

    #[test]
    fn audit_detects_wrong_tledger_key() {
        let mut f = populated(4, 4);
        let clock: Arc<dyn Clock> = Arc::clone(f.ledger.clock());
        let pool = Arc::new(TsaPool::new(1, Arc::clone(&clock)));
        let tledger = TLedger::new(TLedgerConfig::default(), clock, pool);
        f.ledger.anchor_time(&tledger).unwrap();
        f.ledger.seal_block();

        let rogue = ledgerdb_crypto::keys::KeyPair::from_seed(b"rogue-tledger");
        let config = AuditConfig { tledger_key: Some(*rogue.public()), ..Default::default() };
        assert!(matches!(
            audit_ledger(&f.ledger, &config),
            Err(LedgerError::AuditFailed(_))
        ));
    }

    #[test]
    fn temporal_predicate_limits_scope() {
        let mut f = populated(2, 4); // 2 blocks at t=0.
        // Advance simulated time, then add more.
        let clock = Arc::clone(f.ledger.clock());
        let sim = clock;
        // The fixture uses SimClock at 0; the ledger's blocks all carry 0.
        // Audit "until 0" must still include them.
        let _ = sim;
        for i in 50..54u64 {
            let req = TxRequest::signed(&f.alice, b"late".to_vec(), vec![], i);
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        let all = audit_ledger(&f.ledger, &AuditConfig::default()).unwrap();
        let limited = audit_ledger(
            &f.ledger,
            &AuditConfig { until: Some(Timestamp(0)), ..Default::default() },
        )
        .unwrap();
        assert!(limited.blocks_checked <= all.blocks_checked);
    }

    #[test]
    fn empty_ledger_audits_trivially() {
        let f = fixture(4);
        let report = audit_ledger(&f.ledger, &AuditConfig::default()).unwrap();
        assert_eq!(report.journals_checked, 0);
        assert_eq!(report.blocks_checked, 0);
    }
}
