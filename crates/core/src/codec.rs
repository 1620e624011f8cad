//! Wire encodings for core ledger types.
//!
//! These are the record formats every persistent and networked layer
//! shares: the metadata WAL and the checkpoint segments
//! ([`crate::recovery`], [`crate::checkpoint`]) store [`Journal`]s and
//! [`Block`]s in exactly this encoding, and the wire protocol ships
//! them (plus [`Receipt`]s and requests) to distrusting clients.

use crate::types::{Block, Journal, JournalKind, LedgerInfo, Receipt};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::ecdsa::Signature;
use ledgerdb_crypto::keys::PublicKey;
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_crypto::wire::{Reader, Wire, WireError, Writer};
use ledgerdb_timesvc::clock::Timestamp;
use ledgerdb_timesvc::tledger::NotaryReceipt;

impl Wire for JournalKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalKind::Normal => w.put_u8(0),
            JournalKind::Time(receipt) => {
                w.put_u8(1);
                receipt.encode(w);
            }
            JournalKind::Purge { purge_to, approvals } => {
                w.put_u8(2);
                w.put_u64(*purge_to);
                approvals.encode(w);
            }
            JournalKind::Occult { target, approvals } => {
                w.put_u8(3);
                w.put_u64(*target);
                approvals.encode(w);
            }
            JournalKind::OccultClue { clue, targets, approvals } => {
                w.put_u8(4);
                clue.encode(w);
                targets.encode(w);
                approvals.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(JournalKind::Normal),
            1 => Ok(JournalKind::Time(NotaryReceipt::decode(r)?)),
            2 => Ok(JournalKind::Purge {
                purge_to: r.get_u64()?,
                approvals: MultiSignature::decode(r)?,
            }),
            3 => Ok(JournalKind::Occult {
                target: r.get_u64()?,
                approvals: MultiSignature::decode(r)?,
            }),
            4 => Ok(JournalKind::OccultClue {
                clue: String::decode(r)?,
                targets: Vec::decode(r)?,
                approvals: MultiSignature::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Journal {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.jsn);
        self.kind.encode(w);
        self.clues.encode(w);
        self.payload_digest.encode(w);
        self.request_hash.encode(w);
        self.client_pk.encode(w);
        self.client_sig.encode(w);
        self.timestamp.encode(w);
        w.put_u64(self.stream_index);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Journal {
            jsn: r.get_u64()?,
            kind: JournalKind::decode(r)?,
            clues: Vec::decode(r)?,
            payload_digest: Digest::decode(r)?,
            request_hash: Digest::decode(r)?,
            client_pk: Option::<PublicKey>::decode(r)?,
            client_sig: Option::<Signature>::decode(r)?,
            timestamp: Timestamp::decode(r)?,
            stream_index: r.get_u64()?,
        })
    }
}

impl Wire for LedgerInfo {
    fn encode(&self, w: &mut Writer) {
        self.journal_root.encode(w);
        self.clue_root.encode(w);
        self.state_root.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LedgerInfo {
            journal_root: Digest::decode(r)?,
            clue_root: Digest::decode(r)?,
            state_root: Digest::decode(r)?,
        })
    }
}

impl Wire for Block {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.height);
        w.put_u64(self.first_jsn);
        w.put_u64(self.journal_count);
        self.info.encode(w);
        self.prev_block_hash.encode(w);
        self.timestamp.encode(w);
        self.tx_hashes.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block::new(
            r.get_u64()?,
            r.get_u64()?,
            r.get_u64()?,
            LedgerInfo::decode(r)?,
            Digest::decode(r)?,
            Timestamp::decode(r)?,
            Vec::decode(r)?,
        ))
    }
}

impl Wire for Receipt {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.jsn);
        self.request_hash.encode(w);
        self.tx_hash.encode(w);
        self.block_hash.encode(w);
        self.timestamp.encode(w);
        self.lsp_pk.encode(w);
        self.signature.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Receipt {
            jsn: r.get_u64()?,
            request_hash: Digest::decode(r)?,
            tx_hash: Digest::decode(r)?,
            block_hash: Digest::decode(r)?,
            timestamp: Timestamp::decode(r)?,
            lsp_pk: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Wire for crate::types::TxRequest {
    fn encode(&self, w: &mut Writer) {
        self.payload.encode(w);
        self.clues.encode(w);
        w.put_u64(self.nonce);
        self.client_pk.encode(w);
        self.signature.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(crate::types::TxRequest {
            payload: Vec::<u8>::decode(r)?,
            clues: Vec::decode(r)?,
            nonce: r.get_u64()?,
            client_pk: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::tests::fixture;
    use crate::types::TxRequest;

    #[test]
    fn journal_kinds_round_trip() {
        let keys = ledgerdb_crypto::keys::KeyPair::from_seed(b"codec");
        let msg = ledgerdb_crypto::sha256(b"m");
        let mut ms = MultiSignature::new();
        ms.add(&keys, &msg);
        let kinds = [
            JournalKind::Normal,
            JournalKind::Purge { purge_to: 7, approvals: ms.clone() },
            JournalKind::Occult { target: 3, approvals: ms.clone() },
            JournalKind::OccultClue { clue: "c".into(), targets: vec![1, 2], approvals: ms },
        ];
        for kind in kinds {
            let bytes = kind.to_wire();
            let decoded = JournalKind::from_wire(&bytes).unwrap();
            // Tags and re-encoding must agree (no PartialEq on the enum).
            assert_eq!(decoded.to_wire(), bytes);
        }
    }

    #[test]
    fn journal_and_block_round_trip() {
        let mut f = fixture(4);
        for i in 0..6u64 {
            let req = TxRequest::signed(&f.alice, vec![i as u8], vec!["c".into()], i);
            f.ledger.append(req).unwrap();
        }
        f.ledger.seal_block();
        let journal = f.ledger.get_tx(2).unwrap().clone();
        let decoded = Journal::from_wire(&journal.to_wire()).unwrap();
        assert_eq!(decoded.tx_hash(), journal.tx_hash());
        let block = f.ledger.blocks().next().unwrap().clone();
        let decoded = Block::from_wire(&block.to_wire()).unwrap();
        assert_eq!(decoded.hash(), block.hash());
    }

    #[test]
    fn receipt_round_trip() {
        let mut f = fixture(2);
        let req = TxRequest::signed(&f.alice, b"r".to_vec(), vec![], 0);
        let receipt = f.ledger.append_committed(req).unwrap();
        let decoded = Receipt::from_wire(&receipt.to_wire()).unwrap();
        assert!(decoded.verify());
    }
}
