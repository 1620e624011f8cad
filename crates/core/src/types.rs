//! Core ledger data types: journals, blocks, receipts, requests.

use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::ecdsa::Signature;
use ledgerdb_crypto::keys::{KeyPair, PublicKey};
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_crypto::sha256::Sha256;
use ledgerdb_timesvc::clock::Timestamp;
use ledgerdb_timesvc::tledger::NotaryReceipt;

/// Where π_c (the client signature) is checked before a request reaches
/// the commit path.
///
/// The paper's deployment (Fig 1) fronts the ledger server with a proxy
/// fleet that authenticates clients. A server trusting its proxy tier
/// skips the per-request ECDSA verify — the dominant CPU cost of an
/// append — while membership is still enforced at commit. A server
/// exposed directly to clients must verify.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Verify membership + π_c on every append (direct-to-client
    /// deployment; the default).
    #[default]
    Verify,
    /// Trust that an upstream proxy tier verified π_c; enforce only
    /// membership (Fig-1 deployment behind authenticated proxies).
    ProxyTrusted,
}

/// The kind of a journal entry.
///
/// Mutation variants are much larger than `Normal`, but journals are
/// heap-stored once and never moved in bulk, so boxing would only add
/// indirection on the audit path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JournalKind {
    /// An ordinary client transaction.
    Normal,
    /// A time journal: a T-Ledger notary receipt anchored back (π_t).
    Time(NotaryReceipt),
    /// A purge journal: erases journals `[prev_genesis, purge_to)`.
    Purge { purge_to: u64, approvals: MultiSignature },
    /// An occult journal: hides journal `target`, retaining its hash.
    Occult { target: u64, approvals: MultiSignature },
    /// An occult-by-clue journal: hides every journal recorded under
    /// `clue` at execution time (the paper's "occult by clue is a common
    /// case" for the asynchronous variant, §III-A3).
    OccultClue { clue: String, targets: Vec<u64>, approvals: MultiSignature },
}

impl JournalKind {
    fn tag(&self) -> u8 {
        match self {
            JournalKind::Normal => 0,
            JournalKind::Time(_) => 1,
            JournalKind::Purge { .. } => 2,
            JournalKind::Occult { .. } => 3,
            JournalKind::OccultClue { .. } => 4,
        }
    }
}

/// A journal entry: the server-side record of one transaction.
#[derive(Clone, Debug)]
pub struct Journal {
    /// Unique incremental journal sequence number.
    pub jsn: u64,
    pub kind: JournalKind,
    /// Clues this journal participates in (N-lineage labels).
    pub clues: Vec<String>,
    /// Digest of the payload held in the stream store.
    pub payload_digest: Digest,
    /// The client's request hash (what π_c signs).
    pub request_hash: Digest,
    /// Issuing member's public key (None for system journals).
    pub client_pk: Option<PublicKey>,
    /// The client's signature π_c over `request_hash`.
    pub client_sig: Option<Signature>,
    /// Server-assigned timestamp.
    pub timestamp: Timestamp,
    /// Slot in the payload stream store.
    pub stream_index: u64,
}

impl Journal {
    /// The server-side `tx-hash`: the digest accumulated into the fam tree
    /// and retained verbatim for occulted journals (Protocol 2).
    pub fn tx_hash(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.journal.v1");
        h.update(&self.jsn.to_be_bytes());
        h.update(&[self.kind.tag()]);
        h.update(&(self.clues.len() as u32).to_be_bytes());
        for c in &self.clues {
            h.update(&(c.len() as u64).to_be_bytes());
            h.update(c.as_bytes());
        }
        h.update(&self.payload_digest.0);
        h.update(&self.request_hash.0);
        match &self.client_pk {
            Some(pk) => {
                h.update(&[1]);
                h.update(&pk.to_bytes());
            }
            None => h.update(&[0]),
        }
        match &self.client_sig {
            Some(sig) => {
                h.update(&[1]);
                h.update(&sig.to_bytes());
            }
            None => h.update(&[0]),
        }
        h.update(&self.timestamp.0.to_be_bytes());
        Digest(h.finalize())
    }
}

/// Per-block ledger snapshot: the roots a verifier pins (Fig 2's
/// LedgerInfo).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerInfo {
    /// fam journal-accumulator root after the block's last journal.
    pub journal_root: Digest,
    /// CM-Tree1 root (clue accumulator snapshot).
    pub clue_root: Digest,
    /// World-state root.
    pub state_root: Digest,
}

/// A sealed block.
#[derive(Debug)]
pub struct Block {
    pub height: u64,
    /// jsn of the first journal in this block.
    pub first_jsn: u64,
    /// Number of journals in this block.
    pub journal_count: u64,
    pub info: LedgerInfo,
    pub prev_block_hash: Digest,
    pub timestamp: Timestamp,
    /// tx-hashes of the block's journals in order (for replay audits).
    pub tx_hashes: Vec<Digest>,
    /// Memoized [`Block::hash`]. A sealed block is immutable, so the
    /// digest is computed once on first demand — the seal path, the
    /// snapshot publisher and the block feed all read the same cell
    /// instead of re-walking `tx_hashes`.
    pub(crate) cached_hash: std::sync::OnceLock<Digest>,
}

/// Clone resets the memo: the fields are `pub`, so a clone may be
/// mutated (tests do exactly that) and must not inherit a stale digest.
impl Clone for Block {
    fn clone(&self) -> Block {
        Block {
            height: self.height,
            first_jsn: self.first_jsn,
            journal_count: self.journal_count,
            info: self.info,
            prev_block_hash: self.prev_block_hash,
            timestamp: self.timestamp,
            tx_hashes: self.tx_hashes.clone(),
            cached_hash: std::sync::OnceLock::new(),
        }
    }
}

/// Count of full block-header hash computations (cache misses) in this
/// process. Lets tests pin that a chain of N blocks hashes each header
/// exactly once no matter how many paths ask for the digest.
static BLOCK_HASH_COMPUTATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// See [`BLOCK_HASH_COMPUTATIONS`]. Process-global; single-process
/// tests only.
pub fn block_hash_computations() -> u64 {
    BLOCK_HASH_COMPUTATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

impl Block {
    pub(crate) fn new(
        height: u64,
        first_jsn: u64,
        journal_count: u64,
        info: LedgerInfo,
        prev_block_hash: Digest,
        timestamp: Timestamp,
        tx_hashes: Vec<Digest>,
    ) -> Block {
        Block {
            height,
            first_jsn,
            journal_count,
            info,
            prev_block_hash,
            timestamp,
            tx_hashes,
            cached_hash: std::sync::OnceLock::new(),
        }
    }

    /// The block hash linking consecutive blocks (memoized).
    pub fn hash(&self) -> Digest {
        *self.cached_hash.get_or_init(|| self.compute_hash())
    }

    fn compute_hash(&self) -> Digest {
        BLOCK_HASH_COMPUTATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut h = Sha256::new();
        h.update(b"ledgerdb.block.v1");
        h.update(&self.height.to_be_bytes());
        h.update(&self.first_jsn.to_be_bytes());
        h.update(&self.journal_count.to_be_bytes());
        h.update(&self.info.journal_root.0);
        h.update(&self.info.clue_root.0);
        h.update(&self.info.state_root.0);
        h.update(&self.prev_block_hash.0);
        h.update(&self.timestamp.0.to_be_bytes());
        for t in &self.tx_hashes {
            h.update(&t.0);
        }
        Digest(h.finalize())
    }
}

/// A client transaction request (what arrives at the ledger proxy).
#[derive(Clone, Debug)]
pub struct TxRequest {
    pub payload: Vec<u8>,
    pub clues: Vec<String>,
    /// Anti-replay nonce chosen by the client.
    pub nonce: u64,
    pub client_pk: PublicKey,
    /// π_c: signature over [`TxRequest::request_hash`].
    pub signature: Signature,
}

impl TxRequest {
    /// The request hash covering payload + metadata (ledger URI analogue
    /// is the ledger id mixed in by the server).
    pub fn request_hash(payload: &[u8], clues: &[String], nonce: u64, pk: &PublicKey) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.request.v1");
        h.update(&(payload.len() as u64).to_be_bytes());
        h.update(payload);
        h.update(&(clues.len() as u32).to_be_bytes());
        for c in clues {
            h.update(&(c.len() as u64).to_be_bytes());
            h.update(c.as_bytes());
        }
        h.update(&nonce.to_be_bytes());
        h.update(&pk.to_bytes());
        Digest(h.finalize())
    }

    /// Build and sign a request with the member's key pair.
    pub fn signed(keys: &KeyPair, payload: Vec<u8>, clues: Vec<String>, nonce: u64) -> TxRequest {
        let hash = Self::request_hash(&payload, &clues, nonce, keys.public());
        TxRequest {
            payload,
            clues,
            nonce,
            client_pk: *keys.public(),
            signature: keys.sign(&hash),
        }
    }

    /// Recompute this request's hash.
    pub fn hash(&self) -> Digest {
        Self::request_hash(&self.payload, &self.clues, self.nonce, &self.client_pk)
    }

    /// Verify π_c.
    pub fn verify_signature(&self) -> bool {
        self.client_pk.verify(&self.hash(), &self.signature)
    }
}

/// The LSP-signed receipt π_s the client keeps externally (§III-C): all
/// three digests plus jsn and timestamp.
#[derive(Clone, Copy, Debug)]
pub struct Receipt {
    pub jsn: u64,
    pub request_hash: Digest,
    pub tx_hash: Digest,
    pub block_hash: Digest,
    pub timestamp: Timestamp,
    pub lsp_pk: PublicKey,
    pub signature: Signature,
}

impl Receipt {
    /// The digest the LSP signs.
    pub fn signing_digest(
        jsn: u64,
        request_hash: &Digest,
        tx_hash: &Digest,
        block_hash: &Digest,
        timestamp: Timestamp,
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.receipt.v1");
        h.update(&jsn.to_be_bytes());
        h.update(&request_hash.0);
        h.update(&tx_hash.0);
        h.update(&block_hash.0);
        h.update(&timestamp.0.to_be_bytes());
        Digest(h.finalize())
    }

    /// Verify the LSP signature π_s.
    pub fn verify(&self) -> bool {
        let msg = Self::signing_digest(
            self.jsn,
            &self.request_hash,
            &self.tx_hash,
            &self.block_hash,
            self.timestamp,
        );
        self.lsp_pk.verify(&msg, &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::sha256;

    #[test]
    fn request_sign_verify() {
        let keys = KeyPair::from_seed(b"member");
        let req = TxRequest::signed(&keys, b"payload".to_vec(), vec!["clue".into()], 7);
        assert!(req.verify_signature());
    }

    #[test]
    fn tampered_request_detected() {
        let keys = KeyPair::from_seed(b"member");
        let mut req = TxRequest::signed(&keys, b"payload".to_vec(), vec![], 7);
        req.payload = b"tampered".to_vec();
        assert!(!req.verify_signature());
    }

    #[test]
    fn journal_tx_hash_covers_fields() {
        let keys = KeyPair::from_seed(b"m");
        let base = Journal {
            jsn: 1,
            kind: JournalKind::Normal,
            clues: vec!["c".into()],
            payload_digest: sha256(b"p"),
            request_hash: sha256(b"r"),
            client_pk: Some(*keys.public()),
            client_sig: None,
            timestamp: Timestamp(5),
            stream_index: 0,
        };
        let mut changed = base.clone();
        changed.timestamp = Timestamp(6);
        assert_ne!(base.tx_hash(), changed.tx_hash());
        let mut changed2 = base.clone();
        changed2.clues = vec!["d".into()];
        assert_ne!(base.tx_hash(), changed2.tx_hash());
    }

    #[test]
    fn block_hash_links() {
        let info = LedgerInfo {
            journal_root: sha256(b"j"),
            clue_root: sha256(b"c"),
            state_root: sha256(b"s"),
        };
        let b1 = Block::new(
            0,
            0,
            2,
            info,
            Digest::ZERO,
            Timestamp(1),
            vec![sha256(b"t0"), sha256(b"t1")],
        );
        let mut b2 = b1.clone();
        b2.height = 1;
        b2.prev_block_hash = b1.hash();
        assert_ne!(b1.hash(), b2.hash());
        assert_eq!(b2.prev_block_hash, b1.hash());
    }

    #[test]
    fn receipt_round_trip() {
        let lsp = KeyPair::from_seed(b"lsp");
        let msg = Receipt::signing_digest(3, &sha256(b"r"), &sha256(b"t"), &sha256(b"b"), Timestamp(9));
        let receipt = Receipt {
            jsn: 3,
            request_hash: sha256(b"r"),
            tx_hash: sha256(b"t"),
            block_hash: sha256(b"b"),
            timestamp: Timestamp(9),
            lsp_pk: *lsp.public(),
            signature: lsp.sign(&msg),
        };
        assert!(receipt.verify());
        let mut forged = receipt;
        forged.jsn = 4;
        assert!(!forged.verify());
    }
}
