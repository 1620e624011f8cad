//! A binary Merkle-ized Patricia trie with truncated sibling links.
//!
//! The 16-ary MPT in `crates/mpt` pays up to 15 sibling digests per
//! level in every witness. This crate trades trie arity for witness
//! bytes: keys are routed by the bits of `sha256(key)` (a fixed 256-bit
//! path, so variable-length keys can never be prefixes of each other),
//! path compression skips runs of identical bits (each branch records
//! the bit index it splits on), and a witness carries exactly **one**
//! sibling per branch on the path.
//!
//! Sibling *links* are truncated to 16 bytes: a node's own identity is
//! its full 32-byte SHA-256 hash, but a parent commits only the first
//! 16 bytes of each child hash. The published root stays a full
//! 32-byte digest, so forging a proof still requires a 128-bit
//! second-preimage on an internal link — far beyond brute force, but a
//! weaker margin than the MPT's full-width links. That trade-off is
//! why the binary backend is opt-in (`--state-backend bin`) rather
//! than the default; see DESIGN.md §15.
//!
//! Subtree hashes are memoized per node (`OnceLock`), and inserts
//! rebuild only the descent path, so across seals the unchanged
//! subtrees are never re-hashed: a seal re-hashes only the paths its
//! block touched, on the thread that holds the ledger's write lock.

pub mod proof;
pub mod trie;
pub mod wire;

pub use proof::{verify_bin_proof, BinProof};
pub use trie::{BinTrie, LINK_LEN};

use std::fmt;

/// Errors surfaced by binary-trie operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinTrieError {
    /// The proof failed to reproduce the trusted root.
    ProofMismatch,
    /// The proof was structurally malformed.
    MalformedProof(&'static str),
    /// Key absent where presence was required.
    KeyNotFound,
}

impl fmt::Display for BinTrieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinTrieError::ProofMismatch => {
                write!(f, "binary trie proof does not match trusted root")
            }
            BinTrieError::MalformedProof(w) => write!(f, "malformed binary trie proof: {w}"),
            BinTrieError::KeyNotFound => write!(f, "key not found in binary trie"),
        }
    }
}

impl std::error::Error for BinTrieError {}
