//! Verifiable N-lineage: clues and the structures that index them (§IV).
//!
//! A *clue* is a user-defined label ("DCI001") that threads a business
//! lineage through the ledger: every related journal is appended with the
//! clue, and clue-oriented verification validates *all* relevant journals
//! — including their count — in one shot.
//!
//! Three implementations are provided, matching the paper's evaluation:
//!
//! * [`cm_tree`] — the paper's contribution: a two-layer *clue merged
//!   tree*. `CM-Tree1` is an MPT keyed by `sha3(clue)`; each leaf value
//!   commits the clue's own `CM-Tree2` Shrubs accumulator. Verification
//!   cost is `O(m)` in the clue's entry count, independent of total
//!   ledger size (Fig 9).
//! * [`ccmpt`] — the earlier *clue-counter MPT* baseline: the MPT stores
//!   only a counter `m`; each of the `m` journals must additionally be
//!   proven against the global ledger accumulator, costing
//!   `O(m · log n)`.
//! * [`csl`] — the write-optimized clue SkipList index of the earlier
//!   paper: O(1) appends and `O(log n)` reads, no native verification.

pub mod ccmpt;
pub mod cm_tree;
pub mod csl;
pub mod error;
pub mod wire;

pub use ccmpt::{CcMpt, CcMptProof};
pub use cm_tree::{ClueProof, CmRoot, CmTree};
pub use csl::ClueSkipList;
pub use error::ClueError;

use ledgerdb_crypto::{sha3_256, Digest};

/// Scatter a client-specified clue string into a balanced 32-byte trie key
/// (the paper uses SHA-3 "to avoid excessive compression and keep the tree
/// balanced", §IV-B2).
pub fn clue_key(clue: &str) -> Digest {
    sha3_256(clue.as_bytes())
}
