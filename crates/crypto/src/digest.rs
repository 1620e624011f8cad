//! The 32-byte digest type shared by every ledger structure, plus the
//! domain-separated Merkle hashing helpers used by all accumulators.

use crate::sha256::{digest_padded, Sha256};
use std::fmt;

/// A 32-byte cryptographic digest (SHA-256 or SHA3-256 output).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a placeholder (e.g. empty-tree root).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Construct from raw bytes.
    pub const fn new(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// View as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse from a 64-character hex string.
    pub fn from_hex(hex: &str) -> Option<Self> {
        let hex = hex.trim();
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// True when every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// First 8 bytes interpreted big-endian — handy for cheap ordering in
    /// tests and workload generators.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Domain separator for leaf hashes in Merkle structures.
const LEAF_TAG: u8 = 0x00;
/// Domain separator for internal-node hashes in Merkle structures.
const NODE_TAG: u8 = 0x01;

/// Hash a leaf payload with the leaf domain tag.
///
/// Domain separation prevents an internal node from being replayed as a
/// leaf (a classic second-preimage weakness in untagged Merkle trees).
pub fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(data);
    Digest(h.finalize())
}

/// Hash two child digests into a parent digest with the node domain tag.
///
/// The preimage is always 65 bytes, so the padded message is exactly two
/// blocks of known shape: laid out once on the stack and compressed in
/// one call, with no hasher state, buffering or length bookkeeping.
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut padded = [0u8; 128];
    padded[0] = NODE_TAG;
    padded[1..33].copy_from_slice(&left.0);
    padded[33..65].copy_from_slice(&right.0);
    padded[65] = 0x80;
    padded[126..].copy_from_slice(&(65u16 * 8).to_be_bytes());
    Digest(digest_padded(&padded))
}

/// Hash an ordered list of digests (used to "bag" accumulator frontiers).
pub fn hash_many(items: &[Digest]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    for d in items {
        h.update(&d.0);
    }
    Digest(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let d = hash_leaf(b"foobar");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(d, parsed);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"zz".repeat(32)).is_none());
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf hash of (l || r) must differ from the pair hash of l and r.
        let l = hash_leaf(b"l");
        let r = hash_leaf(b"r");
        let mut concat = Vec::new();
        concat.extend_from_slice(l.as_bytes());
        concat.extend_from_slice(r.as_bytes());
        assert_ne!(hash_leaf(&concat), hash_pair(&l, &r));
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }

    #[test]
    fn zero_digest() {
        assert!(Digest::ZERO.is_zero());
        assert!(!hash_leaf(b"x").is_zero());
    }
}
