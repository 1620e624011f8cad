//! The binary Patricia trie: routing, path-copy updates, subtree hash
//! caching, and proof construction.

use crate::proof::BinProof;
use crate::BinTrieError;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sha256::{sha256, Sha256};
use std::sync::OnceLock;

/// Bytes of a child hash a parent branch commits to (truncated link).
pub const LINK_LEN: usize = 16;

/// Routing-path length in bits (`sha256(key)` output).
pub const PATH_BITS: u32 = 256;

/// Bit `i` (MSB-first) of a 32-byte routing hash.
#[inline]
pub(crate) fn path_bit(hash: &[u8; 32], i: u32) -> bool {
    (hash[(i / 8) as usize] >> (7 - (i % 8))) & 1 == 1
}

/// The routing hash of a key.
#[inline]
pub(crate) fn route(key: &[u8]) -> [u8; 32] {
    sha256(key).0
}

enum NodeKind {
    /// Splits the keyspace on routing bit `bit`: keys with bit 0 go
    /// left, bit 1 right. Bit indices strictly increase top-down, and
    /// both children are always present (path compression guarantees
    /// no one-child branches).
    Branch { bit: u32, left: Box<Node>, right: Box<Node> },
    /// Terminal node: the full key and value (the routing hash is
    /// recomputed on demand, never stored).
    Leaf { key: Vec<u8>, value: Vec<u8> },
}

struct Node {
    kind: NodeKind,
    hash: OnceLock<Digest>,
}

impl Node {
    fn new(kind: NodeKind) -> Self {
        Node { kind, hash: OnceLock::new() }
    }

    /// Full 32-byte node hash, memoized. A branch commits only the
    /// first [`LINK_LEN`] bytes of each child hash plus the split bit;
    /// a leaf commits its full key and value, length-prefixed.
    fn hash(&self) -> Digest {
        *self.hash.get_or_init(|| match &self.kind {
            NodeKind::Leaf { key, value } => leaf_hash(key, value),
            NodeKind::Branch { bit, left, right } => {
                branch_hash(*bit, &link(&left.hash()), &link(&right.hash()))
            }
        })
    }
}

/// Combine a parent hash from a split bit and two child links. This is
/// the only hashing rule proof verification needs.
pub(crate) fn branch_hash(bit: u32, left: &[u8; LINK_LEN], right: &[u8; LINK_LEN]) -> Digest {
    // Fixed 37-byte preimage: one one-shot, single-block digest.
    let mut pre = [0u8; 1 + 4 + 2 * LINK_LEN];
    pre[0] = 0x01;
    pre[1..5].copy_from_slice(&bit.to_be_bytes());
    pre[5..5 + LINK_LEN].copy_from_slice(left);
    pre[5 + LINK_LEN..].copy_from_slice(right);
    sha256(&pre)
}

/// Leaf hash over a key/value pair (shared with proof verification).
pub(crate) fn leaf_hash(key: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&(key.len() as u64).to_be_bytes());
    h.update(key);
    h.update(&(value.len() as u64).to_be_bytes());
    h.update(value);
    Digest(h.finalize())
}

#[inline]
pub(crate) fn link(d: &Digest) -> [u8; LINK_LEN] {
    let mut out = [0u8; LINK_LEN];
    out.copy_from_slice(&d.0[..LINK_LEN]);
    out
}

/// A binary Merkle-ized Patricia trie keyed by `sha256(key)` bits.
#[derive(Default)]
pub struct BinTrie {
    root: Option<Box<Node>>,
    len: usize,
}

impl BinTrie {
    pub fn new() -> Self {
        BinTrie { root: None, len: 0 }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The committed root: full 32-byte hash of the root node, or
    /// [`Digest::ZERO`] for the empty trie.
    pub fn root_hash(&self) -> Digest {
        self.root.as_ref().map(|n| n.hash()).unwrap_or(Digest::ZERO)
    }

    /// Insert or replace `key → value`. Returns the previous value.
    /// Only nodes on the descent path get fresh (empty) hash caches;
    /// every untouched subtree keeps its memoized hash, so the next
    /// seal re-hashes O(path) nodes.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        let path = route(key);
        let root = self.root.take();
        let (new_root, old) = Self::insert_at(root, &path, key, value);
        self.root = Some(new_root);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(
        node: Option<Box<Node>>,
        path: &[u8; 32],
        key: &[u8],
        value: Vec<u8>,
    ) -> (Box<Node>, Option<Vec<u8>>) {
        let Some(node) = node else {
            return (
                Box::new(Node::new(NodeKind::Leaf { key: key.to_vec(), value })),
                None,
            );
        };
        // Find where the new key diverges from this subtree. Every key
        // below `node` agrees on all routing bits above it, so probing
        // any resident leaf gives the shared prefix.
        let resident = Self::any_leaf_route(&node);
        let diverge = first_diff_bit(&resident, path);
        match (diverge, node.kind) {
            (None, NodeKind::Leaf { key: old_key, value: old_value }) => {
                debug_assert_eq!(old_key, key, "equal routing hashes must mean equal keys");
                (
                    Box::new(Node::new(NodeKind::Leaf { key: old_key, value })),
                    Some(old_value),
                )
            }
            (None, NodeKind::Branch { bit, left, right }) => {
                // The probe's route equals the new key's route yet a
                // branch exists below — only possible under a sha256
                // collision. Keep descending to stay total.
                let go_right = path_bit(path, bit);
                let (left, right, old) = if go_right {
                    let (r, old) = Self::insert_at(Some(right), path, key, value);
                    (left, r, old)
                } else {
                    let (l, old) = Self::insert_at(Some(left), path, key, value);
                    (l, right, old)
                };
                (Box::new(Node::new(NodeKind::Branch { bit, left, right })), old)
            }
            (Some(d), NodeKind::Branch { bit, left, right }) if bit <= d => {
                // The branch splits at or above the divergence point:
                // the new key still routes through it. (At `bit == d`
                // the probed leftmost leaf sits left, the new key goes
                // right — still a plain descent.) Keys below agree with
                // the probe on every bit above `bit`, so divergence
                // strictly below `bit` re-derives on the way down.
                let go_right = path_bit(path, bit);
                let (left, right, old) = if go_right {
                    let (r, old) = Self::insert_at(Some(right), path, key, value);
                    (left, r, old)
                } else {
                    let (l, old) = Self::insert_at(Some(left), path, key, value);
                    (l, right, old)
                };
                (Box::new(Node::new(NodeKind::Branch { bit, left, right })), old)
            }
            (Some(d), kind) => {
                // Diverges before this node's split (or at a leaf):
                // graft a new branch at bit `d` with the old subtree on
                // one side and a fresh leaf on the other.
                let old_subtree = Box::new(Node { kind, hash: OnceLock::new() });
                let new_leaf = Box::new(Node::new(NodeKind::Leaf { key: key.to_vec(), value }));
                let (left, right) = if path_bit(path, d) {
                    (old_subtree, new_leaf)
                } else {
                    (new_leaf, old_subtree)
                };
                (Box::new(Node::new(NodeKind::Branch { bit: d, left, right })), None)
            }
        }
    }

    /// The routing hash of an arbitrary leaf in `node`'s subtree
    /// (leftmost descent — O(depth), no hashing).
    fn any_leaf_route(node: &Node) -> [u8; 32] {
        let mut cur = node;
        loop {
            match &cur.kind {
                NodeKind::Leaf { key, .. } => return route(key),
                NodeKind::Branch { left, .. } => cur = left,
            }
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let path = route(key);
        let mut cur = self.root.as_deref()?;
        loop {
            match &cur.kind {
                NodeKind::Leaf { key: k, value } => {
                    return (k.as_slice() == key).then_some(value.as_slice());
                }
                NodeKind::Branch { bit, left, right } => {
                    cur = if path_bit(&path, *bit) { right } else { left };
                }
            }
        }
    }

    /// Remove a key. Returns the previous value. The orphaned sibling
    /// collapses into its grandparent (no one-child branches survive),
    /// keeping its cached subtree hash.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let path = route(key);
        let root = self.root.take()?;
        let (new_root, old) = Self::remove_at(root, &path, key);
        self.root = new_root;
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn remove_at(
        node: Box<Node>,
        path: &[u8; 32],
        key: &[u8],
    ) -> (Option<Box<Node>>, Option<Vec<u8>>) {
        match node.kind {
            NodeKind::Leaf { key: k, value } => {
                if k == key {
                    (None, Some(value))
                } else {
                    (Some(Box::new(Node::new(NodeKind::Leaf { key: k, value }))), None)
                }
            }
            NodeKind::Branch { bit, left, right } => {
                if path_bit(path, bit) {
                    let (right, old) = Self::remove_at(right, path, key);
                    match right {
                        Some(right) => (
                            Some(Box::new(Node::new(NodeKind::Branch { bit, left, right }))),
                            old,
                        ),
                        None => (Some(left), old),
                    }
                } else {
                    let (left, old) = Self::remove_at(left, path, key);
                    match left {
                        Some(left) => (
                            Some(Box::new(Node::new(NodeKind::Branch { bit, left, right }))),
                            old,
                        ),
                        None => (Some(right), old),
                    }
                }
            }
        }
    }

    /// All `(key, value)` pairs, sorted by key bytes — the canonical
    /// order checkpoint segments use, identical across state backends.
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            Self::collect_entries(root, &mut out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn collect_entries(node: &Node, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
        match &node.kind {
            NodeKind::Leaf { key, value } => out.push((key.clone(), value.clone())),
            NodeKind::Branch { left, right, .. } => {
                Self::collect_entries(left, out);
                Self::collect_entries(right, out);
            }
        }
    }

    /// Build a witness for `key`: inclusion if present, absence
    /// otherwise. Both shapes carry the leaf actually reached by
    /// routing plus one [`LINK_LEN`]-byte sibling link per branch,
    /// positions recorded in a 256-bit bitmap.
    pub fn prove(&self, key: &[u8]) -> BinProof {
        let path = route(key);
        let mut bitmap = [0u8; 32];
        let mut siblings: Vec<[u8; LINK_LEN]> = Vec::new();
        let Some(mut cur) = self.root.as_deref() else {
            return BinProof { key: key.to_vec(), leaf: None, bitmap, siblings };
        };
        loop {
            match &cur.kind {
                NodeKind::Leaf { key: k, value } => {
                    return BinProof {
                        key: key.to_vec(),
                        leaf: Some((k.clone(), value.clone())),
                        bitmap,
                        siblings,
                    };
                }
                NodeKind::Branch { bit, left, right } => {
                    bitmap[(bit / 8) as usize] |= 1 << (7 - (bit % 8));
                    let (next, sib) = if path_bit(&path, *bit) {
                        (right, left)
                    } else {
                        (left, right)
                    };
                    siblings.push(link(&sib.hash()));
                    cur = next;
                }
            }
        }
    }

    /// Inclusion proof for a key that must be present.
    pub fn prove_existing(&self, key: &[u8]) -> Result<BinProof, BinTrieError> {
        let proof = self.prove(key);
        match &proof.leaf {
            Some((k, _)) if k.as_slice() == key => Ok(proof),
            _ => Err(BinTrieError::KeyNotFound),
        }
    }
}

/// First bit index (MSB-first) where two routing hashes differ.
fn first_diff_bit(a: &[u8; 32], b: &[u8; 32]) -> Option<u32> {
    for i in 0..32 {
        let x = a[i] ^ b[i];
        if x != 0 {
            return Some(i as u32 * 8 + x.leading_zeros());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keyed(n: u64) -> (Vec<u8>, Vec<u8>) {
        (format!("key-{n}").into_bytes(), format!("value-{n}").into_bytes())
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(BinTrie::new().root_hash(), Digest::ZERO);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = BinTrie::new();
        for n in 0..200u64 {
            let (k, v) = keyed(n);
            assert_eq!(t.insert(&k, v.clone()), None);
            assert_eq!(t.get(&k), Some(v.as_slice()));
        }
        assert_eq!(t.len(), 200);
        let (k, _) = keyed(7);
        assert_eq!(t.insert(&k, b"new".to_vec()), Some(b"value-7".to_vec()));
        assert_eq!(t.len(), 200);
        assert_eq!(t.get(&k), Some(b"new".as_slice()));
        assert_eq!(t.get(b"missing"), None);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let mut a = BinTrie::new();
        let mut b = BinTrie::new();
        for n in 0..64u64 {
            let (k, v) = keyed(n);
            a.insert(&k, v);
        }
        for n in (0..64u64).rev() {
            let (k, v) = keyed(n);
            b.insert(&k, v);
        }
        assert_eq!(a.root_hash(), b.root_hash());
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn remove_collapses_and_matches_fresh_build() {
        let mut t = BinTrie::new();
        for n in 0..64u64 {
            let (k, v) = keyed(n);
            t.insert(&k, v);
        }
        for n in (0..64u64).step_by(2) {
            let (k, v) = keyed(n);
            assert_eq!(t.remove(&k), Some(v));
        }
        assert_eq!(t.remove(b"missing"), None);
        let mut fresh = BinTrie::new();
        for n in (1..64u64).step_by(2) {
            let (k, v) = keyed(n);
            fresh.insert(&k, v);
        }
        assert_eq!(t.len(), fresh.len());
        assert_eq!(t.root_hash(), fresh.root_hash());
    }

    #[test]
    fn entries_sorted_by_key_matches_model() {
        let mut t = BinTrie::new();
        let mut model = BTreeMap::new();
        for n in 0..120u64 {
            let (k, v) = keyed(n * 7919 % 997);
            t.insert(&k, v.clone());
            model.insert(k, v);
        }
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(t.entries(), expect);
    }
}
