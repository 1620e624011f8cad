//! The trie itself: insert/get, root hashing, proof generation.

use crate::nibble::{common_prefix_len, to_nibbles};
use crate::node::{Node, NodeKind, ProofNode};
use crate::proof::{MptAbsenceProof, MptProof};
use crate::MptError;
use ledgerdb_crypto::digest::Digest;

/// A Merkle Patricia Trie mapping byte keys to byte values.
///
/// The paper's CM-Tree1 keeps a configurable number of top layers cached
/// in memory with lower layers on disk; this implementation is fully
/// in-memory but exposes [`Mpt::node_count_by_depth`] so the bench suite
/// can report the cache-size trade-off (the "top 6-layers caching cost is
/// around 512MB" discussion of §IV-B2). Node digests are memoized, so
/// inserts cost O(depth) hashing and [`Mpt::root_hash`] is O(1) between
/// mutations.
#[derive(Clone, Debug, Default)]
pub struct Mpt {
    root: Option<Box<Node>>,
    len: usize,
}

impl Mpt {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root digest of the current trie state ([`Digest::ZERO`] when empty).
    pub fn root_hash(&self) -> Digest {
        self.root.as_ref().map(|n| n.hash()).unwrap_or(Digest::ZERO)
    }

    /// Insert or replace `key → value`. Returns the previous value.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        let nibbles = to_nibbles(key);
        let root = self.root.take();
        let (new_root, old) = Self::insert_at(root, &nibbles, value);
        self.root = Some(new_root);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(
        node: Option<Box<Node>>,
        path: &[u8],
        value: Vec<u8>,
    ) -> (Box<Node>, Option<Vec<u8>>) {
        let Some(node) = node else {
            return (
                Box::new(Node::new(NodeKind::Leaf { suffix: path.to_vec(), value })),
                None,
            );
        };
        match node.kind {
            NodeKind::Leaf { suffix, value: old_value } => {
                if suffix == path {
                    return (
                        Box::new(Node::new(NodeKind::Leaf { suffix, value })),
                        Some(old_value),
                    );
                }
                let cp = common_prefix_len(&suffix, path);
                // Split into a branch under a possible shared extension.
                let mut branch = Node::empty_branch();
                {
                    let NodeKind::Branch { children, value: bval } = &mut branch.kind else {
                        unreachable!()
                    };
                    if suffix.len() == cp {
                        *bval = Some(old_value);
                    } else {
                        let idx = suffix[cp] as usize;
                        children[idx] = Some(Box::new(Node::new(NodeKind::Leaf {
                            suffix: suffix[cp + 1..].to_vec(),
                            value: old_value,
                        })));
                    }
                    if path.len() == cp {
                        *bval = Some(value);
                    } else {
                        let idx = path[cp] as usize;
                        children[idx] = Some(Box::new(Node::new(NodeKind::Leaf {
                            suffix: path[cp + 1..].to_vec(),
                            value,
                        })));
                    }
                }
                let new_node = if cp > 0 {
                    Box::new(Node::new(NodeKind::Extension {
                        prefix: path[..cp].to_vec(),
                        child: Box::new(branch),
                    }))
                } else {
                    Box::new(branch)
                };
                (new_node, None)
            }
            NodeKind::Extension { prefix, child } => {
                let cp = common_prefix_len(&prefix, path);
                if cp == prefix.len() {
                    // Full prefix match: descend.
                    let (new_child, old) = Self::insert_at(Some(child), &path[cp..], value);
                    return (
                        Box::new(Node::new(NodeKind::Extension { prefix, child: new_child })),
                        old,
                    );
                }
                // Partial match: split the extension.
                let mut branch = Node::empty_branch();
                {
                    let NodeKind::Branch { children, value: bval } = &mut branch.kind else {
                        unreachable!()
                    };
                    // The existing subtree hangs under its next nibble.
                    let ext_idx = prefix[cp] as usize;
                    let rest = prefix[cp + 1..].to_vec();
                    children[ext_idx] = Some(if rest.is_empty() {
                        child
                    } else {
                        Box::new(Node::new(NodeKind::Extension { prefix: rest, child }))
                    });
                    // The new key hangs under its nibble (or lands on the branch).
                    if path.len() == cp {
                        *bval = Some(value);
                    } else {
                        let idx = path[cp] as usize;
                        children[idx] = Some(Box::new(Node::new(NodeKind::Leaf {
                            suffix: path[cp + 1..].to_vec(),
                            value,
                        })));
                    }
                }
                let new_node = if cp > 0 {
                    Box::new(Node::new(NodeKind::Extension {
                        prefix: path[..cp].to_vec(),
                        child: Box::new(branch),
                    }))
                } else {
                    Box::new(branch)
                };
                (new_node, None)
            }
            NodeKind::Branch { mut children, value: bval } => {
                if path.is_empty() {
                    let old = bval;
                    return (
                        Box::new(Node::new(NodeKind::Branch { children, value: Some(value) })),
                        old,
                    );
                }
                let idx = path[0] as usize;
                let (new_child, old) = Self::insert_at(children[idx].take(), &path[1..], value);
                children[idx] = Some(new_child);
                (
                    Box::new(Node::new(NodeKind::Branch { children, value: bval })),
                    old,
                )
            }
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let nibbles = to_nibbles(key);
        let mut node = self.root.as_deref()?;
        let mut path: &[u8] = &nibbles;
        loop {
            match &node.kind {
                NodeKind::Leaf { suffix, value } => {
                    return if suffix.as_slice() == path { Some(value) } else { None };
                }
                NodeKind::Extension { prefix, child } => {
                    if path.len() < prefix.len() || &path[..prefix.len()] != prefix.as_slice() {
                        return None;
                    }
                    path = &path[prefix.len()..];
                    node = child;
                }
                NodeKind::Branch { children, value } => {
                    if path.is_empty() {
                        return value.as_deref();
                    }
                    node = children[path[0] as usize].as_deref()?;
                    path = &path[1..];
                }
            }
        }
    }

    /// Produce an inclusion proof for `key`.
    pub fn prove(&self, key: &[u8]) -> Result<MptProof, MptError> {
        let nibbles = to_nibbles(key);
        let mut nodes: Vec<ProofNode> = Vec::new();
        let mut node = self.root.as_deref().ok_or(MptError::KeyNotFound)?;
        let mut path: &[u8] = &nibbles;
        loop {
            nodes.push(node.proof_encoding());
            match &node.kind {
                NodeKind::Leaf { suffix, value } => {
                    if suffix.as_slice() == path {
                        return Ok(MptProof { key: key.to_vec(), value: value.clone(), nodes });
                    }
                    return Err(MptError::KeyNotFound);
                }
                NodeKind::Extension { prefix, child } => {
                    if path.len() < prefix.len() || &path[..prefix.len()] != prefix.as_slice() {
                        return Err(MptError::KeyNotFound);
                    }
                    path = &path[prefix.len()..];
                    node = child;
                }
                NodeKind::Branch { children, value } => {
                    if path.is_empty() {
                        let v = value.as_ref().ok_or(MptError::KeyNotFound)?;
                        return Ok(MptProof { key: key.to_vec(), value: v.clone(), nodes });
                    }
                    node = children[path[0] as usize]
                        .as_deref()
                        .ok_or(MptError::KeyNotFound)?;
                    path = &path[1..];
                }
            }
        }
    }

    /// Produce an absence proof for `key` (errors if the key is
    /// present): the committed path down to the node where the key's
    /// nibble walk diverges from the trie.
    pub fn prove_absence(&self, key: &[u8]) -> Result<MptAbsenceProof, MptError> {
        let nibbles = to_nibbles(key);
        let mut nodes: Vec<ProofNode> = Vec::new();
        let Some(mut node) = self.root.as_deref() else {
            // Empty trie: absence is trivial (root == ZERO).
            return Ok(MptAbsenceProof { key: key.to_vec(), nodes });
        };
        let mut path: &[u8] = &nibbles;
        loop {
            nodes.push(node.proof_encoding());
            match &node.kind {
                NodeKind::Leaf { suffix, .. } => {
                    return if suffix.as_slice() == path {
                        Err(MptError::KeyPresent)
                    } else {
                        Ok(MptAbsenceProof { key: key.to_vec(), nodes })
                    };
                }
                NodeKind::Extension { prefix, child } => {
                    if path.len() < prefix.len() || &path[..prefix.len()] != prefix.as_slice() {
                        return Ok(MptAbsenceProof { key: key.to_vec(), nodes });
                    }
                    path = &path[prefix.len()..];
                    node = child;
                }
                NodeKind::Branch { children, value } => {
                    if path.is_empty() {
                        return if value.is_some() {
                            Err(MptError::KeyPresent)
                        } else {
                            Ok(MptAbsenceProof { key: key.to_vec(), nodes })
                        };
                    }
                    match children[path[0] as usize].as_deref() {
                        Some(child) => {
                            node = child;
                            path = &path[1..];
                        }
                        None => return Ok(MptAbsenceProof { key: key.to_vec(), nodes }),
                    }
                }
            }
        }
    }

    /// Count nodes per depth level — used to model the paper's top-layer
    /// memory cache sizing.
    pub fn node_count_by_depth(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        fn walk(node: &Node, depth: usize, counts: &mut Vec<usize>) {
            if counts.len() <= depth {
                counts.resize(depth + 1, 0);
            }
            counts[depth] += 1;
            match &node.kind {
                NodeKind::Branch { children, .. } => {
                    for c in children.iter().flatten() {
                        walk(c, depth + 1, counts);
                    }
                }
                NodeKind::Extension { child, .. } => walk(child, depth + 1, counts),
                NodeKind::Leaf { .. } => {}
            }
        }
        if let Some(root) = &self.root {
            walk(root, 0, &mut counts);
        }
        counts
    }

    /// Iterate all `(key-nibbles, value)` pairs (test/debug helper).
    pub fn iter_values(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        fn walk(node: &Node, prefix: Vec<u8>, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
            match &node.kind {
                NodeKind::Leaf { suffix, value } => {
                    let mut k = prefix;
                    k.extend_from_slice(suffix);
                    out.push((k, value.clone()));
                }
                NodeKind::Extension { prefix: p, child } => {
                    let mut k = prefix;
                    k.extend_from_slice(p);
                    walk(child, k, out);
                }
                NodeKind::Branch { children, value } => {
                    if let Some(v) = value {
                        out.push((prefix.clone(), v.clone()));
                    }
                    for (i, c) in children.iter().enumerate() {
                        if let Some(c) = c {
                            let mut k = prefix.clone();
                            k.push(i as u8);
                            walk(c, k, out);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, Vec::new(), &mut out);
        }
        out
    }

    /// Iterate all `(byte key, value)` pairs, sorted by key. Every key
    /// entered through [`Mpt::insert`] splits into an even number of
    /// nibbles, so packing is total; the sort makes the listing canonical
    /// for checkpoint serialization. Rebuilding a trie by re-inserting
    /// these pairs reproduces the same root (insertion-order independent).
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = self
            .iter_values()
            .into_iter()
            .map(|(nibbles, value)| {
                debug_assert!(nibbles.len() % 2 == 0, "byte-derived keys have even nibble count");
                let key = nibbles.chunks(2).map(|p| (p[0] << 4) | p[1]).collect();
                (key, value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::verify_proof;
    use ledgerdb_crypto::sha3_256;

    #[test]
    fn insert_get_simple() {
        let mut t = Mpt::new();
        t.insert(b"clue1", b"v1".to_vec());
        t.insert(b"clue2", b"v2".to_vec());
        assert_eq!(t.get(b"clue1"), Some(b"v1".as_ref()));
        assert_eq!(t.get(b"clue2"), Some(b"v2".as_ref()));
        assert_eq!(t.get(b"clue3"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overwrite_returns_old() {
        let mut t = Mpt::new();
        assert_eq!(t.insert(b"k", b"v1".to_vec()), None);
        assert_eq!(t.insert(b"k", b"v2".to_vec()), Some(b"v1".to_vec()));
        assert_eq!(t.get(b"k"), Some(b"v2".as_ref()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn root_changes_with_content() {
        let mut t = Mpt::new();
        let r0 = t.root_hash();
        t.insert(b"a", b"1".to_vec());
        let r1 = t.root_hash();
        t.insert(b"b", b"2".to_vec());
        let r2 = t.root_hash();
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let mut t1 = Mpt::new();
        let mut t2 = Mpt::new();
        let keys: Vec<Digest> = (0..50u64).map(|i| sha3_256(&i.to_be_bytes())).collect();
        for k in &keys {
            t1.insert(k.as_bytes(), k.0.to_vec());
        }
        for k in keys.iter().rev() {
            t2.insert(k.as_bytes(), k.0.to_vec());
        }
        assert_eq!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn cached_root_tracks_mutation() {
        // The memoized hash must never go stale across inserts.
        let mut t = Mpt::new();
        let mut roots = Vec::new();
        for i in 0..64u64 {
            let k = sha3_256(&i.to_be_bytes());
            t.insert(k.as_bytes(), i.to_be_bytes().to_vec());
            let r = t.root_hash();
            assert_eq!(r, t.root_hash(), "repeat hash stable at {i}");
            roots.push(r);
        }
        // All roots distinct (every insert changed the trie).
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), 64);
        // Rebuilding from scratch reproduces the same final root.
        let mut fresh = Mpt::new();
        for i in 0..64u64 {
            let k = sha3_256(&i.to_be_bytes());
            fresh.insert(k.as_bytes(), i.to_be_bytes().to_vec());
        }
        assert_eq!(fresh.root_hash(), t.root_hash());
    }

    #[test]
    fn prove_verify_hashed_keys() {
        let mut t = Mpt::new();
        let keys: Vec<Digest> = (0..200u64).map(|i| sha3_256(&i.to_be_bytes())).collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k.as_bytes(), format!("value-{i}").into_bytes());
        }
        let root = t.root_hash();
        for (i, k) in keys.iter().enumerate() {
            let proof = t.prove(k.as_bytes()).unwrap();
            assert_eq!(proof.value, format!("value-{i}").into_bytes());
            verify_proof(&root, &proof).unwrap_or_else(|e| panic!("key {i}: {e}"));
        }
    }

    #[test]
    fn prove_missing_key_errors() {
        let mut t = Mpt::new();
        t.insert(b"exists", b"v".to_vec());
        assert_eq!(t.prove(b"missing").unwrap_err(), MptError::KeyNotFound);
    }

    #[test]
    fn proof_fails_against_wrong_root() {
        let mut t = Mpt::new();
        t.insert(b"k1", b"v1".to_vec());
        let proof = t.prove(b"k1").unwrap();
        t.insert(b"k2", b"v2".to_vec());
        assert_eq!(verify_proof(&t.root_hash(), &proof), Err(MptError::ProofMismatch));
    }

    #[test]
    fn tampered_value_fails() {
        let mut t = Mpt::new();
        t.insert(b"k1", b"v1".to_vec());
        t.insert(b"k2", b"v2".to_vec());
        let root = t.root_hash();
        let mut proof = t.prove(b"k1").unwrap();
        proof.value = b"forged".to_vec();
        assert!(verify_proof(&root, &proof).is_err());
    }

    #[test]
    fn shared_prefix_keys_split_correctly() {
        let mut t = Mpt::new();
        t.insert(b"\x11\x22\x33", b"a".to_vec());
        t.insert(b"\x11\x22\x44", b"b".to_vec());
        t.insert(b"\x11\x55\x00", b"c".to_vec());
        assert_eq!(t.get(b"\x11\x22\x33"), Some(b"a".as_ref()));
        assert_eq!(t.get(b"\x11\x22\x44"), Some(b"b".as_ref()));
        assert_eq!(t.get(b"\x11\x55\x00"), Some(b"c".as_ref()));
        let root = t.root_hash();
        for k in [b"\x11\x22\x33".as_ref(), b"\x11\x22\x44".as_ref(), b"\x11\x55\x00".as_ref()] {
            verify_proof(&root, &t.prove(k).unwrap()).unwrap();
        }
    }

    #[test]
    fn key_prefix_of_another_key() {
        // "ab" is a nibble-prefix of "abc": exercises branch values.
        let mut t = Mpt::new();
        t.insert(b"ab", b"short".to_vec());
        t.insert(b"abc", b"long".to_vec());
        assert_eq!(t.get(b"ab"), Some(b"short".as_ref()));
        assert_eq!(t.get(b"abc"), Some(b"long".as_ref()));
        let root = t.root_hash();
        verify_proof(&root, &t.prove(b"ab").unwrap()).unwrap();
        verify_proof(&root, &t.prove(b"abc").unwrap()).unwrap();
    }

    #[test]
    fn depth_histogram_nonempty() {
        let mut t = Mpt::new();
        for i in 0..100u64 {
            let k = sha3_256(&i.to_be_bytes());
            t.insert(k.as_bytes(), vec![0u8; 8]);
        }
        let counts = t.node_count_by_depth();
        assert_eq!(counts[0], 1);
        assert!(counts.iter().sum::<usize>() >= 100);
    }

    #[test]
    fn iter_values_returns_all() {
        let mut t = Mpt::new();
        for i in 0..20u64 {
            let k = sha3_256(&i.to_be_bytes());
            t.insert(k.as_bytes(), i.to_be_bytes().to_vec());
        }
        assert_eq!(t.iter_values().len(), 20);
    }
}
