//! MPT node kinds and their canonical hashing.
//!
//! Every node memoizes its digest: inserts rebuild only the nodes along
//! the descent path (fresh, empty caches), while untouched subtrees keep
//! their filled caches. Root hashing after an insert therefore costs
//! O(depth), not O(size) — the property that keeps CM-Tree1 insertion
//! cheap (§IV-B3).

use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sha256::{sha256, Sha256};
use std::sync::OnceLock;

/// A trie node: a kind plus its memoized digest.
#[derive(Clone, Debug)]
pub struct Node {
    pub kind: NodeKind,
    hash: OnceLock<Digest>,
}

/// The three MPT node kinds.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// 16-way branch with optional value terminating exactly here.
    Branch {
        children: Box<[Option<Box<Node>>; 16]>,
        value: Option<Vec<u8>>,
    },
    /// Shared nibble run followed by a single child.
    Extension { prefix: Vec<u8>, child: Box<Node> },
    /// Terminal node: residual nibble run plus the value.
    Leaf { suffix: Vec<u8>, value: Vec<u8> },
}

impl Node {
    /// Wrap a kind in a node with an empty hash cache.
    pub fn new(kind: NodeKind) -> Node {
        Node { kind, hash: OnceLock::new() }
    }

    /// Create an empty branch.
    pub fn empty_branch() -> Node {
        Node::new(NodeKind::Branch {
            children: Box::new(std::array::from_fn(|_| None)),
            value: None,
        })
    }

    /// Canonical digest of this node (memoized).
    ///
    /// The encoding is injective per kind: a tag byte, then length-prefixed
    /// components; children contribute their digests, absent children a
    /// zero digest.
    pub fn hash(&self) -> Digest {
        *self.hash.get_or_init(|| match &self.kind {
            NodeKind::Branch { children, value } => {
                branch_digest(|i| children[i].as_ref().map(|c| c.hash()), value.as_deref())
            }
            NodeKind::Extension { prefix, child } => extension_digest(prefix, &child.hash()),
            NodeKind::Leaf { suffix, value } => leaf_digest(suffix, value),
        })
    }

    /// A compact, child-digest-level encoding of this node for proofs:
    /// the same bytes [`Node::hash`] consumes, so a verifier can re-hash
    /// proof nodes without seeing whole subtrees.
    pub fn proof_encoding(&self) -> ProofNode {
        match &self.kind {
            NodeKind::Branch { children, value } => ProofNode::Branch {
                child_hashes: Box::new(std::array::from_fn(|i| {
                    children[i].as_ref().map(|c| c.hash())
                })),
                value: value.clone(),
            },
            NodeKind::Extension { prefix, child } => {
                ProofNode::Extension { prefix: prefix.clone(), child_hash: child.hash() }
            }
            NodeKind::Leaf { suffix, value } => {
                ProofNode::Leaf { suffix: suffix.clone(), value: value.clone() }
            }
        }
    }
}

/// A node as carried inside a proof: children replaced by their digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofNode {
    Branch {
        child_hashes: Box<[Option<Digest>; 16]>,
        value: Option<Vec<u8>>,
    },
    Extension { prefix: Vec<u8>, child_hash: Digest },
    Leaf { suffix: Vec<u8>, value: Vec<u8> },
}

impl ProofNode {
    /// Digest of the proof node — must reproduce the original node's hash.
    pub fn hash(&self) -> Digest {
        match self {
            ProofNode::Branch { child_hashes, value } => {
                branch_digest(|i| child_hashes[i], value.as_deref())
            }
            ProofNode::Extension { prefix, child_hash } => extension_digest(prefix, child_hash),
            ProofNode::Leaf { suffix, value } => leaf_digest(suffix, value),
        }
    }
}

/// Branch digest: tag `0x00`, sixteen child digests (zero when absent),
/// then `0` or `1 ‖ len ‖ value`. The 514-byte prefix has a fixed shape,
/// so it is laid out on the stack and a valueless branch — every branch
/// of a CM-Tree1 or state path — is one one-shot digest.
fn branch_digest(child: impl Fn(usize) -> Option<Digest>, value: Option<&[u8]>) -> Digest {
    let mut pre = [0u8; 1 + 16 * 32 + 1];
    for (i, slot) in pre[1..513].chunks_exact_mut(32).enumerate() {
        if let Some(d) = child(i) {
            slot.copy_from_slice(&d.0);
        }
    }
    let Some(v) = value else {
        return sha256(&pre);
    };
    pre[513] = 1;
    let mut h = Sha256::new();
    h.update(&pre);
    h.update(&(v.len() as u64).to_be_bytes());
    h.update(v);
    Digest(h.finalize())
}

/// Extension digest: tag `0x01`, length-prefixed nibble run, child digest.
fn extension_digest(prefix: &[u8], child: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(&(prefix.len() as u64).to_be_bytes());
    h.update(prefix);
    h.update(&child.0);
    Digest(h.finalize())
}

/// Leaf digest: tag `0x02`, length-prefixed nibble run and value.
fn leaf_digest(suffix: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x02]);
    h.update(&(suffix.len() as u64).to_be_bytes());
    h.update(suffix);
    h.update(&(value.len() as u64).to_be_bytes());
    h.update(value);
    Digest(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(suffix: Vec<u8>, value: &[u8]) -> Node {
        Node::new(NodeKind::Leaf { suffix, value: value.to_vec() })
    }

    #[test]
    fn proof_encoding_hash_matches_node_hash() {
        let l = leaf(vec![1, 2, 3], b"v");
        assert_eq!(l.hash(), l.proof_encoding().hash());

        let ext = Node::new(NodeKind::Extension { prefix: vec![4, 5], child: Box::new(l.clone()) });
        assert_eq!(ext.hash(), ext.proof_encoding().hash());

        let mut branch = Node::empty_branch();
        if let NodeKind::Branch { children, value } = &mut branch.kind {
            children[3] = Some(Box::new(l));
            *value = Some(b"bv".to_vec());
        }
        assert_eq!(branch.hash(), branch.proof_encoding().hash());
    }

    #[test]
    fn different_nodes_different_hashes() {
        let a = leaf(vec![1], b"x");
        let b = leaf(vec![1], b"y");
        let c = leaf(vec![2], b"x");
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn branch_child_position_matters() {
        let l = leaf(vec![], b"v");
        let mut b1 = Node::empty_branch();
        let mut b2 = Node::empty_branch();
        if let NodeKind::Branch { children, .. } = &mut b1.kind {
            children[0] = Some(Box::new(l.clone()));
        }
        if let NodeKind::Branch { children, .. } = &mut b2.kind {
            children[1] = Some(Box::new(l));
        }
        assert_ne!(b1.hash(), b2.hash());
    }

    #[test]
    fn hash_is_memoized_and_stable() {
        let l = leaf(vec![7], b"stable");
        let h1 = l.hash();
        let h2 = l.hash();
        assert_eq!(h1, h2);
        // A clone of an already-hashed node keeps the same digest.
        assert_eq!(l.clone().hash(), h1);
    }
}
