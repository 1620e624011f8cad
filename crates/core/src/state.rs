//! Pluggable state commitment: the world-state layer behind a common
//! trait, with two interchangeable backends.
//!
//! * [`StateBackend::Mpt`] — the inherited 16-ary Merkle Patricia trie
//!   (`crates/mpt`). Fat witnesses (up to 15 sibling digests per
//!   level) but full-width internal links. **Default**: byte-identical
//!   roots, blocks and fingerprints to every pre-trait ledger.
//! * [`StateBackend::Bin`] — the binary Merkle-ized Patricia trie
//!   (`crates/bintrie`): one truncated sibling link per level, ~4-8x
//!   smaller witnesses, opt-in via `--state-backend bin`.
//!
//! Everything above this module speaks [`WorldState`] and
//! [`StateProof`]; nothing else in the kernel names a concrete trie.
//! The checkpoint segment format is backend-independent (canonical
//! sorted `(key, value)` pairs), so checkpoints migrate across
//! backends — only the committed roots differ.

use ledgerdb_bintrie::{BinProof, BinTrie};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::wire::{Reader, Wire, WireError, Writer};
use ledgerdb_mpt::{Mpt, MptAbsenceProof, MptProof};
use std::fmt;
use std::str::FromStr;

/// Which commitment structure anchors the world state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StateBackend {
    /// 16-ary Merkle Patricia trie (the pre-trait default).
    #[default]
    Mpt,
    /// Binary Merkle-ized Patricia trie with truncated sibling links.
    Bin,
}

impl StateBackend {
    /// Stable lowercase name — flag values, metric labels, JSON keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            StateBackend::Mpt => "mpt",
            StateBackend::Bin => "bin",
        }
    }
}

impl fmt::Display for StateBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for StateBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mpt" => Ok(StateBackend::Mpt),
            "bin" => Ok(StateBackend::Bin),
            other => Err(format!("unknown state backend {other:?} (expected mpt|bin)")),
        }
    }
}

/// What a state commitment must provide to the ledger kernel: keyed
/// upserts, a root digest, inclusion *and* absence witnesses, and
/// canonical entries for checkpoint segments.
pub trait StateCommitment {
    /// Insert or replace `key → value`; returns the previous value.
    fn insert_kv(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>>;
    /// Look up a key.
    fn get_kv(&self, key: &[u8]) -> Option<&[u8]>;
    /// The committed root ([`Digest::ZERO`] when empty).
    fn commitment_root(&self) -> Digest;
    /// Build a witness: inclusion if the key is present, absence
    /// otherwise. Wire-codable; verified by [`crate::verify::verify_state_proof`].
    fn prove_kv(&self, key: &[u8]) -> StateProof;
    /// All `(key, value)` pairs sorted by key bytes — the canonical
    /// checkpoint-segment order, identical across backends.
    fn canonical_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)>;
    /// Number of keys.
    fn key_count(&self) -> usize;
}

impl StateCommitment for Mpt {
    fn insert_kv(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        self.insert(key, value)
    }

    fn get_kv(&self, key: &[u8]) -> Option<&[u8]> {
        self.get(key)
    }

    fn commitment_root(&self) -> Digest {
        self.root_hash()
    }

    fn prove_kv(&self, key: &[u8]) -> StateProof {
        if self.get(key).is_some() {
            StateProof::MptPresent(self.prove(key).expect("present key must prove"))
        } else {
            StateProof::MptAbsent(self.prove_absence(key).expect("absent key must prove absence"))
        }
    }

    fn canonical_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.entries()
    }

    fn key_count(&self) -> usize {
        self.len()
    }
}

impl StateCommitment for BinTrie {
    fn insert_kv(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        self.insert(key, value)
    }

    fn get_kv(&self, key: &[u8]) -> Option<&[u8]> {
        self.get(key)
    }

    fn commitment_root(&self) -> Digest {
        self.root_hash()
    }

    fn prove_kv(&self, key: &[u8]) -> StateProof {
        let proof = self.prove(key);
        if proof.is_inclusion() {
            StateProof::BinPresent(proof)
        } else {
            StateProof::BinAbsent(proof)
        }
    }

    fn canonical_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.entries()
    }

    fn key_count(&self) -> usize {
        self.len()
    }
}

/// The ledger's world state: one of the two backends, chosen at
/// construction ([`crate::LedgerConfig::state_backend`]) and fixed for
/// the ledger's lifetime.
pub enum WorldState {
    Mpt(Mpt),
    Bin(BinTrie),
}

impl WorldState {
    /// An empty world state on the given backend.
    pub fn new(backend: StateBackend) -> Self {
        match backend {
            StateBackend::Mpt => WorldState::Mpt(Mpt::new()),
            StateBackend::Bin => WorldState::Bin(BinTrie::new()),
        }
    }

    /// Which backend this state runs on.
    pub fn backend(&self) -> StateBackend {
        match self {
            WorldState::Mpt(_) => StateBackend::Mpt,
            WorldState::Bin(_) => StateBackend::Bin,
        }
    }
}

impl StateCommitment for WorldState {
    fn insert_kv(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        match self {
            WorldState::Mpt(t) => t.insert_kv(key, value),
            WorldState::Bin(t) => t.insert_kv(key, value),
        }
    }

    fn get_kv(&self, key: &[u8]) -> Option<&[u8]> {
        match self {
            WorldState::Mpt(t) => t.get_kv(key),
            WorldState::Bin(t) => t.get_kv(key),
        }
    }

    fn commitment_root(&self) -> Digest {
        match self {
            WorldState::Mpt(t) => t.commitment_root(),
            WorldState::Bin(t) => t.commitment_root(),
        }
    }

    fn prove_kv(&self, key: &[u8]) -> StateProof {
        match self {
            WorldState::Mpt(t) => t.prove_kv(key),
            WorldState::Bin(t) => t.prove_kv(key),
        }
    }

    fn canonical_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            WorldState::Mpt(t) => t.canonical_entries(),
            WorldState::Bin(t) => t.canonical_entries(),
        }
    }

    fn key_count(&self) -> usize {
        match self {
            WorldState::Mpt(t) => t.key_count(),
            WorldState::Bin(t) => t.key_count(),
        }
    }
}

/// A backend-tagged world-state witness: inclusion or absence, MPT or
/// binary. Wire-transient (served per request, never persisted), so
/// the four-tag envelope can evolve without fingerprint impact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateProof {
    MptPresent(MptProof),
    MptAbsent(MptAbsenceProof),
    BinPresent(BinProof),
    BinAbsent(BinProof),
}

impl StateProof {
    /// Which backend produced this witness.
    pub fn backend(&self) -> StateBackend {
        match self {
            StateProof::MptPresent(_) | StateProof::MptAbsent(_) => StateBackend::Mpt,
            StateProof::BinPresent(_) | StateProof::BinAbsent(_) => StateBackend::Bin,
        }
    }

    /// The value this witness claims, without verifying anything:
    /// `Some` for inclusion shapes, `None` for absence shapes.
    pub fn claimed_value(&self) -> Option<&[u8]> {
        match self {
            StateProof::MptPresent(p) => Some(&p.value),
            StateProof::MptAbsent(_) => None,
            StateProof::BinPresent(p) => p.value(),
            StateProof::BinAbsent(_) => None,
        }
    }

    /// The key the witness speaks about.
    pub fn key(&self) -> &[u8] {
        match self {
            StateProof::MptPresent(p) => &p.key,
            StateProof::MptAbsent(p) => &p.key,
            StateProof::BinPresent(p) | StateProof::BinAbsent(p) => &p.key,
        }
    }
}

impl Wire for StateProof {
    fn encode(&self, w: &mut Writer) {
        match self {
            StateProof::MptPresent(p) => {
                w.put_u8(0);
                p.encode(w);
            }
            StateProof::MptAbsent(p) => {
                w.put_u8(1);
                p.encode(w);
            }
            StateProof::BinPresent(p) => {
                w.put_u8(2);
                p.encode(w);
            }
            StateProof::BinAbsent(p) => {
                w.put_u8(3);
                p.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(StateProof::MptPresent(MptProof::decode(r)?)),
            1 => Ok(StateProof::MptAbsent(MptAbsenceProof::decode(r)?)),
            2 => Ok(StateProof::BinPresent(BinProof::decode(r)?)),
            3 => Ok(StateProof::BinAbsent(BinProof::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_state_proof;

    fn populated(backend: StateBackend) -> WorldState {
        let mut ws = WorldState::new(backend);
        for i in 0..200u64 {
            let key = ledgerdb_crypto::sha3_256(&i.to_be_bytes());
            ws.insert_kv(key.as_bytes(), format!("v{i}").into_bytes());
        }
        ws
    }

    #[test]
    fn both_backends_prove_and_verify() {
        for backend in [StateBackend::Mpt, StateBackend::Bin] {
            let ws = populated(backend);
            let root = ws.commitment_root();
            let present = ledgerdb_crypto::sha3_256(&7u64.to_be_bytes());
            let proof = ws.prove_kv(present.as_bytes());
            assert_eq!(proof.backend(), backend);
            let value = verify_state_proof(&root, &proof).unwrap();
            assert_eq!(value, Some(b"v7".as_slice()), "{backend}: inclusion");
            let absent = ledgerdb_crypto::sha3_256(&900u64.to_be_bytes());
            let proof = ws.prove_kv(absent.as_bytes());
            assert_eq!(verify_state_proof(&root, &proof).unwrap(), None, "{backend}: absence");
        }
    }

    #[test]
    fn state_proof_wire_round_trip() {
        for backend in [StateBackend::Mpt, StateBackend::Bin] {
            let ws = populated(backend);
            let root = ws.commitment_root();
            for probe in [7u64, 900] {
                let key = ledgerdb_crypto::sha3_256(&probe.to_be_bytes());
                let proof = ws.prove_kv(key.as_bytes());
                let decoded = StateProof::from_wire(&proof.to_wire()).unwrap();
                assert_eq!(decoded, proof);
                verify_state_proof(&root, &decoded).unwrap();
            }
        }
    }

    #[test]
    fn canonical_entries_identical_across_backends() {
        let a = populated(StateBackend::Mpt);
        let b = populated(StateBackend::Bin);
        assert_eq!(a.canonical_entries(), b.canonical_entries());
        assert_ne!(a.commitment_root(), b.commitment_root(), "roots are backend-specific");
    }

    #[test]
    fn backend_parses() {
        assert_eq!("mpt".parse::<StateBackend>().unwrap(), StateBackend::Mpt);
        assert_eq!("bin".parse::<StateBackend>().unwrap(), StateBackend::Bin);
        assert!("verkle".parse::<StateBackend>().is_err());
        assert_eq!(StateBackend::default(), StateBackend::Mpt);
    }

    #[test]
    fn mismatched_tag_rejected() {
        let ws = populated(StateBackend::Bin);
        let root = ws.commitment_root();
        let present = ledgerdb_crypto::sha3_256(&7u64.to_be_bytes());
        let StateProof::BinPresent(p) = ws.prove_kv(present.as_bytes()) else {
            panic!("expected inclusion shape");
        };
        // Re-tag the same proof as an absence claim: rejected even
        // though the hash chain verifies.
        let retagged = StateProof::BinAbsent(p);
        assert!(verify_state_proof(&root, &retagged).is_err());
    }
}
