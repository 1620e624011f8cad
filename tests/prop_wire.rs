//! Property-based tests for the wire codec: round trips for every
//! transportable type under arbitrary content, and total decoding on
//! arbitrary byte soup (no panics, ever).
//!
//! Cases come from the deterministic in-repo harness
//! (`ledgerdb_bench::cases`); see that module for the seeding scheme.

use ledgerdb::accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb::accumulator::shrubs::{Shrubs, ShrubsBatchProof, ShrubsProof};
use ledgerdb::clue::cm_tree::{ClueProof, CmTree};
use ledgerdb::core::checkpoint::{decode_aux, decode_cm, decode_fam};
use ledgerdb::core::{
    Block, CheckpointManifest, Journal, LedgerConfig, LedgerDb, MemberRegistry, Receipt, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::wire::Wire;
use ledgerdb::crypto::{hash_leaf, Digest};
use ledgerdb::mpt::{Mpt, MptProof};
use ledgerdb::storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb::timesvc::tsa::TimeAttestation;
use ledgerdb_bench::cases::run_cases;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the bytes the *current thread* requests from the heap, so a
/// test can bound what one decoder call allocates while the harness
/// runs other tests on other threads.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn note_request(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears its
    // locals down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a `Cell<u64>` thread-local with a const
// initializer and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the heap bytes this thread
/// requested meanwhile.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Shrubs/fam proofs round trip for arbitrary tree sizes and targets.
#[test]
fn accumulator_proofs_round_trip() {
    run_cases("accumulator proofs round trip", 48, |g| {
        let n = g.in_range(1..=119);
        let delta = g.in_range(1..=5) as u32;
        let leaves: Vec<Digest> = (0..n).map(|i| hash_leaf(&i.to_be_bytes())).collect();
        let mut s = Shrubs::new();
        let mut fam = FamTree::new(delta);
        for l in &leaves {
            s.append(*l);
            fam.append(*l);
        }
        let i = g.below(n);
        let sp = s.prove(i).unwrap();
        let decoded = ShrubsProof::from_wire(&sp.to_wire()).unwrap();
        assert!(Shrubs::verify(&s.root(), &leaves[i as usize], &decoded).is_ok());

        let anchor = TrustedAnchor::default();
        let fp = fam.prove(i, &anchor).unwrap();
        let decoded = FamProof::from_wire(&fp.to_wire()).unwrap();
        assert!(FamTree::verify(&fam.root(), &anchor, &leaves[i as usize], &decoded).is_ok());

        let bp = s.prove_batch(&[i]).unwrap();
        let decoded = ShrubsBatchProof::from_wire(&bp.to_wire()).unwrap();
        assert!(Shrubs::verify_batch(&s.root(), &[(i, leaves[i as usize])], &decoded).is_ok());
    });
}

/// MPT and clue proofs round trip under arbitrary key populations.
#[test]
fn trie_and_clue_proofs_round_trip() {
    run_cases("trie and clue proofs round trip", 48, |g| {
        let n = g.in_range(1..=59);
        let mut mpt = Mpt::new();
        for i in 0..n {
            let k = ledgerdb::crypto::sha3_256(&i.to_be_bytes());
            mpt.insert(k.as_bytes(), i.to_be_bytes().to_vec());
        }
        let i = g.below(n);
        let k = ledgerdb::crypto::sha3_256(&i.to_be_bytes());
        let proof = mpt.prove(k.as_bytes()).unwrap();
        let decoded = MptProof::from_wire(&proof.to_wire()).unwrap();
        assert!(ledgerdb::mpt::verify_proof(&mpt.root_hash(), &decoded).is_ok());

        let mut cm = CmTree::new();
        for j in 0..n {
            cm.append("k", j, hash_leaf(&j.to_be_bytes()));
        }
        let cp = cm.prove_all("k").unwrap();
        let decoded = ClueProof::from_wire(&cp.to_wire()).unwrap();
        assert!(CmTree::verify_client(&cm.root(), &decoded).is_ok());
    });
}

/// Arbitrary byte soup never panics any decoder — it errors or, for
/// self-delimiting inputs that happen to parse, verifies falsely.
#[test]
fn decoders_are_total() {
    run_cases("decoders are total", 48, |g| {
        let bytes = g.bytes(0..=599);
        let _ = ShrubsProof::from_wire(&bytes);
        let _ = ShrubsBatchProof::from_wire(&bytes);
        let _ = FamProof::from_wire(&bytes);
        let _ = MptProof::from_wire(&bytes);
        let _ = ClueProof::from_wire(&bytes);
        let _ = TimeAttestation::from_wire(&bytes);
        let _ = Journal::from_wire(&bytes);
        let _ = Block::from_wire(&bytes);
        let _ = Receipt::from_wire(&bytes);
    });
}

/// A real checkpoint of a small ledger with every kind of state in it
/// (clues, an occult mark, a purge with a pinned survivor): the
/// manifest bytes and each segment's bytes, by role.
fn exported_checkpoint() -> Vec<(String, Vec<u8>)> {
    let ca = CertificateAuthority::from_seed(b"wire-ca");
    let alice = KeyPair::from_seed(b"wire-alice");
    let dba = KeyPair::from_seed(b"wire-dba");
    let regulator = KeyPair::from_seed(b"wire-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    let config = LedgerConfig { block_size: 4, fam_delta: 3, name: "wire".into(), state_backend: Default::default() };
    let mut ledger = LedgerDb::new(config, registry);
    for i in 0..24u64 {
        let clues = vec![format!("c{}", i % 3)];
        ledger.append(TxRequest::signed(&alice, format!("payload-{i}").into_bytes(), clues, i)).unwrap();
    }
    let approve = |digest: Digest, signers: [&KeyPair; 2]| {
        let mut ms = ledgerdb::crypto::multisig::MultiSignature::new();
        signers.iter().for_each(|k| ms.add(k, &digest));
        ms
    };
    let occult = approve(ledger.occult_approval_digest(9), [&dba, &regulator]);
    ledger.occult(9, occult, ledgerdb::core::OccultMode::Sync).unwrap();
    let purge = approve(ledger.purge_approval_digest(4), [&dba, &alice]);
    ledger.purge(4, purge, &[2], false).unwrap();
    ledger.seal_block();

    let dir = std::env::temp_dir().join(format!("ledgerdb-prop-wire-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(CheckpointStore::open(&dir).unwrap());
    ledger.enable_checkpoints(Arc::clone(&store), Arc::new(CkptIo::new()), u64::MAX);
    ledger.checkpoint_now().unwrap().expect("a sealed ledger checkpoints");
    let (_, manifest_bytes) = store.load_head().unwrap().unwrap();
    let manifest = CheckpointManifest::from_wire(&manifest_bytes).unwrap();
    let mut parts = vec![("manifest".to_string(), manifest_bytes)];
    for (role, digest) in &manifest.segments {
        parts.push((role.clone(), store.read_segment(digest).unwrap()));
    }
    std::fs::remove_dir_all(&dir).ok();
    parts
}

/// The one whole-ledger format under hostile bytes: the manifest
/// decoder and all six segment decoders return a typed error — never a
/// panic — on seeded garbage and on bit-flipped or truncated *valid*
/// segments, and what they allocate is bounded by the input's length,
/// not by a length field inside it.
#[test]
fn checkpoint_decoders_survive_hostile_segments() {
    type Decoder = fn(&[u8]) -> bool;
    let decoders: [(&str, Decoder); 7] = [
        ("manifest", |b| CheckpointManifest::from_wire(b).is_ok()),
        ("journals", |b| Vec::<Journal>::from_wire(b).is_ok()),
        ("blocks", |b| Vec::<Block>::from_wire(b).is_ok()),
        ("fam", |b| decode_fam(b).is_ok()),
        ("cm", |b| decode_cm(b).is_ok()),
        ("state", |b| Vec::<(Vec<u8>, Vec<u8>)>::from_wire(b).is_ok()),
        ("aux", |b| decode_aux(b).is_ok()),
    ];
    // Heap bytes a decoder may request per input byte (`+ 64` for
    // inputs too short to hold a length prefix). In-memory elements are
    // wider than their encoding and a growing `Vec` re-requests its
    // contents about twice over: the worst case measured when the bound
    // was set was 38 (`journals`). One trusted length prefix costs
    // thousands.
    const PER_INPUT_BYTE: u64 = 256;
    let check = |role: &str, decode: Decoder, input: &[u8]| -> bool {
        let (ok, requested) = requested_by(|| decode(input));
        assert!(
            requested <= PER_INPUT_BYTE * (input.len() as u64 + 64),
            "{role}: {requested} heap bytes requested for {} input bytes",
            input.len()
        );
        ok
    };
    let valid = exported_checkpoint();
    for (role, decode) in decoders {
        let (_, bytes) = valid.iter().find(|(r, _)| r == role).expect("every role exported");
        assert!(check(role, decode, bytes), "{role}: the exported segment decodes");
    }
    run_cases("checkpoint decoders survive hostile segments", 48, |g| {
        for (role, decode) in decoders {
            let (_, bytes) = valid.iter().find(|(r, _)| r == role).unwrap();
            check(role, decode, &g.bytes(0..=599));
            // A garbage body behind a huge length prefix: the shape
            // that turns an unchecked `with_capacity` into an OOM.
            let mut prefixed = g.in_range(1 << 20..=u64::MAX).to_be_bytes().to_vec();
            prefixed.extend(g.bytes(0..=64));
            check(role, decode, &prefixed);
            let mut flipped = bytes.clone();
            let at = g.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << g.below(8);
            check(role, decode, &flipped);
            let cut = g.below(bytes.len() as u64) as usize;
            assert!(!check(role, decode, &bytes[..cut]), "{role}: truncation to {cut} accepted");
        }
    });
}

/// Wire encodings are canonical: encode(decode(encode(x))) == encode(x).
#[test]
fn encoding_is_stable() {
    run_cases("encoding is stable", 48, |g| {
        let n = g.in_range(1..=39);
        let mut s = Shrubs::new();
        for i in 0..n {
            s.append(hash_leaf(&i.to_be_bytes()));
        }
        let proof = s.prove(n - 1).unwrap();
        let once = proof.to_wire();
        let twice = ShrubsProof::from_wire(&once).unwrap().to_wire();
        assert_eq!(once, twice);
    });
}
