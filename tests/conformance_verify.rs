//! One scripted ledger, every prover, one verifier.
//!
//! The same script — appends across three clues, four seals, then an
//! unsealed tail — is replayed into each way the system answers proofs:
//! the kernel (`LedgerDb`), `SharedLedger` on its snapshot path and on
//! its locked fallback, a `ReadSnapshot` (existence only), and a
//! `RemoteLedger` over the threaded and the event-loop transports.
//! Every existence, clue and state answer must verify with
//! `core::verify` against the same sealed `LedgerInfo`, and every
//! prover's proof bytes must equal the kernel's.
//!
//! The fam fractal height is 2 (epochs of four leaves), and the sealed
//! prefix is 13 journals: four full epochs (4 journals, then 3 after
//! each merged leaf). The tail's first append closes the last of them,
//! so the kernel's anchor then covers the whole sealed prefix — and is
//! exactly the sealed client's anchor plus the sealed journal root.
//! The tail carries no clue, so it moves neither the CM-Tree nor the
//! world state. A prover that answers a sealed jsn from the live fam
//! instead of the sealed one shows up in the remote legs: the client
//! asks with its own (sealed) anchor and would get a chain to the live
//! root.

use ledgerdb::accumulator::fam::{FamProof, TrustedAnchor};
use ledgerdb::clue::cm_tree::ClueProof;
use ledgerdb::core::{
    verify, verify_state_proof, LedgerConfig, LedgerDb, LedgerInfo, MemberRegistry, ReadSnapshot,
    SharedLedger, StateProof, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::wire::Wire;
use ledgerdb::crypto::Digest;
use ledgerdb::server::{EventConfig, EventLedgerd, Ledgerd, RemoteLedger, ServerConfig};
use ledgerdb::telemetry::Registry;
use std::sync::Arc;

const CLUES: [&str; 3] = ["alpha", "beta", "gamma"];
/// Journal counts after which the script seals: each a full-epoch
/// boundary at fam δ = 2.
const SEALS: [u64; 4] = [4, 7, 10, 13];
const SEALED: u64 = 13;
const TAIL: u64 = 2;

fn alice() -> KeyPair {
    KeyPair::from_seed(b"conformance-alice")
}

fn empty_ledger() -> LedgerDb {
    let ca = CertificateAuthority::from_seed(b"conformance-ca");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice().public())).unwrap();
    let config = LedgerConfig {
        block_size: 64,
        fam_delta: 2,
        name: "conformance".into(),
        state_backend: Default::default(),
    };
    let mut ledger = LedgerDb::new(config, registry);
    // Own registry: the snapshot hit/fallback counts are this ledger's.
    ledger.bind_metrics(&Registry::new());
    ledger
}

/// The script's `i`-th request: the sealed prefix cycles through the
/// clues; the tail carries none.
fn request(i: u64) -> TxRequest {
    let clues = if i < SEALED { vec![CLUES[i as usize % 3].to_string()] } else { vec![] };
    TxRequest::signed(&alice(), format!("doc-{i}").into_bytes(), clues, i)
}

/// The sealed part of the script.
fn sealed_ledger() -> LedgerDb {
    let mut ledger = empty_ledger();
    for i in 0..SEALED {
        ledger.append(request(i)).unwrap();
        if SEALS.contains(&(i + 1)) {
            ledger.seal_block();
        }
    }
    ledger
}

/// The whole script, tail included.
fn scripted_ledger() -> LedgerDb {
    let mut ledger = sealed_ledger();
    for i in SEALED..SEALED + TAIL {
        ledger.append(request(i)).unwrap();
    }
    ledger
}

/// A `SharedLedger` wrapped at the last seal, with the tail appended
/// through it: its snapshot names the sealed prefix and can prove.
fn shared_on_snapshot() -> SharedLedger {
    let shared = SharedLedger::new(sealed_ledger());
    for i in SEALED..SEALED + TAIL {
        shared.append(request(i)).unwrap();
    }
    shared
}

/// The adapter: one way of asking a prover for each proof kind. `None`
/// is a kind the prover does not serve.
trait Prover {
    fn name(&self) -> &'static str;
    fn existence(&mut self, jsn: u64, anchor: &TrustedAnchor) -> Option<(Digest, FamProof)>;
    fn clue(&mut self, clue: &str) -> Option<ClueProof>;
    fn state(&mut self, clue: &str) -> Option<StateProof>;
}

impl Prover for LedgerDb {
    fn name(&self) -> &'static str {
        "LedgerDb"
    }
    fn existence(&mut self, jsn: u64, anchor: &TrustedAnchor) -> Option<(Digest, FamProof)> {
        Some(self.prove_existence(jsn, anchor).unwrap())
    }
    fn clue(&mut self, clue: &str) -> Option<ClueProof> {
        Some(self.prove_clue(clue).unwrap())
    }
    fn state(&mut self, clue: &str) -> Option<StateProof> {
        Some(self.prove_state(clue))
    }
}

/// `SharedLedger` under a name: which path serves it is checked apart.
struct Shared(&'static str, SharedLedger);

impl Prover for Shared {
    fn name(&self) -> &'static str {
        self.0
    }
    fn existence(&mut self, jsn: u64, anchor: &TrustedAnchor) -> Option<(Digest, FamProof)> {
        Some(self.1.prove_existence(jsn, anchor).unwrap())
    }
    fn clue(&mut self, clue: &str) -> Option<ClueProof> {
        Some(self.1.prove_clue(clue).unwrap())
    }
    fn state(&mut self, clue: &str) -> Option<StateProof> {
        Some(self.1.prove_state(clue))
    }
}

impl Prover for Arc<ReadSnapshot> {
    fn name(&self) -> &'static str {
        "ReadSnapshot"
    }
    fn existence(&mut self, jsn: u64, anchor: &TrustedAnchor) -> Option<(Digest, FamProof)> {
        Some(self.prove_existence(jsn, anchor).unwrap())
    }
    fn clue(&mut self, _: &str) -> Option<ClueProof> {
        None
    }
    fn state(&mut self, _: &str) -> Option<StateProof> {
        None
    }
}

/// A remote client synced to the sealed prefix. It asks with its own
/// anchor and verifies every answer itself before returning it.
struct Remote(&'static str, RemoteLedger);

impl Prover for Remote {
    fn name(&self) -> &'static str {
        self.0
    }
    fn existence(&mut self, jsn: u64, _: &TrustedAnchor) -> Option<(Digest, FamProof)> {
        Some(self.1.prove(jsn).unwrap_or_else(|e| panic!("{}: jsn {jsn}: {e}", self.0)))
    }
    fn clue(&mut self, clue: &str) -> Option<ClueProof> {
        Some(self.1.prove_clue(clue).unwrap_or_else(|e| panic!("{}: clue {clue}: {e}", self.0)))
    }
    fn state(&mut self, clue: &str) -> Option<StateProof> {
        Some(self.1.prove_state(clue).unwrap_or_else(|e| panic!("{}: state {clue}: {e}", self.0)).0)
    }
}

/// Every answer a prover gives, as wire bytes, after checking each
/// against `info` (and `anchor`, the sealed prefix's anchor).
fn answers(prover: &mut dyn Prover, info: &LedgerInfo, anchor: &TrustedAnchor) -> Vec<Vec<u8>> {
    let name = prover.name();
    let mut out = Vec::new();
    for jsn in 0..SEALED {
        if let Some((tx_hash, proof)) = prover.existence(jsn, anchor) {
            verify::existence(&info.journal_root, anchor, &tx_hash, &proof)
                .unwrap_or_else(|e| panic!("{name}: existence of jsn {jsn}: {e}"));
            out.push([tx_hash.0.to_vec(), proof.to_wire()].concat());
        }
    }
    for clue in CLUES {
        if let Some(proof) = prover.clue(clue) {
            verify::clue(&info.clue_root, &proof)
                .unwrap_or_else(|e| panic!("{name}: clue {clue}: {e}"));
            out.push(proof.to_wire());
        }
    }
    for clue in CLUES.into_iter().chain(["never-used"]) {
        if let Some(proof) = prover.state(clue) {
            let value = verify_state_proof(&info.state_root, &proof)
                .unwrap_or_else(|e| panic!("{name}: state of {clue}: {e}"));
            assert_eq!(value.is_none(), clue == "never-used", "{name}: state of {clue}");
            out.push(proof.to_wire());
        }
    }
    out
}

#[test]
fn every_prover_answers_the_same_verifying_bytes() {
    let mut kernel = scripted_ledger();
    let info = kernel.blocks().last().unwrap().info;
    assert_eq!(kernel.blocks().count(), SEALS.len());
    assert_eq!(kernel.pending_journals(), TAIL);
    assert_eq!(kernel.clue_root(), info.clue_root, "the tail moves no clue");
    assert_eq!(kernel.state_root(), info.state_root, "the tail moves no state");

    let snapshot_path = shared_on_snapshot();
    let snapshot = snapshot_path.snapshot();
    assert_eq!(snapshot.info(), info, "the snapshot names the sealed LedgerInfo");
    let fallback = SharedLedger::new(scripted_ledger());
    assert!(!fallback.snapshot().can_prove(), "wrapped with a tail: locked fallback");

    // The sealed prefix's anchor, as a synced client derives it: the
    // epochs it already trusts, plus the full last epoch, whose root is
    // the sealed journal root.
    let mut client = ledgerdb::core::LedgerClient::new(*kernel.lsp_public_key(), 2);
    client.sync(&kernel.blocks().cloned().collect::<Vec<_>>()).unwrap();
    let mut anchor = client.anchor();
    anchor.epoch_roots.push(info.journal_root);
    assert_eq!(anchor.epoch_roots, kernel.anchor().epoch_roots);

    let config = || ServerConfig { registry: Arc::new(Registry::new()), ..ServerConfig::default() };
    let threaded = Ledgerd::start(shared_on_snapshot(), config()).unwrap();
    let event = EventLedgerd::start(
        shared_on_snapshot(),
        EventConfig { server: config(), ..EventConfig::default() },
    )
    .unwrap();
    let mut remotes = Vec::new();
    for (name, addr) in [
        ("RemoteLedger/threaded", threaded.local_addr()),
        ("RemoteLedger/event", event.local_addr()),
    ] {
        let mut remote = RemoteLedger::connect(addr).unwrap();
        remote.sync().unwrap();
        assert_eq!(remote.client().journal_root(), info.journal_root, "{name}");
        remotes.push(Remote(name, remote));
    }

    let reference = answers(&mut kernel, &info, &anchor);
    assert_eq!(reference.len() as u64, SEALED + 3 + 4);
    let mut provers: Vec<Box<dyn Prover>> = vec![
        Box::new(Shared("SharedLedger/snapshot", snapshot_path.clone())),
        Box::new(Shared("SharedLedger/locked", fallback.clone())),
    ];
    provers.extend(remotes.into_iter().map(|r| Box::new(r) as Box<dyn Prover>));
    for prover in &mut provers {
        let name = prover.name();
        assert!(
            answers(prover.as_mut(), &info, &anchor) == reference,
            "{name} answered other bytes"
        );
    }
    let mut snapshot: Box<dyn Prover> = Box::new(snapshot);
    let existence = answers(snapshot.as_mut(), &info, &anchor);
    assert!(existence[..] == reference[..SEALED as usize], "ReadSnapshot answered other bytes");

    // Each SharedLedger answered existence along the path it names.
    let (hits, fallbacks) = snapshot_path.snapshot_read_counts();
    assert!(hits >= SEALED && fallbacks == 0, "snapshot path: {hits} hits, {fallbacks} fallbacks");
    let (_, fallbacks) = fallback.snapshot_read_counts();
    assert!(fallbacks >= SEALED, "locked fallback: {fallbacks} fallbacks");

    threaded.shutdown();
    event.shutdown();
}
