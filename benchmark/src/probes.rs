//! The per-layer numbers of a traced run, measured two ways, both from
//! outside the program:
//!
//! * **probes** replay the run's own generated inputs through each layer
//!   crate's plain public entry points on shadow instances inside this
//!   process, timed per call;
//! * **scrapes** are deltas of the server's `Stats` exposition taken
//!   before and after the timed window.
//!
//! None of these is gated. Each says in `README.md` which end-to-end
//! metric it should move, on which workload.

use crate::gen::{clue_name, Rng, SignedAppend, PAYLOAD_BYTES};
use crate::run::{Metric, Phase};
use crate::scrape::Delta;
use crate::stats::{median_ns, percentile};
use crate::trace::BudgetRow;
use crate::workload::{Bed, Kind, Workload};
use ledgerdb_accumulator::fam::FamTree;
use ledgerdb_accumulator::shrubs::Shrubs;
use ledgerdb_clue::clue_key;
use ledgerdb_clue::cm_tree::CmTree;
use ledgerdb_core::recovery::open_durable;
use ledgerdb_core::{
    verify_state_proof, LedgerClient, LedgerConfig, LedgerDb, MemberRegistry, SharedLedger,
    StateBackend, StateCommitment, WorldState,
};
use ledgerdb_crypto::ca::{CertificateAuthority, Role};
use ledgerdb_crypto::keccak::sha3_256;
use ledgerdb_crypto::{counters, hash_pair, sha256, Digest, KeyPair, Wire};
use ledgerdb_server::protocol::{Request, Response};
use ledgerdb_storage::{FileStreamStore, FsyncPolicy, StreamStore};
use ledgerdb_timesvc::clock::SimClock;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Generated appends each shadow structure is built from.
const PROBE_JOURNALS: usize = 2048;
/// Appends through the shadow ledgers (each pays an ECDSA verify).
const PROBE_LEDGER_APPENDS: usize = 480;
/// Proofs built and verified per probe.
const PROBE_PROOFS: usize = 256;
/// Lineage proofs per probe (each covers a whole clue).
const PROBE_LINEAGES: usize = 48;

/// What the run hands the probes.
pub struct Context<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub run_dir: &'a Path,
    /// The server's `Stats` before and after the whole window.
    pub delta: Delta<'a>,
    pub window_appends: u64,
    /// Mean `to_wire().len()` of the proof objects the run sized.
    pub proof_bytes_per_read: f64,
    /// The untraced and the traced slices of the window.
    pub plain: &'a Phase,
    pub traced: &'a Phase,
    pub budget: Vec<BudgetRow>,
}

/// Median nanoseconds per call, each call timed on its own.
fn per_call(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let started = Instant::now();
        call(i);
        samples.push(started.elapsed().as_nanos() as u64);
    }
    median_ns(&mut samples)
}

/// Mean nanoseconds per call over one timed loop, for calls too short to
/// time one by one.
fn per_loop(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        call(i);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The registry `ledgerd --seed bench` builds.
fn registry(keys: &KeyPair) -> MemberRegistry {
    let ca = CertificateAuthority::from_seed(b"bench");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry
        .register(ca.issue("alice", Role::User, keys.public()))
        .expect("a fresh registry takes its first member");
    registry
}

fn config(backend: StateBackend) -> LedgerConfig {
    LedgerConfig {
        block_size: 16,
        fam_delta: 15,
        name: "ledgerd-bench".into(),
        state_backend: backend,
    }
}

struct Out<'a> {
    metrics: Vec<Metric>,
    warnings: &'a mut Vec<String>,
}

impl Out<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// A scraped value; a series that is gone reads 0 and warns.
    fn scraped(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if value.is_none() {
            self.warnings.push(format!(
                "{name}: the scraped series no longer exists; reported as 0"
            ));
        }
        self.put(name, value.unwrap_or(0.0), unit);
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn per_layer(
    ctx: Context<'_>,
    bed: &mut Bed,
    preload: &[SignedAppend],
    keys: &KeyPair,
    warnings: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let inputs = &preload[..PROBE_JOURNALS.min(preload.len())];
    let mut rng = Rng::new(ctx.seed, 50);
    let mut out = Out {
        metrics: Vec::new(),
        warnings,
    };
    let digests: Vec<Digest> = inputs.iter().map(|s| s.request.hash()).collect();

    // ---- crypto ----
    let ecdsa_verify_ns = per_call(64, |i| {
        let request = &inputs[i].request;
        black_box(request.client_pk.verify(&digests[i], &request.signature));
    });
    out.put("crypto.ecdsa_verify_us", us(ecdsa_verify_ns), "us");
    out.put(
        "crypto.ecdsa_sign_us",
        us(per_call(64, |i| {
            black_box(keys.sign(&digests[i]));
        })),
        "us",
    );
    let block = vec![0xA5u8; 4096];
    let sha_ns = per_loop(2048, |_| {
        black_box(sha256(black_box(&block)));
    });
    out.put(
        "crypto.sha256_mib_per_s",
        4096.0 / sha_ns * 1e9 / (1 << 20) as f64,
        "MiB/s",
    );
    let mut chained = digests[0];
    out.put(
        "crypto.sha256_pair_ns",
        per_loop(20_000, |_| {
            chained = hash_pair(&chained, black_box(&digests[1]))
        }),
        "ns",
    );
    out.put(
        "crypto.sha3_256_ns",
        per_loop(20_000, |_| chained = sha3_256(&chained.0)),
        "ns",
    );
    black_box(chained);

    // ---- accumulator ----
    let mut fam = FamTree::new(15);
    let fam_append_ns = per_loop(digests.len(), |i| {
        fam.append(digests[i]);
    });
    out.put("accumulator.fam_append_ns", fam_append_ns, "ns");
    out.put(
        "accumulator.fam_root_us",
        us(per_call(64, |_| {
            black_box(fam.root());
        })),
        "us",
    );
    let (anchor, root) = (fam.anchor(), fam.root());
    let jsns: Vec<u64> = (0..PROBE_PROOFS)
        .map(|_| rng.below(digests.len() as u64))
        .collect();
    let mut fam_proofs = Vec::with_capacity(PROBE_PROOFS);
    let prove_ns = per_call(PROBE_PROOFS, |i| {
        fam_proofs.push(
            fam.prove(jsns[i], &anchor)
                .expect("a shadow fam proves what it holds"),
        );
    });
    out.put("accumulator.fam_prove_us", us(prove_ns), "us");
    let verify_ns = per_call(PROBE_PROOFS, |i| {
        FamTree::verify(&root, &anchor, &digests[jsns[i] as usize], &fam_proofs[i])
            .expect("a shadow fam proof verifies");
    });
    out.put("accumulator.fam_verify_us", us(verify_ns), "us");
    let bytes: usize = fam_proofs.iter().map(|p| p.to_wire().len()).sum();
    out.put(
        "accumulator.fam_proof_bytes",
        bytes as f64 / PROBE_PROOFS as f64,
        "B",
    );
    let mut shrubs = Shrubs::new();
    out.put(
        "accumulator.shrubs_append_ns",
        per_loop(digests.len(), |i| {
            shrubs.append(digests[i]);
        }),
        "ns",
    );
    let prove_ns = per_call(PROBE_PROOFS, |i| {
        black_box(
            shrubs
                .prove(jsns[i])
                .expect("a shadow shrubs proves what it holds"),
        );
    });
    out.put("accumulator.shrubs_prove_us", us(prove_ns), "us");

    // ---- clue ----
    let clues: Vec<String> = inputs.iter().map(|s| clue_name(s.clue)).collect();
    let mut cm = CmTree::new();
    let mut root_samples = Vec::new();
    let cm_append_ns = per_call(inputs.len(), |i| cm.append(&clues[i], i as u64, digests[i]));
    // The root is lazy (dirty CM-Tree1 nodes re-hash on demand): time it
    // the way a seal meets it, after every 16 appends, on a second tree.
    let mut cm_sealed = CmTree::new();
    for (i, clue) in clues.iter().enumerate() {
        cm_sealed.append(clue, i as u64, digests[i]);
        if i % 16 == 15 {
            let started = Instant::now();
            black_box(cm_sealed.root());
            root_samples.push(started.elapsed().as_nanos() as u64);
        }
    }
    out.put("clue.cm_append_us", us(cm_append_ns), "us");
    out.put("clue.cm_root_us", us(median_ns(&mut root_samples)), "us");
    let cm_root = cm.root();
    let lineage_of: Vec<usize> = (0..PROBE_LINEAGES)
        .map(|_| rng.below(inputs.len() as u64) as usize)
        .collect();
    let mut clue_proofs = Vec::with_capacity(PROBE_LINEAGES);
    let started = Instant::now();
    for &i in &lineage_of {
        clue_proofs.push(
            cm.prove_all(&clues[i])
                .expect("a shadow CM-Tree proves its clues"),
        );
    }
    let cm_prove_ns = started.elapsed().as_nanos() as f64;
    let entries: usize = clue_proofs.iter().map(|p| p.entries.len()).sum();
    let started = Instant::now();
    for proof in &clue_proofs {
        CmTree::verify_client(&cm_root, proof).expect("a shadow clue proof verifies");
    }
    let cm_verify_ns = started.elapsed().as_nanos() as f64;
    let clue_bytes: usize = clue_proofs.iter().map(|p| p.to_wire().len()).sum();
    out.put(
        "clue.cm_prove_us_per_entry",
        us(cm_prove_ns) / entries as f64,
        "us",
    );
    out.put(
        "clue.cm_verify_us_per_entry",
        us(cm_verify_ns) / entries as f64,
        "us",
    );
    out.put(
        "clue.cm_proof_bytes_per_entry",
        clue_bytes as f64 / entries as f64,
        "B",
    );

    // ---- mpt / bintrie, through core::state::WorldState ----
    for backend in [StateBackend::Mpt, StateBackend::Bin] {
        let names: [&'static str; 5] = match backend {
            StateBackend::Mpt => [
                "mpt.insert_us",
                "mpt.root_us",
                "mpt.prove_us",
                "mpt.verify_us",
                "mpt.proof_bytes",
            ],
            StateBackend::Bin => [
                "bintrie.insert_us",
                "bintrie.root_us",
                "bintrie.prove_us",
                "bintrie.verify_us",
                "bintrie.proof_bytes",
            ],
        };
        let keys_bytes: Vec<Digest> = clues.iter().map(|c| clue_key(c)).collect();
        let mut state = WorldState::new(backend);
        let mut root_samples = Vec::new();
        let mut insert_samples = Vec::with_capacity(inputs.len());
        for (i, key) in keys_bytes.iter().enumerate() {
            let value = digests[i].0.to_vec();
            let started = Instant::now();
            state.insert_kv(key.as_bytes(), value);
            insert_samples.push(started.elapsed().as_nanos() as u64);
            if i % 16 == 15 {
                let started = Instant::now();
                black_box(state.commitment_root());
                root_samples.push(started.elapsed().as_nanos() as u64);
            }
        }
        out.put(names[0], us(median_ns(&mut insert_samples)), "us");
        out.put(names[1], us(median_ns(&mut root_samples)), "us");
        let root = state.commitment_root();
        let mut proofs = Vec::with_capacity(PROBE_PROOFS);
        let prove_ns = per_call(PROBE_PROOFS, |i| {
            proofs.push(state.prove_kv(keys_bytes[jsns[i] as usize].as_bytes()))
        });
        out.put(names[2], us(prove_ns), "us");
        let verify_ns = per_call(PROBE_PROOFS, |i| {
            black_box(
                verify_state_proof(&root, &proofs[i]).expect("a shadow state proof verifies"),
            );
        });
        out.put(names[3], us(verify_ns), "us");
        let bytes: usize = proofs.iter().map(|p| p.to_wire().len()).sum();
        out.put(names[4], bytes as f64 / PROBE_PROOFS as f64, "B");
    }

    // ---- storage ----
    let stream_path = ctx.run_dir.join("probe-stream.log");
    let store = FileStreamStore::create_with(&stream_path, FsyncPolicy::Never)
        .map_err(|e| format!("probe stream store: {e}"))?;
    let mut fsync_samples = Vec::new();
    let mut append_samples = Vec::with_capacity(1024);
    for i in 0..1024 {
        let payload = &inputs[i % inputs.len()].request.payload;
        let started = Instant::now();
        store
            .append(payload)
            .map_err(|e| format!("probe stream append: {e}"))?;
        append_samples.push(started.elapsed().as_nanos() as u64);
        if i % 16 == 15 {
            let started = Instant::now();
            store
                .sync()
                .map_err(|e| format!("probe stream sync: {e}"))?;
            fsync_samples.push(started.elapsed().as_nanos() as u64);
        }
    }
    let storage_append_ns = median_ns(&mut append_samples);
    let fsync_ns = median_ns(&mut fsync_samples);
    out.put("storage.append_us", us(storage_append_ns), "us");
    out.put("storage.fsync_us", us(fsync_ns), "us");

    // ---- core: a shadow ledger in memory and one on disk ----
    let appends = &inputs[..PROBE_LEDGER_APPENDS.min(inputs.len())];
    let mem = SharedLedger::new(LedgerDb::new(config(StateBackend::Mpt), registry(keys)));
    let (verifies, finalizes) = (counters::ecdsa_verifies(), counters::sha256_finalizes());
    let mut seal_samples = Vec::new();
    let mut append_samples = Vec::with_capacity(appends.len());
    for (i, signed) in appends.iter().enumerate() {
        let request = signed.request.clone();
        let started = Instant::now();
        mem.append(request)
            .map_err(|e| format!("shadow append: {e}"))?;
        append_samples.push(started.elapsed().as_nanos() as u64);
        // Seal by hand one journal short of the block size, so the seal
        // is timed on its own and never inside an append's sample.
        if i % 15 == 14 {
            let started = Instant::now();
            mem.seal_block();
            seal_samples.push(started.elapsed().as_nanos() as u64);
        }
    }
    mem.seal_block();
    let per_append = |before: u64, after: u64| (after - before) as f64 / appends.len() as f64;
    out.put(
        "crypto.ecdsa_verifies_per_append",
        per_append(verifies, counters::ecdsa_verifies()),
        "count",
    );
    out.put(
        "crypto.sha256_finalizes_per_append",
        per_append(finalizes, counters::sha256_finalizes()),
        "count",
    );
    out.put(
        "core.append_mem_us",
        us(median_ns(&mut append_samples)),
        "us",
    );
    out.put("core.seal_us", us(median_ns(&mut seal_samples)), "us");

    let durable_dir = ctx.run_dir.join("probe-ledger");
    let clock = || Arc::new(SimClock::new());
    let open = || {
        open_durable(
            config(StateBackend::Mpt),
            registry(keys),
            &durable_dir,
            FsyncPolicy::Never,
            clock(),
        )
    };
    let (ledger, _) = open().map_err(|e| format!("shadow open_durable: {e}"))?;
    let durable = SharedLedger::new(ledger);
    let mut append_samples = Vec::with_capacity(appends.len());
    for signed in appends {
        let request = signed.request.clone();
        let started = Instant::now();
        durable
            .append(request)
            .map_err(|e| format!("shadow durable append: {e}"))?;
        append_samples.push(started.elapsed().as_nanos() as u64);
    }
    durable.seal_block();
    durable
        .sync_durable()
        .map_err(|e| format!("shadow sync: {e}"))?;
    let append_durable_ns = median_ns(&mut append_samples);
    out.put("core.append_durable_us", us(append_durable_ns), "us");
    drop(durable);
    let started = Instant::now();
    let (recovered, _) = open().map_err(|e| format!("shadow recovery: {e}"))?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    if recovered.journal_count() != appends.len() as u64 {
        return Err("shadow recovery lost journals".into());
    }
    out.put(
        "core.recover_ms_per_kjournal",
        recover_ms / (appends.len() as f64 / 1000.0),
        "ms",
    );
    // The kernel's own time inside the write lock: a durable append minus
    // everything a lower layer's probe already accounts for (one ECDSA
    // verify, one fam and one CM-Tree append, payload + WAL record).
    let lock_self_ns = append_durable_ns
        - ecdsa_verify_ns
        - fam_append_ns
        - cm_append_ns
        - 2.0 * storage_append_ns;
    out.put("core.lock_self_us", us(lock_self_ns), "us");

    // A distrusting client over the in-memory shadow.
    let blocks = mem.blocks_from(0, u64::MAX);
    let mut client = LedgerClient::new(mem.lsp_public_key(), 15);
    let started = Instant::now();
    let report = client
        .sync(&blocks)
        .map_err(|e| format!("shadow client sync: {e}"))?;
    let sync_ns = started.elapsed().as_nanos() as f64;
    out.put(
        "client.sync_us_per_journal",
        us(sync_ns) / report.journals_replayed as f64,
        "us",
    );

    let anchor = client.anchor();
    let sealed = client.verified_journals();
    let jsns: Vec<u64> = (0..PROBE_PROOFS).map(|_| rng.below(sealed)).collect();
    let finalizes = counters::sha256_finalizes();
    let mut proofs = Vec::with_capacity(PROBE_PROOFS);
    let prove_existence_ns = per_call(PROBE_PROOFS, |i| {
        proofs.push(
            mem.prove_existence(jsns[i], &anchor)
                .expect("the shadow proves its journals"),
        );
    });
    let verify_existence_ns = per_call(PROBE_PROOFS, |i| {
        client
            .verify_existence(&proofs[i].0, &proofs[i].1)
            .expect("a shadow proof verifies");
    });
    out.put(
        "crypto.sha256_finalizes_per_prove",
        (counters::sha256_finalizes() - finalizes) as f64 / PROBE_PROOFS as f64,
        "count",
    );
    out.put("core.prove_existence_us", us(prove_existence_ns), "us");
    out.put("client.verify_existence_us", us(verify_existence_ns), "us");

    let lineage_clues: Vec<&String> = (0..PROBE_LINEAGES)
        .map(|_| &clues[rng.below(appends.len() as u64) as usize])
        .collect();
    let started = Instant::now();
    let lineage_proofs: Vec<_> = lineage_clues
        .iter()
        .map(|clue| mem.prove_clue(clue).expect("the shadow proves its clues"))
        .collect();
    let prove_clue_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for proof in &lineage_proofs {
        client
            .verify_clue(proof)
            .map_err(|e| format!("shadow clue proof: {e}"))?;
    }
    let verify_clue_ns = started.elapsed().as_nanos() as f64;
    let entries: usize = lineage_proofs.iter().map(|p| p.entries.len()).sum();
    let prove_clue_us_per_entry = us(prove_clue_ns) / entries as f64;
    let verify_clue_us_per_entry = us(verify_clue_ns) / entries as f64;
    out.put(
        "core.prove_clue_us_per_entry",
        prove_clue_us_per_entry,
        "us",
    );
    out.put(
        "client.verify_clue_us_per_entry",
        verify_clue_us_per_entry,
        "us",
    );

    let mut state_proofs = Vec::with_capacity(PROBE_LINEAGES);
    let prove_state_ns = per_call(PROBE_LINEAGES, |i| {
        state_proofs.push(mem.prove_state(lineage_clues[i]))
    });
    let verify_state_ns = per_call(PROBE_LINEAGES, |i| {
        black_box(
            client
                .verify_state(&state_proofs[i])
                .expect("a shadow state proof verifies"),
        );
    });
    out.put("core.prove_state_us", us(prove_state_ns), "us");
    out.put("client.verify_state_us", us(verify_state_ns), "us");

    // ---- server: the codec, and the live server's round-trip floor ----
    let requests: Vec<Request> = appends[..PROBE_PROOFS]
        .iter()
        .map(|s| Request::Append(s.request.clone()))
        .collect();
    let mut frames = Vec::with_capacity(PROBE_PROOFS);
    let encode_append_ns = per_call(PROBE_PROOFS, |i| frames.push(requests[i].to_wire()));
    let decode_append_ns = per_call(PROBE_PROOFS, |i| {
        black_box(Request::from_wire(&frames[i]).expect("an encoded request decodes"));
    });
    out.put("server.encode_append_us", us(encode_append_ns), "us");
    out.put("server.decode_append_us", us(decode_append_ns), "us");
    let responses: Vec<Response> = proofs
        .into_iter()
        .map(|(tx_hash, proof)| Response::Proof { tx_hash, proof })
        .collect();
    let mut frames = Vec::with_capacity(PROBE_PROOFS);
    let encode_proof_ns = per_call(PROBE_PROOFS, |i| frames.push(responses[i].to_wire()));
    let decode_proof_ns = per_call(PROBE_PROOFS, |i| {
        black_box(Response::from_wire(&frames[i]).expect("an encoded response decodes"));
    });
    out.put("server.encode_proof_us", us(encode_proof_ns), "us");
    out.put("server.decode_proof_us", us(decode_proof_ns), "us");
    let frames: Vec<Vec<u8>> = lineage_proofs
        .into_iter()
        .map(|p| Response::ClueProof(p).to_wire())
        .collect();
    let started = Instant::now();
    for frame in &frames {
        black_box(Response::from_wire(frame).expect("an encoded clue proof decodes"));
    }
    let kib = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let decode_clue_us_per_kib = us(started.elapsed().as_nanos() as f64) / kib;
    out.put(
        "server.decode_clueproof_us_per_kib",
        decode_clue_us_per_kib,
        "us",
    );
    // Loopback + transport + dispatch with next to no work behind it
    // (`topology` answers from three fields), from both clients at once as
    // in the window: an idle box wakes slower. `list_tx` on an absent clue
    // is no floor: the snapshot path walks every sealed block.
    let floors: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    // A client whose socket died with a crashed server
                    // learns so on its next call, and redials on the one
                    // after.
                    let _ = client.topology();
                    let mut samples = Vec::with_capacity(1024);
                    for _ in 0..1024 {
                        let started = Instant::now();
                        client
                            .topology()
                            .map_err(|e| format!("rtt floor probe: {e}"))?;
                        samples.push(started.elapsed().as_nanos() as u64);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rtt probe thread panicked"))
            .collect()
    });
    let mut floor_samples = Vec::new();
    for samples in floors {
        floor_samples.extend(samples?);
    }
    let rtt_floor_ns = median_ns(&mut floor_samples);
    out.put("server.rtt_floor_us", us(rtt_floor_ns), "us");

    // ---- scrapes over the window ----
    let d = &ctx.delta;
    let both = || ctx.plain.clients.iter().chain(&ctx.traced.clients);
    let ops = (ctx.plain.completed() + ctx.traced.completed()) as f64;
    let kops = ops / 1000.0;
    let reads = ops - ctx.window_appends as f64;
    // Per append where the workload appends; per op where it does not, so
    // a read-only workload that starts to fsync still shows.
    let per_write = if ctx.window_appends > 0 {
        ctx.window_appends as f64
    } else {
        ops
    };
    let fsyncs_per_append = d
        .counter("storage_fsync_total")
        .map(|n| ratio(n, per_write));
    out.scraped("storage.fsyncs_per_append", fsyncs_per_append, "count");
    let user_bytes = (ctx.window_appends * PAYLOAD_BYTES as u64) as f64;
    out.scraped(
        "storage.write_bytes_per_user_byte",
        d.counter("storage_write_bytes_total")
            .map(|n| ratio(n, user_bytes)),
        "ratio",
    );
    out.scraped(
        "storage.checkpoints",
        d.counter("ledger_checkpoints_total"),
        "count",
    );
    out.scraped(
        "storage.checkpoint_write_ms",
        d.mean("ledger_checkpoint_write_seconds").map(|s| s * 1e3),
        "ms",
    );
    out.scraped(
        "storage.checkpoint_bytes",
        d.mean("ledger_checkpoint_bytes"),
        "B",
    );
    let hits = d.counter("ledger_snapshot_hit_total");
    let fallbacks = d.counter("ledger_snapshot_fallback_total");
    // No lookups, no fallbacks: 1.
    let hit_ratio = |(hit, fallback): (f64, f64)| {
        if hit + fallback > 0.0 {
            hit / (hit + fallback)
        } else {
            1.0
        }
    };
    out.scraped(
        "core.snapshot_hit_ratio",
        hits.zip(fallbacks).map(hit_ratio),
        "ratio",
    );
    out.scraped(
        "core.seals_per_kop",
        d.counter("ledger_seals_total").map(|n| ratio(n, kops)),
        "count",
    );
    out.scraped("server.batch_size_mean", d.mean("batch_size"), "count");
    let queue_wait_us = d.p50("batch_queue_wait_seconds").map(|s| s * 1e6);
    out.scraped("server.queue_wait_p50_us", queue_wait_us, "us");
    out.scraped(
        "server.windows_per_kop",
        d.counter("batch_windows_total").map(|n| ratio(n, kops)),
        "count",
    );
    out.scraped(
        "server.bytes_in_per_op",
        d.counter("server_bytes_in_total").map(|n| ratio(n, ops)),
        "B",
    );
    out.scraped(
        "server.bytes_out_per_op",
        d.counter("server_bytes_out_total").map(|n| ratio(n, ops)),
        "B",
    );
    out.scraped(
        "server.error_frames",
        d.counter("server_error_frames_total"),
        "count",
    );
    out.scraped(
        "pool.tasks_per_op",
        d.counter("ledger_pool_tasks_total").map(|n| ratio(n, ops)),
        "count",
    );

    // ---- client: the window's tails, the tracing overhead, the budget ----
    let lat = |kind: Kind| &ctx.plain.lat[kind as usize];
    // A kind the workload does not run reads 0.
    let quantile_ms = |kind, q| percentile(lat(kind), q).map_or(0.0, |p| p.value / 1e6);
    out.put(
        "client.append_p99_ms",
        quantile_ms(Kind::Append, 0.99),
        "ms",
    );
    out.put("client.prove_p50_ms", quantile_ms(Kind::Prove, 0.50), "ms");
    out.put("client.prove_p95_ms", quantile_ms(Kind::Prove, 0.95), "ms");
    out.put("client.prove_p99_ms", quantile_ms(Kind::Prove, 0.99), "ms");
    out.put(
        "client.clue_p99_ms",
        quantile_ms(Kind::ProveClue, 0.99),
        "ms",
    );
    out.put("client.get_tx_p50_ms", quantile_ms(Kind::GetTx, 0.50), "ms");
    out.put(
        "client.prove_state_p50_ms",
        quantile_ms(Kind::ProveState, 0.50),
        "ms",
    );
    out.put(
        "client.read_ops_per_s",
        ratio(reads, ctx.plain.wall + ctx.traced.wall),
        "1/s",
    );
    out.put("client.proof_bytes_per_read", ctx.proof_bytes_per_read, "B");
    let stale_retries: u64 = both().map(|o| o.stale_retries).sum();
    out.put(
        "client.stale_retries_per_kread",
        ratio(stale_retries as f64, reads / 1000.0),
        "count",
    );
    out.put(
        "client.trace_overhead_ratio",
        ratio(ctx.traced.ops_per_s(), ctx.plain.ops_per_s()),
        "ratio",
    );

    // The primary op's blocking path in nanoseconds per op. The client's
    // and the codec's parts are the means of the replay spans (the real
    // bytes of this run); the server's parts are what the probes and the
    // scrapes say each layer costs one op. Means, not medians: per-op
    // costs multiply by per-op mean counts, and a stall nobody accounts
    // for belongs in the remainder.
    let primary = lat(ctx.workload.primary());
    let op_mean_ns = ratio(primary.iter().sum::<u64>() as f64, primary.len() as f64);
    let span_mean = |name: &str| {
        ctx.budget
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, BudgetRow::mean_ns)
    };
    let clue_reads = lat(Kind::ProveClue).len() + ctx.traced.lat[Kind::ProveClue as usize].len();
    let clue_entries: u64 = both().map(|o| o.clue_entries).sum();
    let entries_per_read = ratio(clue_entries as f64, clue_reads as f64);
    let mut path: Vec<(&str, &str, f64)> = vec![
        (
            "server",
            "rtt floor (loopback, transport, dispatch)",
            rtt_floor_ns,
        ),
        (
            "server",
            "codec, both ends (replayed)",
            span_mean("replay.encode_request")
                + span_mean("replay.decode_request")
                + span_mean("replay.encode_response")
                + span_mean("replay.decode_response"),
        ),
    ];
    match ctx.workload.primary() {
        Kind::Append => path.extend([
            (
                "server",
                "batcher queue wait (scraped p50)",
                queue_wait_us.unwrap_or(0.0) * 1e3,
            ),
            ("crypto", "ecdsa verify (admission)", ecdsa_verify_ns),
            ("accumulator", "fam append", fam_append_ns),
            ("clue", "cm-tree append", cm_append_ns),
            ("storage", "payload + wal append", 2.0 * storage_append_ns),
            (
                "storage",
                "fsync x fsyncs per append",
                fsync_ns * fsyncs_per_append.unwrap_or(0.0),
            ),
            ("core", "kernel self time in the lock", lock_self_ns),
        ]),
        Kind::ProveClue => path.extend([
            (
                "clue",
                "cm-tree prove x entries",
                cm_prove_ns / entries as f64 * entries_per_read,
            ),
            (
                "client",
                "verify_clue (replayed)",
                span_mean("replay.verify_clue"),
            ),
        ]),
        _ => path.extend([
            ("core", "prove_existence", prove_existence_ns),
            (
                "client",
                "verify_existence (replayed)",
                span_mean("replay.verify_existence"),
            ),
        ]),
    }
    let attributed_ns: f64 = path.iter().map(|(_, _, ns)| ns.max(0.0)).sum();
    out.put(
        "client.unattributed_ms",
        (op_mean_ns - attributed_ns) / 1e6,
        "ms",
    );
    // The share of the primary call spent waiting on the wire and the
    // server: everything but the client-side work the replays measured.
    let call_mean = ctx
        .budget
        .iter()
        .filter(|r| r.name.starts_with("remote."))
        .max_by_key(|r| r.busy_ns)
        .map_or(0.0, BudgetRow::mean_ns);
    let client_side = span_mean("replay.encode_request")
        + span_mean("replay.decode_response")
        + match ctx.workload.primary() {
            Kind::Append => 0.0,
            Kind::ProveClue => span_mean("replay.verify_clue"),
            _ => span_mean("replay.verify_existence"),
        };
    out.put(
        "client.rtt_wait_share",
        ratio(call_mean - client_side, call_mean).clamp(0.0, 1.0),
        "ratio",
    );

    print_budget(ctx.workload, &ctx.budget, &path, op_mean_ns);
    Ok(out.metrics)
}

/// The budget, for a person: the spans the benchmark recorded, then the
/// primary op's blocking path as the probes price it.
fn print_budget(
    workload: Workload,
    rows: &[BudgetRow],
    path: &[(&str, &str, f64)],
    op_mean_ns: f64,
) {
    eprintln!(
        "budget {}: spans (traced slices of the window)",
        workload.name()
    );
    eprintln!(
        "  {:<8} {:<34} {:>9} {:>11} {:>11} {:>10}",
        "layer", "span", "calls", "busy_ms", "self_ms", "p50_us"
    );
    for row in rows {
        eprintln!(
            "  {:<8} {:<34} {:>9} {:>11.2} {:>11.2} {:>10.2}",
            row.layer,
            row.name,
            row.calls,
            row.busy_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.p50_ns / 1e3,
        );
    }
    eprintln!(
        "budget {}: blocking path of the primary op (mean {:.1} us per call, untraced slices)",
        workload.name(),
        op_mean_ns / 1e3
    );
    let mut attributed = 0.0;
    for (layer, what, ns) in path {
        attributed += ns.max(0.0);
        eprintln!(
            "  {:<12} {:<44} {:>9.1} us {:>6.1}%",
            layer,
            what,
            ns / 1e3,
            100.0 * ratio(*ns, op_mean_ns)
        );
    }
    eprintln!(
        "  {:<12} {:<44} {:>9.1} us {:>6.1}%",
        "-",
        "unattributed",
        (op_mean_ns - attributed) / 1e3,
        100.0 * ratio(op_mean_ns - attributed, op_mean_ns)
    );
}
