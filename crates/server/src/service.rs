//! Transport-independent request handling.
//!
//! [`RequestService`] is everything `ledgerd` does *between* decoding a
//! [`Request`] and encoding a [`Response`]: admission, group commit,
//! snapshot reads, sticky-durability polling, per-kind telemetry, and
//! the drain protocol. Both transports — the thread-per-connection
//! server ([`crate::server`]) and the epoll event loop
//! ([`crate::event_server`]) — call the same [`RequestService::handle`],
//! which is what makes their responses byte-identical by construction:
//! the differential suite asserts it, but the sharing is the proof.

use crate::batcher::{Admission, CommitOutcome, GroupCommitter};
use crate::metrics::{kind_index, ServerMetrics, REQUEST_KINDS};
use crate::protocol::{
    AppendedAck, ErrorCode, ErrorFrame, ProofItem, Request, Response, ServerInfo, SpanRecord,
    TopologyInfo, PROTOCOL_VERSION,
};
use crate::server::ServerConfig;
use ledgerdb_accumulator::fam::TrustedAnchor;
use ledgerdb_accumulator::AccumulatorError;
use ledgerdb_core::{ShardedLedger, SharedLedger, TxRequest};
use ledgerdb_telemetry::trace::{self, StageSpan, TraceContext, TraceId, TraceScope};
use ledgerdb_telemetry::{recorder, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Static span names tagging which shard a routed request landed on
/// (flight-recorder names must be `'static`). Shards past the table
/// share the last tag — the structural concurrency assertion only needs
/// *distinct* tags for the shards under test.
const SHARD_STAGES: [&str; 8] = [
    "shard-0", "shard-1", "shard-2", "shard-3", "shard-4", "shard-5", "shard-6", "shard-7",
];

fn shard_stage(shard: usize) -> &'static str {
    SHARD_STAGES[shard.min(SHARD_STAGES.len() - 1)]
}

/// The shared request-handling core of a running server.
pub struct RequestService {
    /// Shard 0 — on a K=1 deployment this *is* the ledger, and every
    /// pre-sharding path (HTTP handlers, Hello, the block feed) reads
    /// it exactly as before.
    pub shared: SharedLedger,
    sharded: ShardedLedger,
    /// One group committer per shard: per-shard durability barriers
    /// are what lets K shards commit concurrently instead of
    /// serializing on one WAL.
    committers: Vec<GroupCommitter>,
    admission: Admission,
    registry: Arc<Registry>,
    pub metrics: ServerMetrics,
    shutdown: AtomicBool,
}

impl RequestService {
    /// Wire a ledger to a config: the group committer and metric
    /// handles — exactly once, regardless of which transport
    /// will drive requests.
    pub fn start(shared: SharedLedger, config: &ServerConfig) -> RequestService {
        Self::start_sharded(ShardedLedger::single(shared), config)
    }

    /// As [`RequestService::start`], over K shard ledgers. Routing
    /// lives entirely in this service, so both transports (threaded and
    /// event loop) inherit sharding verbatim. K=1 is byte-identical to
    /// the unsharded service: shard routing degenerates to shard 0 and
    /// jsn packing to the identity.
    pub fn start_sharded(sharded: ShardedLedger, config: &ServerConfig) -> RequestService {
        let committers = sharded
            .shards()
            .iter()
            .map(|shard| {
                GroupCommitter::start(
                    shard.clone(),
                    config.batch,
                    config.admission,
                    &config.registry,
                )
            })
            .collect();
        let metrics = ServerMetrics::bind(&config.registry);
        // Which SHA-256 kernel this process dispatches to, as an info
        // series: "this box is slower at proofs" is answerable from
        // `/metrics` / `Stats` alone.
        config
            .registry
            .gauge(&format!(
                "ledger_sha256_impl{{impl=\"{}\"}}",
                ledgerdb_crypto::sha256::implementation()
            ))
            .set(1);
        RequestService {
            shared: sharded.shard(0).clone(),
            sharded,
            committers,
            admission: config.admission,
            registry: config.registry.clone(),
            metrics,
            shutdown: AtomicBool::new(false),
        }
    }

    fn k(&self) -> usize {
        self.sharded.k()
    }

    /// The shard topology this service routes over.
    pub fn sharded(&self) -> &ShardedLedger {
        &self.sharded
    }

    /// The registry this service exposes on `Stats` and `/metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// True once a drain has begun; transports poll this at frame
    /// boundaries to stop taking new work.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip into drain mode. Returns true for the caller that flipped it
    /// (shutdown is idempotent; only the first caller runs
    /// [`RequestService::finish_drain`]'s checkpoint).
    pub fn begin_drain(&self) -> bool {
        !self.shutdown.swap(true, Ordering::SeqCst)
    }

    /// Final drain steps, after the transport has stopped feeding
    /// requests: flush the commit queue, then — with a checkpoint policy
    /// enabled — flush the sealed prefix into a final checkpoint so the
    /// next start replays only the unsealed tail.
    pub fn finish_drain(&self, first: bool) {
        for committer in &self.committers {
            committer.shutdown();
        }
        // A checkpoint already in flight (an auto-seal fired one) holds
        // the ledger write lock, so this call waits for it to complete
        // rather than abandoning it mid-ladder. A write failure lands
        // on the sticky `ledger_durability_error` gauge instead of
        // aborting the drain — the WAL already holds everything.
        if first {
            for shard in self.sharded.shards() {
                if shard.checkpoints_enabled() {
                    shard.checkpoint_on_drain();
                }
            }
        }
    }

    /// Serve one decoded request, recording its per-kind count and
    /// latency. Every transport funnels through here.
    pub fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }

    /// [`RequestService::handle`] with an optional client-supplied trace
    /// id from a version-2 frame envelope. Every request gets a root
    /// span (named after its wire kind) whether or not the client asked
    /// for tracing: slow or error-terminated requests are pinned in the
    /// flight recorder either way, and server-minted ids surface on
    /// `/trace/slow` and in the slow-op log line.
    pub fn handle_traced(&self, request: Request, wire_trace: Option<u64>) -> Response {
        let per_kind = self.metrics.request(&request);
        let kind = REQUEST_KINDS[kind_index(&request)];
        let trace_id = match wire_trace {
            Some(raw) => TraceId::from_wire(raw),
            None => TraceId::mint(),
        };
        let root = TraceContext::root(trace_id);
        let start = Instant::now();
        let start_ns = trace::now_ns();
        let response = {
            let _scope = trace::install(TraceScope::Single(root));
            self.dispatch(request)
        };
        recorder::finish_root(root, kind, start_ns, matches!(response, Response::Error(_)));
        per_kind.count.inc();
        per_kind.seconds.observe_duration(start.elapsed());
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        if self.draining() {
            if let Request::Append(_) | Request::AppendCommitted(_) | Request::AppendBatch(_) =
                request
            {
                return Response::Error(ErrorFrame {
                    code: ErrorCode::ShuttingDown,
                    detail: "server is draining".into(),
                });
            }
        }
        match request {
            Request::Hello => Response::Hello(ServerInfo {
                protocol_version: PROTOCOL_VERSION,
                ledger_id: self.shared.id(),
                lsp_pk: self.shared.lsp_public_key(),
                fam_delta: self.shared.fam_delta(),
                journal_count: self.shared.journal_count(),
                block_count: self.shared.block_count(),
            }),
            Request::Append(tx) => self.handle_append(tx, false),
            Request::AppendCommitted(tx) => self.handle_append(tx, true),
            Request::GetTx(jsn) => self.route_jsn(jsn, |shard, local| {
                match shard.get_tx(local) {
                    Ok((journal, payload)) => Response::Tx { journal, payload },
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                }
            }),
            Request::ListTx(clue) => {
                let shard_id = self.sharded.route_clue(&clue);
                let _tag = self.shard_span(shard_id);
                let jsns = self.sharded.shard(shard_id).list_tx(&clue);
                Response::TxList(jsns.into_iter().map(|j| self.sharded.pack(shard_id, j)).collect())
            }
            Request::GetProof { jsn, anchor } => self.route_jsn(jsn, |shard, local| {
                match shard.prove_existence(local, &anchor) {
                    Ok((tx_hash, proof)) => Response::Proof { tx_hash, proof },
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                }
            }),
            Request::GetClueProof(clue) => {
                let shard_id = self.sharded.route_clue(&clue);
                let _tag = self.shard_span(shard_id);
                match self.sharded.shard(shard_id).prove_clue(&clue) {
                    Ok(proof) => Response::ClueProof(proof),
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                }
            }
            // §II-C's server manner: the LSP answers from its own
            // records, so the proof and anchor are not consulted.
            Request::Verify { jsn, tx_hash, .. } => self.route_jsn(jsn, |shard, local| {
                let _span = self.metrics.verify_seconds.time("ledger_verify");
                self.metrics.verifies.inc();
                match shard.tx_hash(local) {
                    Ok(held) if held == tx_hash => Response::Verified,
                    Ok(_) => Response::Error(ErrorFrame::from_ledger_error(
                        &AccumulatorError::ProofMismatch.into(),
                    )),
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                }
            }),
            Request::GetAnchor => Response::Anchor(self.shared.anchor()),
            Request::GetBlockFeed { from_height, max_blocks } => {
                Response::BlockFeed(self.shared.blocks_from(from_height, max_blocks))
            }
            Request::Stats => Response::Stats(ledgerdb_telemetry::render(&self.registry)),
            Request::AppendBatch(requests) => self.handle_append_batch(requests),
            Request::GetProofBatch { jsns, anchor } => self.handle_proof_batch(jsns, anchor),
            Request::GetTrace(id) => Response::Trace(
                recorder::events_for(id)
                    .into_iter()
                    .map(|e| SpanRecord {
                        span: e.span,
                        parent: e.parent,
                        name: recorder::name_of(e.name_id).to_string(),
                        start_ns: e.start_ns,
                        end_ns: e.end_ns,
                    })
                    .collect(),
            ),
            Request::GetTopology => Response::Topology(TopologyInfo {
                shards: self.k() as u32,
                epochs: self.sharded.epoch_count(),
                top_root: self.sharded.top_root(),
            }),
            Request::GetShardBlockFeed { shard, from_height, max_blocks } => {
                match self.sharded.check_shard(shard as usize) {
                    Ok(()) => Response::BlockFeed(
                        self.sharded.shard(shard as usize).blocks_from(from_height, max_blocks),
                    ),
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                }
            }
            Request::GetEpochAnchors { from_epoch } => {
                // Cut a fresh epoch if any shard sealed since the last
                // one, so the records a syncing client mirrors always
                // cover the chains it just downloaded.
                self.sharded.ensure_epoch();
                Response::EpochAnchors(self.sharded.epochs_from(from_epoch))
            }
            Request::GetComposedProof { jsn, anchor } => {
                let tag = self.sharded.unpack(jsn).ok().map(|(s, _)| self.shard_span(s));
                let response = match self.sharded.prove_composed(jsn, &anchor) {
                    Ok(proof) => Response::Composed(proof),
                    Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
                };
                drop(tag);
                response
            }
            Request::GetStateProof(clue) => {
                // Routed like any clue query; the proof (inclusion or
                // verifiable absence) is checked client-side against
                // the caller's own synced state root.
                let shard_id = self.sharded.route_clue(&clue);
                let _tag = self.shard_span(shard_id);
                Response::StateProof(self.sharded.shard(shard_id).prove_state(&clue))
            }
        }
    }

    /// Tag the current span tree with the shard a request routed to —
    /// only on a sharded deployment, so K=1 trace output is unchanged.
    /// These tags are what lets the flight recorder show per-shard lock
    /// windows overlapping (the structural multi-core assertion).
    fn shard_span(&self, shard: usize) -> Option<StageSpan> {
        (self.k() > 1).then(|| StageSpan::begin(shard_stage(shard)))
    }

    /// Split a global jsn, run `f` on its shard with the local jsn, and
    /// tag the span tree with the shard. On K=1 the split is the
    /// identity and never fails — responses are byte-identical to the
    /// unsharded service.
    fn route_jsn(
        &self,
        jsn: u64,
        f: impl FnOnce(&SharedLedger, u64) -> Response,
    ) -> Response {
        match self.sharded.unpack(jsn) {
            Ok((shard, local)) => {
                let _tag = self.shard_span(shard);
                f(self.sharded.shard(shard), local)
            }
            Err(e) => Response::Error(ErrorFrame::from_ledger_error(&e)),
        }
    }

    /// One-frame group commit: the client pre-batched, so the
    /// committer's accumulation window buys nothing — each shard's share
    /// of the frame goes straight through
    /// [`SharedLedger::append_batch`], which prepares it (admission +
    /// digests) off the write lock, fanning the ECDSA admission out
    /// across the cores.
    ///
    /// The frame's requests scatter to their shards preserving per-shard
    /// arrival order (which fixes each shard's jsn assignment) and the
    /// acks gather back into request order with packed global jsns; on
    /// K=1 the scatter is the identity. A shard whose sub-batch fails as
    /// a whole reports that error on exactly its own items — the other
    /// shards' acks are already durable and stand. Only when nothing in
    /// the frame committed is the answer one whole-frame error.
    fn handle_append_batch(&self, requests: Vec<TxRequest>) -> Response {
        match self.admission {
            Admission::Verify => &self.metrics.admission_verify,
            Admission::ProxyTrusted => &self.metrics.admission_proxy,
        }
        .add(requests.len() as u64);
        // A pre-batched frame skips the group committer, so its "queue
        // wait" is just this dispatch prologue — recorded anyway so the
        // AppendBatch span tree has the same stage skeleton as the
        // committer path and the ordering assertion (queue before lock)
        // holds for both.
        drop(StageSpan::begin("batch_queue_wait"));
        let mut by_shard: Vec<Vec<TxRequest>> = (0..self.k()).map(|_| Vec::new()).collect();
        let mut origin: Vec<(usize, usize)> = Vec::with_capacity(requests.len());
        for tx in requests {
            let shard_id = self.sharded.route(&tx);
            origin.push((shard_id, by_shard[shard_id].len()));
            by_shard[shard_id].push(tx);
        }
        let mut per_shard: Vec<Vec<Result<AppendedAck, ErrorFrame>>> = Vec::with_capacity(self.k());
        let mut first_failure = None;
        let mut any_committed = false;
        for (shard_id, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                per_shard.push(Vec::new());
                continue;
            }
            let _tag = self.shard_span(shard_id);
            let shard = self.sharded.shard(shard_id);
            let routed = batch.len();
            let results = shard.append_batch(batch, self.admission);
            // Same sticky-durability discipline as single appends: an
            // auto-seal WAL failure surfaces on the request that
            // triggered it.
            let results = match shard.take_durability_error() {
                Some(e) => Err(e),
                None => results,
            };
            per_shard.push(match results {
                Ok(results) => {
                    any_committed = true;
                    results
                        .into_iter()
                        .map(|result| match result {
                            Ok(ack) => Ok(AppendedAck {
                                jsn: self.sharded.pack(shard_id, ack.jsn),
                                tx_hash: ack.tx_hash,
                            }),
                            Err(e) => Err(ErrorFrame::from_ledger_error(&e)),
                        })
                        .collect()
                }
                Err(e) => {
                    let frame = ErrorFrame::from_ledger_error(&e);
                    first_failure.get_or_insert_with(|| frame.clone());
                    vec![Err(frame); routed]
                }
            });
        }
        match first_failure {
            Some(frame) if !any_committed => Response::Error(frame),
            _ => Response::AppendBatchResult(
                origin
                    .into_iter()
                    .map(|(shard_id, slot)| per_shard[shard_id][slot].clone())
                    .collect(),
            ),
        }
    }

    /// Batch existence proofs. A batch may mix shards (the caller's
    /// anchor can only match one — mismatches fail per item,
    /// positionally, like any stale-anchor proof): unpack once, group
    /// the locals per shard, prove each shard's sub-batch, and scatter
    /// the results back into request order. On K=1 the grouping is the
    /// identity. Snapshot and lock resolution are *hoisted* out of the
    /// per-item closure (see [`SharedLedger::prove_existence_batch`]): a
    /// sub-batch fully covered by the published
    /// [`ReadSnapshot`](ledgerdb_core::ReadSnapshot) is served
    /// lock-free, and anything else proves under a *single* read-lock
    /// acquisition instead of one per item.
    fn handle_proof_batch(&self, jsns: Vec<u64>, anchor: TrustedAnchor) -> Response {
        let mut by_shard: Vec<Vec<u64>> = (0..self.k()).map(|_| Vec::new()).collect();
        let mut origin: Vec<Result<(usize, usize), ErrorFrame>> = Vec::with_capacity(jsns.len());
        for &jsn in &jsns {
            match self.sharded.unpack(jsn) {
                Ok((shard, local)) => {
                    origin.push(Ok((shard, by_shard[shard].len())));
                    by_shard[shard].push(local);
                }
                Err(e) => origin.push(Err(ErrorFrame::from_ledger_error(&e))),
            }
        }
        let mut per_shard: Vec<Vec<Option<_>>> = by_shard
            .iter()
            .enumerate()
            .map(|(shard_id, locals)| {
                if locals.is_empty() {
                    return Vec::new();
                }
                let _tag = self.shard_span(shard_id);
                self.sharded
                    .shard(shard_id)
                    .prove_existence_batch(locals, &anchor)
                    .into_iter()
                    .map(Some)
                    .collect()
            })
            .collect();
        Response::ProofBatch(
            origin
                .into_iter()
                .map(|slot| {
                    let (shard, idx) = slot?;
                    per_shard[shard][idx]
                        .take()
                        .expect("each slot consumed once")
                        .map(|(tx_hash, proof)| ProofItem { tx_hash, proof })
                        .map_err(|e| ErrorFrame::from_ledger_error(&e))
                })
                .collect(),
        )
    }

    fn handle_append(&self, tx: TxRequest, committed: bool) -> Response {
        match self.admission {
            Admission::Verify => self.metrics.admission_verify.inc(),
            Admission::ProxyTrusted => self.metrics.admission_proxy.inc(),
        }
        // Stable clue/member routing: on K=1 this is always shard 0 and
        // the packing below is the identity — the unsharded byte path.
        let shard_id = self.sharded.route(&tx);
        let _tag = self.shard_span(shard_id);
        let shard = self.sharded.shard(shard_id);
        let outcome = self.committers[shard_id].submit(tx, committed);
        // Surface a stashed auto-seal durability failure on the request
        // that caused it: the append's payload is durable, but a block
        // boundary failed to reach the WAL — refuse the ack so the
        // client retries (idempotent at-least-once) instead of trusting
        // a seal that may not survive a crash.
        if let Some(e) = shard.take_durability_error() {
            return Response::Error(ErrorFrame::from_ledger_error(&e));
        }
        match outcome {
            Ok(CommitOutcome::Appended { jsn, tx_hash }) => {
                Response::Appended { jsn: self.sharded.pack(shard_id, jsn), tx_hash }
            }
            Ok(CommitOutcome::Committed(receipt)) => Response::Committed(receipt),
            Err(frame) => Response::Error(frame),
        }
    }

    /// The typed refusal written to a connection over the cap, on either
    /// transport: the binary `Busy` frame. Counted on
    /// `ledger_conn_rejected_total` by the caller.
    pub fn busy_frame() -> Response {
        Response::Error(ErrorFrame {
            code: ErrorCode::Busy,
            detail: "connection limit reached; retry with backoff".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;
    use crate::testutil::shared;
    use ledgerdb_crypto::wire::Wire;

    #[test]
    fn verify_answers_from_the_ledgers_own_tx_hash_and_counts() {
        let (ledger, alice) = shared(4);
        for nonce in 0..6u64 {
            ledger.append(TxRequest::signed(&alice, vec![nonce as u8], vec![], nonce)).unwrap();
        }
        let registry = Arc::new(Registry::new());
        let config = ServerConfig { registry: registry.clone(), ..ServerConfig::default() };
        let service = RequestService::start(ledger.clone(), &config);
        let verifies = || {
            ledgerdb_telemetry::parse_value(&ledgerdb_telemetry::render(&registry), "ledger_verifies_total")
                .unwrap_or(0.0)
        };
        let before = verifies();

        let anchor = ledger.anchor();
        let (tx_hash, proof) = ledger.prove_existence(2, &anchor).unwrap();
        let good = Request::Verify { jsn: 2, tx_hash, proof: proof.clone(), anchor: anchor.clone() };
        assert_eq!(service.handle(good).to_wire(), Response::Verified.to_wire());

        let forged = ledgerdb_crypto::sha256(b"never appended");
        let bad = Request::Verify { jsn: 2, tx_hash: forged, proof, anchor };
        let rejected = Response::Error(ErrorFrame {
            code: ErrorCode::Rejected,
            detail: "accumulator failure: proof does not match trusted root".into(),
        });
        assert_eq!(service.handle(bad).to_wire(), rejected.to_wire());

        assert_eq!(verifies() - before, 2.0, "each Verify request counts once");
    }
}
