//! [`RemoteLedger`]: the distrusting client end of the `ledgerd` wire.
//!
//! The transport is untrusted exactly like the LSP it fronts (§II-B
//! threat model): every byte that comes back is a *claim*. The remote
//! client therefore embeds a [`LedgerClient`] replica and
//!
//! * syncs by downloading sealed blocks over `GetBlockFeed` and
//!   replaying them through its own fam tree — a tampered feed is
//!   rejected at the first inconsistent block;
//! * requests existence proofs against **its own** anchor and verifies
//!   them against **its own** root ([`RemoteLedger::prove`] never
//!   returns an unverified proof);
//! * verifies receipts against the pinned LSP key and its own verified
//!   block-hash set.
//!
//! The LSP key and fam δ are learned from the `Hello` handshake —
//! trust-on-first-use. A deployment that distributes the LSP key
//! out-of-band should check [`RemoteLedger::info`] against the pinned
//! key after connecting.
//!
//! Transport resilience ([`RemoteConfig`]): every request runs under a
//! per-request deadline (connect, write, and read timeouts), so a
//! server that dies mid-request — or silently stops answering — yields
//! a typed [`RemoteError::Frame`] instead of a hang. A transport
//! failure poisons the connection (the stream offset is unknown after a
//! half-written request or half-read response); the next call redials
//! with bounded exponential backoff, re-runs the `Hello` handshake, and
//! refuses to proceed if the server's identity (ledger id, LSP key,
//! fam δ) changed across the reconnect. The embedded [`LedgerClient`]
//! replica — the verified chain — survives reconnects untouched.

use crate::protocol::{
    read_frame, write_frame, write_traced_frame, ErrorFrame, FrameError, ProofItem, Request,
    Response, ServerInfo, SpanRecord, TopologyInfo, DEFAULT_MAX_FRAME,
};
use ledgerdb_accumulator::fam::FamProof;
use ledgerdb_clue::cm_tree::ClueProof;
use ledgerdb_core::client::{LedgerClient, SyncReport};
use ledgerdb_core::{
    unpack_jsn, ComposedProof, Journal, LedgerError, Receipt, ShardedClient, StateProof, TxRequest,
};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::wire::{Wire, WireError};
use std::fmt;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport/framing failure.
    Frame(FrameError),
    /// The server's bytes failed to decode.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
    /// The server answered with the wrong response kind.
    Protocol(String),
    /// Local verification rejected the server's claim.
    Verify(LedgerError),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Frame(e) => write!(f, "transport: {e}"),
            RemoteError::Wire(e) => write!(f, "undecodable response: {e}"),
            RemoteError::Server(e) => write!(f, "server error: {e}"),
            RemoteError::Protocol(what) => write!(f, "protocol violation: {what}"),
            RemoteError::Verify(e) => write!(f, "verification rejected server claim: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<FrameError> for RemoteError {
    fn from(e: FrameError) -> Self {
        RemoteError::Frame(e)
    }
}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Frame(FrameError::Io(e))
    }
}

/// How many blocks one `GetBlockFeed` round trip asks for.
const SYNC_CHUNK: u64 = 256;

/// Transport-resilience knobs for [`RemoteLedger`].
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Per-request deadline: the socket connect, write, and read
    /// timeout. A request that exceeds it fails with a typed
    /// [`RemoteError::Frame`] — a call never hangs on a dead or silent
    /// server.
    pub request_timeout: Duration,
    /// Redial retries after a failed reconnect attempt before the call
    /// gives up (`0` fails on the first dial error). Reconnects happen
    /// lazily: a transport failure poisons the connection and the
    /// *next* call redials.
    pub max_reconnect_attempts: u32,
    /// Backoff before the first reconnect retry; doubles per attempt.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            request_timeout: Duration::from_secs(30),
            max_reconnect_attempts: 3,
            backoff_initial: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
        }
    }
}

/// The live transport: a writable stream plus its buffered read half
/// (one syscall per response frame instead of three).
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A connected, distrusting ledger client.
pub struct RemoteLedger {
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    config: RemoteConfig,
    /// `None` after a transport failure — the next call redials.
    conn: Option<Conn>,
    info: ServerInfo,
    client: LedgerClient,
    max_frame: u32,
    /// When on, every request ships in a version-2 traced frame with a
    /// client-minted trace id (kept in `last_trace_id`).
    tracing: bool,
    /// Trace id of the most recent traced call; `0` before the first.
    last_trace_id: u64,
    /// Per-shard distrusting replicas plus the client-grown anchor
    /// mirror; built lazily on the first [`RemoteLedger::sync_sharded`]
    /// from the server-reported shard count.
    sharded: Option<ShardedClient>,
}

impl RemoteLedger {
    /// Connect and handshake with the default [`RemoteConfig`]. The
    /// returned client trusts only what it verifies; the LSP key is
    /// trust-on-first-use from the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteLedger, RemoteError> {
        Self::connect_with(addr, RemoteConfig::default())
    }

    /// Connect and handshake with explicit deadline/backoff settings.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: RemoteConfig,
    ) -> Result<RemoteLedger, RemoteError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(RemoteError::from)?.collect();
        if addrs.is_empty() {
            return Err(RemoteError::Protocol("address resolved to nothing".into()));
        }
        // A `Busy` refusal (the server is over its connection cap right
        // now) is an explicit retry invitation, not a failure: back off
        // like a reconnect would. Anything else still fails fast.
        let mut backoff = config.backoff_initial;
        let mut attempt = 0u32;
        let (conn, info) = loop {
            match dial(&addrs, &config) {
                Ok(dialed) => break dialed,
                Err(RemoteError::Server(frame))
                    if frame.code == crate::protocol::ErrorCode::Busy
                        && attempt < config.max_reconnect_attempts =>
                {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.backoff_max);
                }
                Err(e) => return Err(e),
            }
        };
        let client = LedgerClient::new(info.lsp_pk, info.fam_delta);
        Ok(RemoteLedger {
            addrs,
            config,
            conn: Some(conn),
            info,
            client,
            max_frame: DEFAULT_MAX_FRAME,
            tracing: false,
            last_trace_id: 0,
            sharded: None,
        })
    }

    /// The handshake identity (check against out-of-band pins).
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// The embedded distrusting replica.
    pub fn client(&self) -> &LedgerClient {
        &self.client
    }

    /// True while the transport is believed healthy (a failed call
    /// poisons it; the next call redials).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Toggle request tracing. While on, every call ships in a
    /// version-2 traced frame carrying a client-minted trace id, so the
    /// server's span tree for the request is retrievable afterwards via
    /// [`RemoteLedger::get_trace`] with [`RemoteLedger::last_trace_id`].
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Trace id the most recent traced call carried (`0` before any) —
    /// join client-observed latency to the server's stage breakdown.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Fetch the server's retained span tree for `trace_id` (a
    /// [`RemoteLedger::last_trace_id`] value, or one lifted from a
    /// slow-op log line). Empty when the trace aged out unpinned.
    pub fn get_trace(&mut self, trace_id: u64) -> Result<Vec<SpanRecord>, RemoteError> {
        match self.call(&Request::GetTrace(trace_id))? {
            Response::Trace(spans) => Ok(spans),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Redial with bounded exponential backoff and re-handshake. The
    /// new `Hello` must present the same ledger id, LSP key, and fam δ
    /// as the pinned first handshake — an impostor answering the
    /// reconnect is refused before any request reaches it.
    fn ensure_connected(&mut self) -> Result<(), RemoteError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut backoff = self.config.backoff_initial;
        let mut attempt = 0u32;
        loop {
            match dial(&self.addrs, &self.config) {
                Ok((conn, info)) => {
                    if info.ledger_id != self.info.ledger_id
                        || info.lsp_pk != self.info.lsp_pk
                        || info.fam_delta != self.info.fam_delta
                    {
                        return Err(RemoteError::Protocol(
                            "server identity changed across reconnect".into(),
                        ));
                    }
                    self.info = info;
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= self.config.max_reconnect_attempts {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.config.backoff_max);
                }
            }
        }
    }

    /// One request/response round trip. Error frames become
    /// [`RemoteError::Server`]. A transport failure (timeout, reset,
    /// close) poisons the connection: the stream offset is unknown
    /// after a half-written request or half-read response, so the next
    /// call redials instead of misreading a stale frame.
    fn call(&mut self, request: &Request) -> Result<Response, RemoteError> {
        self.ensure_connected()?;
        // Mint the id before borrowing the connection: the id must be
        // known to the caller even if the transport fails mid-call.
        let trace_id = if self.tracing {
            let id = ledgerdb_telemetry::trace::TraceId::mint().0;
            self.last_trace_id = id;
            Some(id)
        } else {
            None
        };
        let conn = self.conn.as_mut().expect("ensure_connected just succeeded");
        let result = (|| {
            match trace_id {
                Some(id) => write_traced_frame(&mut conn.stream, id, &request.to_wire())?,
                None => write_frame(&mut conn.stream, &request.to_wire())?,
            }
            let body = read_frame(&mut conn.reader, self.max_frame)?;
            match Response::from_wire(&body)? {
                Response::Error(frame) => Err(RemoteError::Server(frame)),
                response => Ok(response),
            }
        })();
        if matches!(result, Err(RemoteError::Frame(_))) {
            self.conn = None;
        }
        result
    }

    /// Append; the ack means the payload is durable server-side.
    pub fn append(&mut self, request: TxRequest) -> Result<(u64, Digest), RemoteError> {
        match self.call(&Request::Append(request))? {
            Response::Appended { jsn, tx_hash } => Ok((jsn, tx_hash)),
            other => Err(unexpected("Appended", &other)),
        }
    }

    /// Append a whole batch in one frame: one round trip, one
    /// group-committed durability barrier server-side. Each element of
    /// the result is that request's durable ack or its typed rejection
    /// — order is positional, matching `requests`.
    pub fn append_batch(
        &mut self,
        requests: Vec<TxRequest>,
    ) -> Result<Vec<Result<(u64, Digest), ErrorFrame>>, RemoteError> {
        let n = requests.len();
        let results = match self.call(&Request::AppendBatch(requests))? {
            Response::AppendBatchResult(results) => results,
            other => return Err(unexpected("AppendBatchResult", &other)),
        };
        if results.len() != n {
            // A lying or truncating server answered the batch with the
            // wrong cardinality: positional attribution is impossible,
            // so the whole batch is refused with a typed frame error.
            // The frame itself was well-formed — the stream is still
            // synchronized — so the connection is *not* poisoned.
            return Err(RemoteError::Frame(FrameError::BatchLengthMismatch {
                sent: n as u64,
                got: results.len() as u64,
            }));
        }
        Ok(results
            .into_iter()
            .map(|result| result.map(|ack| (ack.jsn, ack.tx_hash)))
            .collect())
    }

    /// Append + seal; the receipt is *not* yet verified (its block must
    /// first be synced) — use [`RemoteLedger::append_committed_verified`]
    /// for the full distrusting round trip.
    pub fn append_committed(&mut self, request: TxRequest) -> Result<Receipt, RemoteError> {
        match self.call(&Request::AppendCommitted(request))? {
            Response::Committed(receipt) => Ok(receipt),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Append + seal, then sync the block feed and verify the receipt
    /// against the client's own verified chain, and against `request`,
    /// before returning it.
    pub fn append_committed_verified(
        &mut self,
        request: TxRequest,
    ) -> Result<Receipt, RemoteError> {
        let request_hash = request.hash();
        let receipt = self.append_committed(request)?;
        self.sync()?;
        // A receipt for somebody else's request is not this append's.
        if receipt.request_hash != request_hash {
            return Err(RemoteError::Verify(LedgerError::BadReceipt));
        }
        self.client.verify_receipt(&receipt).map_err(RemoteError::Verify)?;
        Ok(receipt)
    }

    /// Download and verify new sealed blocks until the feed is drained.
    pub fn sync(&mut self) -> Result<SyncReport, RemoteError> {
        let mut total = SyncReport::default();
        loop {
            let request = Request::GetBlockFeed {
                from_height: self.client.height(),
                max_blocks: SYNC_CHUNK,
            };
            let blocks = match self.call(&request)? {
                Response::BlockFeed(blocks) => blocks,
                other => return Err(unexpected("BlockFeed", &other)),
            };
            let n = blocks.len() as u64;
            if n == 0 {
                return Ok(total);
            }
            let report = self.client.sync(&blocks).map_err(RemoteError::Verify)?;
            total.blocks_accepted += report.blocks_accepted;
            total.journals_replayed += report.journals_replayed;
            if n < SYNC_CHUNK {
                return Ok(total);
            }
        }
    }

    /// Fetch an existence proof for `jsn` against the client's **own**
    /// anchor and verify it against the client's own root before
    /// returning. An LSP that cannot prove the journal against the
    /// verified replica is caught here.
    pub fn prove(&mut self, jsn: u64) -> Result<(Digest, FamProof), RemoteError> {
        let anchor = self.client.anchor();
        let (tx_hash, proof) = match self.call(&Request::GetProof { jsn, anchor })? {
            Response::Proof { tx_hash, proof } => (tx_hash, proof),
            other => return Err(unexpected("Proof", &other)),
        };
        self.client
            .verify_existence(&tx_hash, &proof)
            .map_err(RemoteError::Verify)?;
        Ok((tx_hash, proof))
    }

    /// Fetch existence proofs for a batch of jsns in one frame, against
    /// the client's **own** anchor, and verify every returned proof
    /// against the client's own root before returning — a proof the
    /// server could forge or misattribute never leaves this method
    /// unverified. Per-item server rejections pass through positionally
    /// as `Err(ErrorFrame)`.
    pub fn prove_batch(
        &mut self,
        jsns: Vec<u64>,
    ) -> Result<Vec<Result<(Digest, FamProof), ErrorFrame>>, RemoteError> {
        let anchor = self.client.anchor();
        let n = jsns.len();
        let items = match self.call(&Request::GetProofBatch { jsns, anchor })? {
            Response::ProofBatch(items) => items,
            other => return Err(unexpected("ProofBatch", &other)),
        };
        if items.len() != n {
            // Same posture as `append_batch`: wrong cardinality makes
            // positional verification meaningless — refuse the batch
            // with a typed error rather than mis-attribute proofs.
            return Err(RemoteError::Frame(FrameError::BatchLengthMismatch {
                sent: n as u64,
                got: items.len() as u64,
            }));
        }
        items
            .into_iter()
            .map(|item| match item {
                Ok(ProofItem { tx_hash, proof }) => {
                    self.client
                        .verify_existence(&tx_hash, &proof)
                        .map_err(RemoteError::Verify)?;
                    Ok(Ok((tx_hash, proof)))
                }
                Err(frame) => Ok(Err(frame)),
            })
            .collect()
    }

    /// Fetch a clue lineage proof and verify it against the trusted clue
    /// root from the client's newest verified block.
    pub fn prove_clue(&mut self, clue: &str) -> Result<ClueProof, RemoteError> {
        let proof = match self.call(&Request::GetClueProof(clue.to_string()))? {
            Response::ClueProof(proof) => proof,
            other => return Err(unexpected("ClueProof", &other)),
        };
        self.client.verify_clue(&proof).map_err(RemoteError::Verify)?;
        Ok(proof)
    }

    /// Fetch a state-commitment proof for a clue — inclusion of its
    /// latest-payload digest, or verifiable absence — and verify it
    /// against the client's **own** trusted state root (from the newest
    /// verified block) before returning. Call [`RemoteLedger::sync`]
    /// first; a proof the server built against a newer root than the
    /// client has verified is rejected here, like any stale proof.
    /// Returns the proof plus the proven digest bytes (`None` =
    /// verified absence).
    pub fn prove_state(
        &mut self,
        clue: &str,
    ) -> Result<(StateProof, Option<Vec<u8>>), RemoteError> {
        let proof = match self.call(&Request::GetStateProof(clue.to_string()))? {
            Response::StateProof(proof) => proof,
            other => return Err(unexpected("StateProof", &other)),
        };
        let value = self
            .client
            .verify_state(&proof)
            .map_err(RemoteError::Verify)?
            .map(|v| v.to_vec());
        Ok((proof, value))
    }

    /// Fetch a journal and its payload (unverified convenience read;
    /// verify the payload digest against a proof for a distrusted read).
    pub fn get_tx(&mut self, jsn: u64) -> Result<(Journal, Option<Vec<u8>>), RemoteError> {
        match self.call(&Request::GetTx(jsn))? {
            Response::Tx { journal, payload } => Ok((journal, payload)),
            other => Err(unexpected("Tx", &other)),
        }
    }

    /// jsns the server records under a clue (claims; prove to verify).
    pub fn list_tx(&mut self, clue: &str) -> Result<Vec<u64>, RemoteError> {
        match self.call(&Request::ListTx(clue.to_string()))? {
            Response::TxList(jsns) => Ok(jsns),
            other => Err(unexpected("TxList", &other)),
        }
    }

    /// Fetch the server's telemetry snapshot (Prometheus-style text).
    /// Claims, not proofs — stats carry no signature; use them for
    /// operations, not verification.
    pub fn stats(&mut self) -> Result<String, RemoteError> {
        match self.call(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the server to verify a proof on its side (§II-C manner 1 —
    /// useful for cross-checking, not a substitute for local checks).
    pub fn server_verify(
        &mut self,
        jsn: u64,
        tx_hash: Digest,
        proof: FamProof,
    ) -> Result<(), RemoteError> {
        let anchor = self.client.anchor();
        match self.call(&Request::Verify { jsn, tx_hash, proof, anchor })? {
            Response::Verified => Ok(()),
            other => Err(unexpected("Verified", &other)),
        }
    }

    /// The server's shard topology: shard count, epoch count, and its
    /// *claimed* top anchor root. Claims, not proofs — the top root is
    /// only trusted once [`RemoteLedger::sync_sharded`] re-derives it
    /// from verified per-shard chains.
    pub fn topology(&mut self) -> Result<TopologyInfo, RemoteError> {
        match self.call(&Request::GetTopology)? {
            Response::Topology(info) => Ok(info),
            other => Err(unexpected("Topology", &other)),
        }
    }

    /// The per-shard distrusting replicas, once built by
    /// [`RemoteLedger::sync_sharded`].
    pub fn sharded(&self) -> Option<&ShardedClient> {
        self.sharded.as_ref()
    }

    /// Sync every shard's block feed through its own verified replica,
    /// then mirror the server's epoch-anchor records — accepting only
    /// records whose roots match roots this client itself verified —
    /// and grow the client's own top anchor tree from them.
    pub fn sync_sharded(&mut self) -> Result<SyncReport, RemoteError> {
        let topo = self.topology()?;
        let k = topo.shards as usize;
        if self.sharded.as_ref().map(|s| s.k()) != Some(k) {
            if self.sharded.is_some() {
                return Err(RemoteError::Protocol(format!(
                    "server changed shard count across calls (had {}, now {k})",
                    self.sharded.as_ref().map(|s| s.k()).unwrap_or(0)
                )));
            }
            self.sharded = Some(
                ShardedClient::new(self.info.lsp_pk, self.info.fam_delta, k)
                    .map_err(RemoteError::Verify)?,
            );
        }
        let mut total = SyncReport::default();
        for shard in 0..k {
            loop {
                let from_height =
                    self.sharded.as_ref().expect("built above").height(shard);
                let request = Request::GetShardBlockFeed {
                    shard: shard as u32,
                    from_height,
                    max_blocks: SYNC_CHUNK,
                };
                let blocks = match self.call(&request)? {
                    Response::BlockFeed(blocks) => blocks,
                    other => return Err(unexpected("BlockFeed", &other)),
                };
                let n = blocks.len() as u64;
                if n == 0 {
                    break;
                }
                let report = self
                    .sharded
                    .as_mut()
                    .expect("built above")
                    .sync_shard(shard, &blocks)
                    .map_err(RemoteError::Verify)?;
                total.blocks_accepted += report.blocks_accepted;
                total.journals_replayed += report.journals_replayed;
                if n < SYNC_CHUNK {
                    break;
                }
            }
        }
        let from_epoch = self.sharded.as_ref().expect("built above").epoch_count();
        let records = match self.call(&Request::GetEpochAnchors { from_epoch })? {
            Response::EpochAnchors(records) => records,
            other => return Err(unexpected("EpochAnchors", &other)),
        };
        self.sharded
            .as_mut()
            .expect("built above")
            .ingest_epochs(&records)
            .map_err(RemoteError::Verify)?;
        Ok(total)
    }

    /// Fetch a composed proof for a global jsn — shard existence proof
    /// plus the anchor path placing that shard's sealed root in the
    /// top tree — and verify *both* layers against this client's own
    /// replicas and own top root before returning.
    pub fn prove_composed(&mut self, jsn: u64) -> Result<ComposedProof, RemoteError> {
        let sharded = self.sharded.as_ref().ok_or_else(|| {
            RemoteError::Protocol("call sync_sharded before prove_composed".into())
        })?;
        let (shard, _) = unpack_jsn(jsn, sharded.k());
        if shard >= sharded.k() {
            return Err(RemoteError::Verify(LedgerError::Shard(format!(
                "jsn {jsn} names unknown shard {shard}"
            ))));
        }
        let anchor = sharded.anchor(shard);
        let proof = match self.call(&Request::GetComposedProof { jsn, anchor })? {
            Response::Composed(proof) => proof,
            other => return Err(unexpected("Composed", &other)),
        };
        self.sharded
            .as_ref()
            .expect("checked above")
            .verify_composed(&proof)
            .map_err(RemoteError::Verify)?;
        Ok(proof)
    }
}

fn unexpected(wanted: &str, got: &Response) -> RemoteError {
    RemoteError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

/// Dial any of the resolved addresses under the per-request deadline
/// (connect, write, and read) and run the `Hello` handshake.
fn dial(addrs: &[SocketAddr], config: &RemoteConfig) -> Result<(Conn, ServerInfo), RemoteError> {
    let mut last: Option<std::io::Error> = None;
    let mut connected = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, config.request_timeout) {
            Ok(stream) => {
                connected = Some(stream);
                break;
            }
            Err(e) => last = Some(e),
        }
    }
    let mut stream = match connected {
        Some(stream) => stream,
        None => {
            return Err(last
                .map(RemoteError::from)
                .unwrap_or_else(|| RemoteError::Protocol("no address to dial".into())))
        }
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(config.request_timeout)).map_err(RemoteError::from)?;
    stream.set_write_timeout(Some(config.request_timeout)).map_err(RemoteError::from)?;
    write_frame(&mut stream, &Request::Hello.to_wire())?;
    let body = read_frame(&mut stream, DEFAULT_MAX_FRAME)?;
    let info = match Response::from_wire(&body)? {
        Response::Hello(info) => info,
        Response::Error(frame) => return Err(RemoteError::Server(frame)),
        other => return Err(unexpected("Hello", &other)),
    };
    let reader = BufReader::with_capacity(16 * 1024, stream.try_clone().map_err(RemoteError::from)?);
    Ok((Conn { stream, reader }, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Ledgerd, ServerConfig};
    use crate::testutil::shared;
    use ledgerdb_core::TxRequest;
    use std::net::{Shutdown, TcpListener};
    use std::sync::{Arc, Mutex};
    use std::thread;
    use std::time::Instant;

    fn fast_config() -> RemoteConfig {
        RemoteConfig {
            request_timeout: Duration::from_secs(5),
            max_reconnect_attempts: 5,
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
        }
    }

    /// A byte-level TCP relay in front of the real server. Severing its
    /// live connections is, from the client's point of view, exactly a
    /// server crash mid-request — but the listening socket survives, so
    /// the reconnect path is not at the mercy of TIME_WAIT rebinding.
    struct Proxy {
        addr: SocketAddr,
        upstream: Arc<Mutex<SocketAddr>>,
        live: Arc<Mutex<Vec<TcpStream>>>,
    }

    impl Proxy {
        fn start(upstream_addr: SocketAddr) -> Proxy {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let upstream = Arc::new(Mutex::new(upstream_addr));
            let live: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let (upstream_for_loop, live_for_loop) = (upstream.clone(), live.clone());
            thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(client) = stream else { return };
                    let target = *upstream_for_loop.lock().unwrap();
                    let Ok(server) = TcpStream::connect(target) else { continue };
                    client.set_nodelay(true).ok();
                    server.set_nodelay(true).ok();
                    {
                        let mut live = live_for_loop.lock().unwrap();
                        live.push(client.try_clone().unwrap());
                        live.push(server.try_clone().unwrap());
                    }
                    let (mut cr, mut sw) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                    thread::spawn(move || {
                        let _ = std::io::copy(&mut cr, &mut sw);
                        let _ = sw.shutdown(Shutdown::Both);
                    });
                    let (mut sr, mut cw) = (server, client);
                    thread::spawn(move || {
                        let _ = std::io::copy(&mut sr, &mut cw);
                        let _ = cw.shutdown(Shutdown::Both);
                    });
                }
            });
            Proxy { addr, upstream, live }
        }

        /// Sever every live relay — the wire view of a server crash.
        fn kill_connections(&self) {
            for stream in self.live.lock().unwrap().drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }

        /// Point future connections at a different server (the wire view
        /// of a restart that came back as somebody else).
        fn retarget(&self, addr: SocketAddr) {
            *self.upstream.lock().unwrap() = addr;
        }
    }

    fn tx(alice: &ledgerdb_crypto::keys::KeyPair, nonce: u64) -> TxRequest {
        TxRequest::signed(alice, format!("r-{nonce}").into_bytes(), vec![], nonce)
    }

    #[test]
    fn mid_request_server_death_is_typed_and_the_retry_succeeds() {
        let (shared, alice) = shared(4);
        let server = Ledgerd::start(shared, ServerConfig::default()).unwrap();
        let proxy = Proxy::start(server.local_addr());

        let mut remote = RemoteLedger::connect_with(proxy.addr, fast_config()).unwrap();
        let (jsn, _) = remote.append(tx(&alice, 0)).unwrap();
        assert_eq!(jsn, 0);

        // The "server" dies between the ack and the next request.
        proxy.kill_connections();
        let start = Instant::now();
        let err = remote.append(tx(&alice, 1)).unwrap_err();
        assert!(
            matches!(err, RemoteError::Frame(_)),
            "a severed transport must surface as a typed frame error, got: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the failure must be prompt, not a hang"
        );
        assert!(!remote.is_connected(), "the poisoned connection is dropped");

        // The caller retries: the client redials through the proxy,
        // re-handshakes against the same pinned identity, and the
        // request lands. The verified replica survived the reconnect.
        let (jsn, _) = remote.append(tx(&alice, 1)).unwrap();
        assert_eq!(jsn, 1);
        remote.sync().unwrap();
        assert!(remote.is_connected());
        server.shutdown();
    }

    #[test]
    fn silent_server_trips_the_request_deadline() {
        // A stub that completes the handshake, then swallows the next
        // request and never answers — the pathological hang case.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lsp = ledgerdb_crypto::keys::KeyPair::from_seed(b"silent-stub");
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let lsp_pk = *lsp.public();
                thread::spawn(move || {
                    if read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err() {
                        return;
                    }
                    let info = ServerInfo {
                        protocol_version: crate::protocol::PROTOCOL_VERSION,
                        ledger_id: ledgerdb_crypto::sha256(b"silent-ledger"),
                        lsp_pk,
                        fam_delta: 15,
                        journal_count: 0,
                        block_count: 0,
                    };
                    let _ = write_frame(&mut stream, &Response::Hello(info).to_wire());
                    // Read the request, answer nothing, hold the socket.
                    let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME);
                    thread::sleep(Duration::from_secs(30));
                });
            }
        });

        let config = RemoteConfig {
            request_timeout: Duration::from_millis(250),
            max_reconnect_attempts: 0,
            ..fast_config()
        };
        let mut remote = RemoteLedger::connect_with(addr, config).unwrap();
        let start = Instant::now();
        let err = remote.stats().unwrap_err();
        match &err {
            RemoteError::Frame(frame) => {
                assert!(frame.is_timeout(), "expected a deadline trip, got: {frame}")
            }
            other => panic!("expected a typed frame error, got: {other}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "the deadline bounds the wait: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn receipt_for_someone_elses_request_is_rejected() {
        // A stub serving an honest ledger's handshake and block feed,
        // which answers every committed append with the genuine,
        // LSP-signed receipt of jsn 0 — a journal that is not the
        // caller's request.
        let (ledger, alice) = shared(4);
        for nonce in 0..4 {
            ledger.append(tx(&alice, nonce)).unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let Some(Ok(mut stream)) = listener.incoming().next() else { return };
            while let Ok(body) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
                let response = match Request::from_wire(&body) {
                    Ok(Request::Hello) => Response::Hello(ServerInfo {
                        protocol_version: crate::protocol::PROTOCOL_VERSION,
                        ledger_id: ledger.id(),
                        lsp_pk: ledger.lsp_public_key(),
                        fam_delta: ledger.fam_delta(),
                        journal_count: ledger.journal_count(),
                        block_count: ledger.block_count(),
                    }),
                    Ok(Request::AppendCommitted(_)) => {
                        Response::Committed(ledger.receipt(0).unwrap().unwrap())
                    }
                    Ok(Request::GetBlockFeed { from_height, max_blocks }) => {
                        Response::BlockFeed(ledger.blocks_from(from_height, max_blocks))
                    }
                    other => panic!("unexpected request {other:?}"),
                };
                if write_frame(&mut stream, &response.to_wire()).is_err() {
                    return;
                }
            }
        });

        let mut remote = RemoteLedger::connect_with(addr, fast_config()).unwrap();
        let err = remote.append_committed_verified(tx(&alice, 99)).unwrap_err();
        assert!(
            matches!(err, RemoteError::Verify(LedgerError::BadReceipt)),
            "a receipt bound to another request must not verify, got: {err}"
        );
        // The receipt itself is genuine: only the request binding fails.
        let stolen = remote.append_committed(tx(&alice, 99)).unwrap();
        remote.client().verify_receipt(&stolen).unwrap();
    }

    #[test]
    fn lying_batch_cardinality_is_a_typed_length_mismatch() {
        // A stub that completes the handshake, then answers every batch
        // with the wrong number of results: short (empty) for the first
        // request, over-long for the second. Either way the client must
        // refuse the whole batch with a typed error — positional
        // attribution against a lying server is meaningless.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lsp = ledgerdb_crypto::keys::KeyPair::from_seed(b"lying-stub");
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let lsp_pk = *lsp.public();
                thread::spawn(move || {
                    if read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err() {
                        return;
                    }
                    let info = ServerInfo {
                        protocol_version: crate::protocol::PROTOCOL_VERSION,
                        ledger_id: ledgerdb_crypto::sha256(b"lying-ledger"),
                        lsp_pk,
                        fam_delta: 15,
                        journal_count: 0,
                        block_count: 0,
                    };
                    let _ = write_frame(&mut stream, &Response::Hello(info).to_wire());
                    // First batch: answer short (no results at all).
                    if read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err() {
                        return;
                    }
                    let short = Response::AppendBatchResult(Vec::new());
                    let _ = write_frame(&mut stream, &short.to_wire());
                    // Second batch: answer over-long (three rejections
                    // for a single asked-for proof).
                    if read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err() {
                        return;
                    }
                    let reject = || ErrorFrame {
                        code: crate::protocol::ErrorCode::NotFound,
                        detail: "fabricated".into(),
                    };
                    let long = Response::ProofBatch(vec![
                        Err(reject()),
                        Err(reject()),
                        Err(reject()),
                    ]);
                    let _ = write_frame(&mut stream, &long.to_wire());
                    // Hold the socket open so poisoning is observable.
                    thread::sleep(Duration::from_secs(5));
                });
            }
        });

        let alice = ledgerdb_crypto::keys::KeyPair::from_seed(b"lying-alice");
        let mut remote = RemoteLedger::connect_with(addr, fast_config()).unwrap();

        let err = remote.append_batch(vec![tx(&alice, 0), tx(&alice, 1)]).unwrap_err();
        match &err {
            RemoteError::Frame(FrameError::BatchLengthMismatch { sent, got }) => {
                assert_eq!((*sent, *got), (2, 0));
            }
            other => panic!("short batch reply must be a typed length mismatch, got: {other}"),
        }
        assert!(
            remote.is_connected(),
            "a well-framed lying reply leaves the stream synchronized; no redial needed"
        );

        let err = remote.prove_batch(vec![7]).unwrap_err();
        match &err {
            RemoteError::Frame(FrameError::BatchLengthMismatch { sent, got }) => {
                assert_eq!((*sent, *got), (1, 3));
            }
            other => panic!("over-long batch reply must be a typed length mismatch, got: {other}"),
        }
        assert!(remote.is_connected());
    }

    #[test]
    fn sharded_server_composed_proofs_verify_end_to_end() {
        for k in [1usize, 2, 4] {
            let (sharded, alice) = crate::testutil::sharded(k, 1);
            let server = Ledgerd::start_sharded(sharded, ServerConfig::default()).unwrap();
            let mut remote =
                RemoteLedger::connect_with(server.local_addr(), fast_config()).unwrap();

            assert_eq!(remote.topology().unwrap().shards as usize, k);

            // Clue-spread appends land on different shards; block_size 1
            // seals each immediately, so every journal is anchorable.
            let mut jsns = Vec::new();
            for i in 0..12u64 {
                let tx = TxRequest::signed(
                    &alice,
                    format!("shard-payload-{i}").into_bytes(),
                    vec![format!("clue-{i}")],
                    i,
                );
                let (jsn, _) = remote.append(tx).unwrap();
                jsns.push(jsn);
            }
            let shards_hit: std::collections::BTreeSet<u64> =
                jsns.iter().map(|jsn| jsn >> 56).collect();
            assert_eq!(shards_hit.len(), k, "K={k}: the clues reach every shard");

            remote.sync_sharded().unwrap();
            let own_top = remote.sharded().unwrap().top_root();
            assert_eq!(
                remote.topology().unwrap().top_root,
                own_top,
                "K={k}: client-derived top root must match the server's"
            );

            // `prove_composed` verifies both legs against the client's
            // own replicas and top tree before returning.
            for jsn in jsns {
                let proof = remote
                    .prove_composed(jsn)
                    .unwrap_or_else(|e| panic!("K={k}: composed proof for {jsn} rejected: {e}"));
                assert_eq!(proof.shard as u64, jsn >> 56, "shard id rides in the jsn high byte");
            }
            server.shutdown();
        }
    }

    #[test]
    fn reconnect_backoff_is_bounded_when_the_server_stays_down() {
        let (shared, _) = shared(4);
        let server = Ledgerd::start(shared, ServerConfig::default()).unwrap();
        let config = RemoteConfig {
            request_timeout: Duration::from_millis(500),
            max_reconnect_attempts: 2,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
        };
        let mut remote = RemoteLedger::connect_with(server.local_addr(), config).unwrap();
        server.shutdown();
        drop(server);

        // First call after the crash: the live socket is dead.
        let err = remote.stats().unwrap_err();
        assert!(matches!(err, RemoteError::Frame(_)), "got: {err}");
        // Second call: redial, 1 + max_reconnect_attempts dials against
        // a closed port, then a typed error — bounded, not forever.
        let start = Instant::now();
        let err = remote.stats().unwrap_err();
        assert!(matches!(err, RemoteError::Frame(_)), "got: {err}");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "bounded backoff must give up promptly: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn reconnect_refuses_a_server_with_a_different_identity() {
        let (shared_a, alice) = shared(4);
        let server_a = Ledgerd::start(shared_a, ServerConfig::default()).unwrap();
        // A second, unrelated ledger (fresh keys, different id).
        let (shared_b, _) = {
            let ca = ledgerdb_crypto::ca::CertificateAuthority::from_seed(b"imposter-ca");
            let alice = ledgerdb_crypto::keys::KeyPair::from_seed(b"imposter-alice");
            let mut registry = ledgerdb_core::MemberRegistry::new(*ca.public_key());
            registry
                .register(ca.issue("alice", ledgerdb_crypto::ca::Role::User, alice.public()))
                .unwrap();
            let config = ledgerdb_core::LedgerConfig {
                block_size: 4,
                fam_delta: 15,
                name: "imposter".into(),
                state_backend: Default::default(),
            };
            (
                ledgerdb_core::SharedLedger::new(ledgerdb_core::LedgerDb::new(config, registry)),
                alice,
            )
        };
        let server_b = Ledgerd::start(shared_b, ServerConfig::default()).unwrap();

        let proxy = Proxy::start(server_a.local_addr());
        let mut remote = RemoteLedger::connect_with(proxy.addr, fast_config()).unwrap();
        remote.append(tx(&alice, 0)).unwrap();

        // The "restart" comes back as a different ledger entirely.
        proxy.retarget(server_b.local_addr());
        proxy.kill_connections();
        let err = remote.append(tx(&alice, 1)).unwrap_err();
        assert!(matches!(err, RemoteError::Frame(_)), "got: {err}");
        let err = remote.append(tx(&alice, 1)).unwrap_err();
        match err {
            RemoteError::Protocol(what) => {
                assert!(what.contains("identity"), "wrong protocol error: {what}")
            }
            other => panic!("an impostor must be refused at the handshake, got: {other}"),
        }
        server_a.shutdown();
        server_b.shutdown();
    }
}
