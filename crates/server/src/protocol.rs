//! The `ledgerd` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `version:u8 · len:u32(be) · body[len]`, where the body
//! is one [`Wire`]-encoded [`Request`] or [`Response`] (the message tag
//! is the body's first byte). Hostile input is handled with *typed*
//! failures at every layer:
//!
//! * a frame whose length prefix exceeds the negotiated bound is
//!   [`FrameError::Oversized`] — rejected before any allocation;
//! * an unknown protocol version byte is [`FrameError::BadVersion`];
//! * a body that fails to decode (truncated, trailing bytes, bad tag,
//!   off-curve key) surfaces as a [`WireError`], which the server maps
//!   to an [`ErrorFrame`] response — never a panic, never a partial
//!   read misinterpreted as data.
//!
//! The protocol is deliberately request/response over a persistent
//! connection: no pipelining, no server push. A distrusting client
//! ([`crate::remote::RemoteLedger`]) treats every response as claims to
//! re-verify, not facts.

use ledgerdb_accumulator::fam::{FamProof, TrustedAnchor};
use ledgerdb_clue::cm_tree::ClueProof;
use ledgerdb_core::{
    Block, ComposedProof, EpochAnchor, Journal, LedgerError, Receipt, StateProof, TxRequest,
};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::PublicKey;
use ledgerdb_crypto::wire::{Reader, Wire, WireError, Writer};
use std::fmt;
use std::io::{self, Read, Write};

/// The base protocol version: `version · len:u32 · body`. Responses and
/// untraced requests are always version-1 frames, so a version-1-only
/// peer interoperates with this build unchanged.
pub const PROTOCOL_VERSION: u8 = 1;

/// The traced protocol version. A version-2 frame carries a small
/// envelope before the message body: `flags:u8`, then a big-endian
/// `trace_id:u64` when `flags & 1` is set. Servers accept both
/// versions; clients that attach trace ids emit version 2 for requests
/// and still read version-1 responses.
pub const TRACED_PROTOCOL_VERSION: u8 = 2;

/// Envelope flag bit: a trace id follows.
const ENVELOPE_HAS_TRACE: u8 = 1;

/// Default ceiling on a frame body (requests and responses). Payloads
/// larger than this must be chunked by the application.
pub const DEFAULT_MAX_FRAME: u32 = 4 << 20;

/// Framing-layer failures (before any message decoding).
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O failure (includes read/write timeouts).
    Io(io::Error),
    /// The version byte was neither [`PROTOCOL_VERSION`] nor
    /// [`TRACED_PROTOCOL_VERSION`].
    BadVersion(u8),
    /// A version-2 frame whose trace envelope is truncated or carries
    /// unknown flag bits.
    BadEnvelope,
    /// The length prefix exceeded the frame bound.
    Oversized { len: u32, max: u32 },
    /// An outgoing body too large for the protocol's `u32` length
    /// prefix. Caught before any byte is written: silently truncating
    /// the prefix would desync the stream for every later frame.
    FrameTooLarge { len: u64 },
    /// A batched response whose item count differs from the request's
    /// item count. The framing itself is intact — this is a *lying or
    /// buggy server*: silently zipping the short (or over-long) reply
    /// against the local request list would truncate or misalign acks,
    /// so the client refuses the whole batch with a typed error instead.
    BatchLengthMismatch { sent: u64, got: u64 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame i/o failure: {e}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadEnvelope => write!(f, "malformed trace envelope in version-2 frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::FrameTooLarge { len } => {
                write!(f, "body of {len} bytes exceeds the u32 frame length prefix")
            }
            FrameError::BatchLengthMismatch { sent, got } => {
                write!(f, "batched {sent} requests, server answered {got} results")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the failure is a read timeout (the connection is idle,
    /// not broken) — the server polls its shutdown flag on these.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// Validate that a body fits the protocol's `u32` length prefix.
/// Factored out so the overflow guard is testable without materializing
/// a >4 GiB body.
pub(crate) fn check_frame_len(body_len: usize) -> Result<u32, FrameError> {
    u32::try_from(body_len).map_err(|_| FrameError::FrameTooLarge { len: body_len as u64 })
}

/// Write one frame: version byte, big-endian length, body.
///
/// A body over `u32::MAX` bytes is [`FrameError::FrameTooLarge`], and
/// nothing is written — a truncated length prefix would desync every
/// subsequent frame on the stream.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    let len = check_frame_len(body.len())?;
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Write one traced (version-2) frame: the body is prefixed with the
/// trace envelope (`flags=1`, big-endian trace id) and the length
/// prefix covers envelope + body.
pub fn write_traced_frame(w: &mut impl Write, trace_id: u64, body: &[u8]) -> Result<(), FrameError> {
    let len = check_frame_len(body.len().saturating_add(9))?;
    let mut frame = Vec::with_capacity(5 + len as usize);
    frame.push(TRACED_PROTOCOL_VERSION);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.push(ENVELOPE_HAS_TRACE);
    frame.extend_from_slice(&trace_id.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Split a version-2 frame body into its trace id (if flagged) and the
/// message body. Unknown flag bits or a truncated envelope are
/// [`FrameError::BadEnvelope`] — a frame this build cannot interpret
/// must be rejected, not half-read.
pub fn split_trace_envelope(body: &[u8]) -> Result<(Option<u64>, &[u8]), FrameError> {
    let (&flags, rest) = body.split_first().ok_or(FrameError::BadEnvelope)?;
    if flags & !ENVELOPE_HAS_TRACE != 0 {
        return Err(FrameError::BadEnvelope);
    }
    if flags & ENVELOPE_HAS_TRACE == 0 {
        return Ok((None, rest));
    }
    if rest.len() < 8 {
        return Err(FrameError::BadEnvelope);
    }
    let (id_bytes, rest) = rest.split_at(8);
    let id = u64::from_be_bytes(id_bytes.try_into().expect("split_at(8)"));
    Ok((Some(id), rest))
}

/// Largest single allocation/read step while receiving a frame body.
/// The length prefix is attacker-controlled: growing the buffer only as
/// bytes actually arrive means a hostile header can't force a max-frame
/// allocation up front.
const READ_CHUNK: usize = 64 * 1024;

/// Read one frame body, enforcing the version byte and the `max` bound.
/// A version-2 frame's trace id is parsed, validated, and discarded —
/// use [`read_frame_traced`] to keep it.
///
/// A clean EOF before the first byte is [`FrameError::Closed`]; an EOF
/// mid-frame is an I/O error (the peer died mid-sentence).
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Vec<u8>, FrameError> {
    read_frame_traced(r, max).map(|(_, body)| body)
}

/// As [`read_frame`], returning the version-2 trace id alongside the
/// message body (`None` for version-1 frames and unflagged envelopes).
pub fn read_frame_traced(r: &mut impl Read, max: u32) -> Result<(Option<u64>, Vec<u8>), FrameError> {
    let mut version = [0u8; 1];
    loop {
        match r.read(&mut version) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if version[0] != PROTOCOL_VERSION && version[0] != TRACED_PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version[0]));
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    while body.len() < len {
        let take = (len - body.len()).min(READ_CHUNK);
        let start = body.len();
        body.resize(start + take, 0);
        r.read_exact(&mut body[start..])?;
    }
    if version[0] == TRACED_PROTOCOL_VERSION {
        let (trace, message) = split_trace_envelope(&body)?;
        return Ok((trace, message.to_vec()));
    }
    Ok((None, body))
}

/// A client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Handshake: ask for the server's identity and configuration.
    Hello,
    /// Append a signed transaction; acked once durable (group commit).
    Append(TxRequest),
    /// Append, seal, and return the LSP receipt.
    AppendCommitted(TxRequest),
    /// Fetch a journal record and its payload.
    GetTx(u64),
    /// jsns recorded under a clue.
    ListTx(String),
    /// Existence proof for a jsn relative to the *caller's* anchor.
    GetProof { jsn: u64, anchor: TrustedAnchor },
    /// Clue-oriented lineage proof.
    GetClueProof(String),
    /// Server-side existence verification of a supplied proof.
    Verify { jsn: u64, tx_hash: Digest, proof: FamProof, anchor: TrustedAnchor },
    /// The server's current trusted-anchor snapshot (convenience; a
    /// distrusting client derives its own from the block feed).
    GetAnchor,
    /// Sealed blocks from `from_height`, at most `max_blocks`.
    GetBlockFeed { from_height: u64, max_blocks: u64 },
    /// The server's telemetry snapshot as Prometheus-style text
    /// exposition (counters, gauges, latency histograms).
    Stats,
    /// Append a whole batch of signed transactions in one frame. The
    /// server admission-checks (across its cores) and digests the batch
    /// *off* the ledger lock, then commits it behind one durability
    /// barrier. Items are acked (or rejected) positionally.
    AppendBatch(Vec<TxRequest>),
    /// Existence proofs for many jsns against one caller anchor,
    /// answered positionally. Built from a single immutable read
    /// snapshot.
    GetProofBatch { jsns: Vec<u64>, anchor: TrustedAnchor },
    /// The recorded span events for a trace id, from the server's
    /// flight recorder (ring buffers + pinned slow/error captures).
    /// An unknown or aged-out id answers with an empty span list.
    GetTrace(u64),
    /// Shard topology: K, the epoch count, and the top-level anchor
    /// root. On an unsharded server this answers K=1 — the probe is how
    /// a shard-aware client discovers it can use the plain paths.
    GetTopology,
    /// Sealed blocks of one shard (the shard-aware distrusting sync;
    /// shard 0's feed is identical to `GetBlockFeed` on K=1).
    GetShardBlockFeed { shard: u32, from_height: u64, max_blocks: u64 },
    /// Epoch anchor records from `from_epoch`, so a client can mirror
    /// the top-level anchor tree from its own verified roots. Cuts a
    /// fresh epoch first if any shard sealed since the last cut.
    GetEpochAnchors { from_epoch: u64 },
    /// Composed shard + anchor existence proof for a *global* jsn,
    /// against the caller's anchor for the jsn's shard.
    GetComposedProof { jsn: u64, anchor: TrustedAnchor },
    /// State-commitment proof for a clue: inclusion when the clue has a
    /// committed latest-payload digest, verifiable absence otherwise.
    /// The client checks it against its *own* synced state root — the
    /// server's answer is a claim, not a fact.
    GetStateProof(String),
}

impl Wire for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Hello => w.put_u8(0),
            Request::Append(req) => {
                w.put_u8(1);
                req.encode(w);
            }
            Request::AppendCommitted(req) => {
                w.put_u8(2);
                req.encode(w);
            }
            Request::GetTx(jsn) => {
                w.put_u8(3);
                w.put_u64(*jsn);
            }
            Request::ListTx(clue) => {
                w.put_u8(4);
                clue.encode(w);
            }
            Request::GetProof { jsn, anchor } => {
                w.put_u8(5);
                w.put_u64(*jsn);
                anchor.encode(w);
            }
            Request::GetClueProof(clue) => {
                w.put_u8(6);
                clue.encode(w);
            }
            Request::Verify { jsn, tx_hash, proof, anchor } => {
                w.put_u8(7);
                w.put_u64(*jsn);
                tx_hash.encode(w);
                proof.encode(w);
                anchor.encode(w);
            }
            Request::GetAnchor => w.put_u8(8),
            Request::GetBlockFeed { from_height, max_blocks } => {
                w.put_u8(9);
                w.put_u64(*from_height);
                w.put_u64(*max_blocks);
            }
            Request::Stats => w.put_u8(10),
            Request::AppendBatch(reqs) => {
                w.put_u8(11);
                reqs.encode(w);
            }
            Request::GetProofBatch { jsns, anchor } => {
                w.put_u8(12);
                jsns.encode(w);
                anchor.encode(w);
            }
            Request::GetTrace(id) => {
                w.put_u8(13);
                w.put_u64(*id);
            }
            Request::GetTopology => w.put_u8(14),
            Request::GetShardBlockFeed { shard, from_height, max_blocks } => {
                w.put_u8(15);
                w.put_u32(*shard);
                w.put_u64(*from_height);
                w.put_u64(*max_blocks);
            }
            Request::GetEpochAnchors { from_epoch } => {
                w.put_u8(16);
                w.put_u64(*from_epoch);
            }
            Request::GetComposedProof { jsn, anchor } => {
                w.put_u8(17);
                w.put_u64(*jsn);
                anchor.encode(w);
            }
            Request::GetStateProof(clue) => {
                w.put_u8(18);
                clue.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Request::Hello),
            1 => Ok(Request::Append(TxRequest::decode(r)?)),
            2 => Ok(Request::AppendCommitted(TxRequest::decode(r)?)),
            3 => Ok(Request::GetTx(r.get_u64()?)),
            4 => Ok(Request::ListTx(String::decode(r)?)),
            5 => Ok(Request::GetProof { jsn: r.get_u64()?, anchor: TrustedAnchor::decode(r)? }),
            6 => Ok(Request::GetClueProof(String::decode(r)?)),
            7 => Ok(Request::Verify {
                jsn: r.get_u64()?,
                tx_hash: Digest::decode(r)?,
                proof: FamProof::decode(r)?,
                anchor: TrustedAnchor::decode(r)?,
            }),
            8 => Ok(Request::GetAnchor),
            9 => Ok(Request::GetBlockFeed {
                from_height: r.get_u64()?,
                max_blocks: r.get_u64()?,
            }),
            10 => Ok(Request::Stats),
            11 => Ok(Request::AppendBatch(Vec::decode(r)?)),
            12 => Ok(Request::GetProofBatch {
                jsns: Vec::decode(r)?,
                anchor: TrustedAnchor::decode(r)?,
            }),
            13 => Ok(Request::GetTrace(r.get_u64()?)),
            14 => Ok(Request::GetTopology),
            15 => Ok(Request::GetShardBlockFeed {
                shard: r.get_u32()?,
                from_height: r.get_u64()?,
                max_blocks: r.get_u64()?,
            }),
            16 => Ok(Request::GetEpochAnchors { from_epoch: r.get_u64()? }),
            17 => Ok(Request::GetComposedProof {
                jsn: r.get_u64()?,
                anchor: TrustedAnchor::decode(r)?,
            }),
            18 => Ok(Request::GetStateProof(String::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// What the server advertises at handshake.
#[derive(Clone, Debug)]
pub struct ServerInfo {
    pub protocol_version: u8,
    pub ledger_id: Digest,
    pub lsp_pk: PublicKey,
    pub fam_delta: u32,
    pub journal_count: u64,
    pub block_count: u64,
}

impl Wire for ServerInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.protocol_version);
        self.ledger_id.encode(w);
        self.lsp_pk.encode(w);
        w.put_u32(self.fam_delta);
        w.put_u64(self.journal_count);
        w.put_u64(self.block_count);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ServerInfo {
            protocol_version: r.get_u8()?,
            ledger_id: Digest::decode(r)?,
            lsp_pk: PublicKey::decode(r)?,
            fam_delta: r.get_u32()?,
            journal_count: r.get_u64()?,
            block_count: r.get_u64()?,
        })
    }
}

/// Typed failure categories carried by [`ErrorFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request body failed to decode (truncated, trailing bytes…).
    BadFrame,
    /// An unknown message tag byte.
    BadTag,
    /// The request decoded but the ledger rejected it (bad signature,
    /// unknown member, invalid argument).
    Rejected,
    /// The referenced entity does not exist (jsn, clue, block) or is no
    /// longer retrievable (purged, occulted).
    NotFound,
    /// The server is at its connection/queue limit.
    Unavailable,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// A durability failure: the append could not be made stable, and
    /// was not acknowledged.
    Durability,
    /// Anything else (a bug, reported loudly).
    Internal,
    /// The frame's length prefix exceeded the server's bound.
    Oversized,
    /// The frame's version byte is not one this server speaks.
    UnsupportedVersion,
    /// The server is over its connection cap *right now*; unlike
    /// [`ErrorCode::Unavailable`] this is an explicit invitation to
    /// retry with backoff — [`crate::remote::RemoteLedger`] treats it as
    /// retryable under its dial backoff instead of surfacing an EOF.
    Busy,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadTag => 2,
            ErrorCode::Rejected => 3,
            ErrorCode::NotFound => 4,
            ErrorCode::Unavailable => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Durability => 7,
            ErrorCode::Internal => 8,
            ErrorCode::Oversized => 9,
            ErrorCode::UnsupportedVersion => 10,
            ErrorCode::Busy => 11,
        }
    }

    fn from_tag(t: u8) -> Result<Self, WireError> {
        Ok(match t {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadTag,
            3 => ErrorCode::Rejected,
            4 => ErrorCode::NotFound,
            5 => ErrorCode::Unavailable,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Durability,
            8 => ErrorCode::Internal,
            9 => ErrorCode::Oversized,
            10 => ErrorCode::UnsupportedVersion,
            11 => ErrorCode::Busy,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// A typed error response.
#[derive(Clone, Debug)]
pub struct ErrorFrame {
    pub code: ErrorCode,
    pub detail: String,
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.detail)
    }
}

impl Wire for ErrorFrame {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.code.tag());
        self.detail.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ErrorFrame { code: ErrorCode::from_tag(r.get_u8()?)?, detail: String::decode(r)? })
    }
}

impl ErrorFrame {
    /// Classify a wire decoding failure.
    pub fn from_wire_error(e: &WireError) -> Self {
        let code = match e {
            WireError::BadTag(_) => ErrorCode::BadTag,
            _ => ErrorCode::BadFrame,
        };
        ErrorFrame { code, detail: e.to_string() }
    }

    /// Classify a ledger-level failure.
    pub fn from_ledger_error(e: &LedgerError) -> Self {
        let code = match e {
            LedgerError::UnknownJournal(_)
            | LedgerError::UnknownBlock(_)
            | LedgerError::Occulted(_)
            | LedgerError::Purged(_)
            | LedgerError::Shard(_)
            | LedgerError::Clue(_) => ErrorCode::NotFound,
            LedgerError::BadClientSignature
            | LedgerError::UnknownMember
            | LedgerError::BadPurgePoint(_)
            | LedgerError::InsufficientSignatures(_)
            | LedgerError::Accumulator(_)
            | LedgerError::State(_)
            | LedgerError::BadReceipt => ErrorCode::Rejected,
            LedgerError::Storage(_) | LedgerError::Recovery(_) => ErrorCode::Durability,
            LedgerError::Time(_) | LedgerError::AuditFailed(_) | LedgerError::TaskFailed(_) => {
                ErrorCode::Internal
            }
        };
        ErrorFrame { code, detail: e.to_string() }
    }
}

/// A server response.
#[derive(Clone, Debug)]
pub enum Response {
    Hello(ServerInfo),
    /// Durable append acknowledgement.
    Appended { jsn: u64, tx_hash: Digest },
    /// Durable append + seal: the LSP receipt.
    Committed(Receipt),
    Tx { journal: Journal, payload: Option<Vec<u8>> },
    TxList(Vec<u64>),
    Proof { tx_hash: Digest, proof: FamProof },
    ClueProof(ClueProof),
    /// The supplied proof verified server-side.
    Verified,
    Anchor(TrustedAnchor),
    BlockFeed(Vec<Block>),
    Error(ErrorFrame),
    /// Telemetry text exposition (UTF-8 Prometheus-style format).
    Stats(String),
    /// Positional outcome of an [`Request::AppendBatch`]: one durable
    /// ack or one typed rejection per submitted request. A rejected item
    /// never consumed a jsn.
    AppendBatchResult(Vec<Result<AppendedAck, ErrorFrame>>),
    /// Positional answers to a [`Request::GetProofBatch`].
    ProofBatch(Vec<Result<ProofItem, ErrorFrame>>),
    /// The span events recorded for a [`Request::GetTrace`] id, ordered
    /// by start time. Empty when the trace is unknown or aged out.
    Trace(Vec<SpanRecord>),
    /// The server's shard topology.
    Topology(TopologyInfo),
    /// Epoch anchor records (claims — the client verifies each root
    /// against its own synced shard chains before mirroring).
    EpochAnchors(Vec<EpochAnchor>),
    /// A composed shard + anchor existence proof.
    Composed(ComposedProof),
    /// A state-commitment proof (inclusion or absence, either backend).
    StateProof(StateProof),
}

/// What [`Request::GetTopology`] answers.
#[derive(Clone, Debug)]
pub struct TopologyInfo {
    /// Shard count K (1 on an unsharded deployment).
    pub shards: u32,
    /// Epoch anchors cut so far.
    pub epochs: u64,
    /// The top-level anchor root (ZERO before the first epoch).
    pub top_root: Digest,
}

impl Wire for TopologyInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shards);
        w.put_u64(self.epochs);
        self.top_root.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TopologyInfo {
            shards: r.get_u32()?,
            epochs: r.get_u64()?,
            top_root: Digest::decode(r)?,
        })
    }
}

/// One recorded span, as served over the wire and joined client-side
/// with the client-observed latency (`RemoteLedger::last_trace_id`).
/// Timestamps are nanoseconds on the server's monotonic trace clock —
/// only differences and ordering are meaningful to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub span: u64,
    /// Parent span id; 0 for the request root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Wire for SpanRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.span);
        w.put_u64(self.parent);
        self.name.encode(w);
        w.put_u64(self.start_ns);
        w.put_u64(self.end_ns);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpanRecord {
            span: r.get_u64()?,
            parent: r.get_u64()?,
            name: String::decode(r)?,
            start_ns: r.get_u64()?,
            end_ns: r.get_u64()?,
        })
    }
}

/// One durable append acknowledgement inside a batched response.
#[derive(Clone, Debug)]
pub struct AppendedAck {
    pub jsn: u64,
    pub tx_hash: Digest,
}

impl Wire for AppendedAck {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.jsn);
        self.tx_hash.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AppendedAck { jsn: r.get_u64()?, tx_hash: Digest::decode(r)? })
    }
}

/// One existence proof inside a batched response.
#[derive(Clone, Debug)]
pub struct ProofItem {
    pub tx_hash: Digest,
    pub proof: FamProof,
}

impl Wire for ProofItem {
    fn encode(&self, w: &mut Writer) {
        self.tx_hash.encode(w);
        self.proof.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProofItem { tx_hash: Digest::decode(r)?, proof: FamProof::decode(r)? })
    }
}

/// Per-item outcome encoding: `1 · item` or `0 · error`, preceded by a
/// u64 batch length. Shared by both batched responses so ok/err framing
/// stays uniform on the wire.
fn encode_batch<T: Wire>(items: &[Result<T, ErrorFrame>], w: &mut Writer) {
    w.put_u64(items.len() as u64);
    for item in items {
        match item {
            Ok(v) => {
                w.put_u8(1);
                v.encode(w);
            }
            Err(e) => {
                w.put_u8(0);
                e.encode(w);
            }
        }
    }
}

fn decode_batch<T: Wire>(r: &mut Reader<'_>) -> Result<Vec<Result<T, ErrorFrame>>, WireError> {
    // Each item is at least the ok/err tag byte.
    let n = r.get_seq_len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.get_u8()? {
            1 => Ok(T::decode(r)?),
            0 => Err(ErrorFrame::decode(r)?),
            t => return Err(WireError::BadTag(t)),
        });
    }
    Ok(out)
}

impl Wire for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Hello(info) => {
                w.put_u8(0);
                info.encode(w);
            }
            Response::Appended { jsn, tx_hash } => {
                w.put_u8(1);
                w.put_u64(*jsn);
                tx_hash.encode(w);
            }
            Response::Committed(receipt) => {
                w.put_u8(2);
                receipt.encode(w);
            }
            Response::Tx { journal, payload } => {
                w.put_u8(3);
                journal.encode(w);
                payload.encode(w);
            }
            Response::TxList(jsns) => {
                w.put_u8(4);
                jsns.encode(w);
            }
            Response::Proof { tx_hash, proof } => {
                w.put_u8(5);
                tx_hash.encode(w);
                proof.encode(w);
            }
            Response::ClueProof(proof) => {
                w.put_u8(6);
                proof.encode(w);
            }
            Response::Verified => w.put_u8(7),
            Response::Anchor(anchor) => {
                w.put_u8(8);
                anchor.encode(w);
            }
            Response::BlockFeed(blocks) => {
                w.put_u8(9);
                blocks.encode(w);
            }
            Response::Error(err) => {
                w.put_u8(10);
                err.encode(w);
            }
            Response::Stats(text) => {
                w.put_u8(11);
                text.encode(w);
            }
            Response::AppendBatchResult(items) => {
                w.put_u8(12);
                encode_batch(items, w);
            }
            Response::ProofBatch(items) => {
                w.put_u8(13);
                encode_batch(items, w);
            }
            Response::Trace(spans) => {
                w.put_u8(14);
                spans.encode(w);
            }
            Response::Topology(info) => {
                w.put_u8(15);
                info.encode(w);
            }
            Response::EpochAnchors(records) => {
                w.put_u8(16);
                records.encode(w);
            }
            Response::Composed(proof) => {
                w.put_u8(17);
                proof.encode(w);
            }
            Response::StateProof(proof) => {
                w.put_u8(18);
                proof.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Response::Hello(ServerInfo::decode(r)?)),
            1 => Ok(Response::Appended { jsn: r.get_u64()?, tx_hash: Digest::decode(r)? }),
            2 => Ok(Response::Committed(Receipt::decode(r)?)),
            3 => Ok(Response::Tx {
                journal: Journal::decode(r)?,
                payload: Option::<Vec<u8>>::decode(r)?,
            }),
            4 => Ok(Response::TxList(Vec::decode(r)?)),
            5 => Ok(Response::Proof { tx_hash: Digest::decode(r)?, proof: FamProof::decode(r)? }),
            6 => Ok(Response::ClueProof(ClueProof::decode(r)?)),
            7 => Ok(Response::Verified),
            8 => Ok(Response::Anchor(TrustedAnchor::decode(r)?)),
            9 => Ok(Response::BlockFeed(Vec::decode(r)?)),
            10 => Ok(Response::Error(ErrorFrame::decode(r)?)),
            11 => Ok(Response::Stats(String::decode(r)?)),
            12 => Ok(Response::AppendBatchResult(decode_batch(r)?)),
            13 => Ok(Response::ProofBatch(decode_batch(r)?)),
            14 => Ok(Response::Trace(Vec::decode(r)?)),
            15 => Ok(Response::Topology(TopologyInfo::decode(r)?)),
            16 => Ok(Response::EpochAnchors(Vec::decode(r)?)),
            17 => Ok(Response::Composed(ComposedProof::decode(r)?)),
            18 => Ok(Response::StateProof(StateProof::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::keys::KeyPair;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        let body = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(body, b"hello frame");
    }

    #[test]
    fn traced_frame_round_trips_and_downgrades() {
        let mut buf = Vec::new();
        write_traced_frame(&mut buf, 0xdead_beef_0042, b"traced body").unwrap();
        assert_eq!(buf[0], TRACED_PROTOCOL_VERSION);
        // Trace-aware readers get the id; version-1 `read_frame` callers
        // get the same body with the envelope stripped.
        let (trace, body) =
            read_frame_traced(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(trace, Some(0xdead_beef_0042));
        assert_eq!(body, b"traced body");
        assert_eq!(
            read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap(),
            b"traced body"
        );
        // And an untraced frame reads back with no id.
        let mut v1 = Vec::new();
        write_frame(&mut v1, b"plain").unwrap();
        let (trace, body) = read_frame_traced(&mut Cursor::new(&v1), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(trace, None);
        assert_eq!(body, b"plain");
    }

    #[test]
    fn hostile_trace_envelopes_are_typed_errors() {
        // Truncated envelope: flags say "trace follows" but the id is cut.
        let mut frame = vec![TRACED_PROTOCOL_VERSION, 0, 0, 0, 5, 1, 0xaa, 0xbb, 0xcc, 0xdd];
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME),
            Err(FrameError::BadEnvelope)
        ));
        // Unknown flag bits must be rejected, not silently skipped.
        frame = vec![TRACED_PROTOCOL_VERSION, 0, 0, 0, 2, 0x82, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME),
            Err(FrameError::BadEnvelope)
        ));
        // Empty v2 body (no flags byte at all).
        frame = vec![TRACED_PROTOCOL_VERSION, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME),
            Err(FrameError::BadEnvelope)
        ));
        // An unflagged v2 envelope is legal: flags=0, body follows.
        let mut ok = vec![TRACED_PROTOCOL_VERSION, 0, 0, 0, 3, 0];
        ok.extend_from_slice(b"hi");
        let (trace, body) = read_frame_traced(&mut Cursor::new(&ok), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(trace, None);
        assert_eq!(body, b"hi");
    }

    #[test]
    fn trace_messages_round_trip() {
        let req = Request::GetTrace(77);
        assert!(matches!(Request::from_wire(&req.to_wire()), Ok(Request::GetTrace(77))));
        let resp = Response::Trace(vec![
            SpanRecord {
                span: 2,
                parent: 1,
                name: "locked_insert".into(),
                start_ns: 100,
                end_ns: 250,
            },
            SpanRecord { span: 1, parent: 0, name: "append".into(), start_ns: 50, end_ns: 400 },
        ]);
        let Response::Trace(decoded) = Response::from_wire(&resp.to_wire()).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].name, "locked_insert");
        assert_eq!(decoded[1].parent, 0);
        // Empty trace (unknown id) round-trips too.
        assert!(matches!(
            Response::from_wire(&Response::Trace(Vec::new()).to_wire()),
            Ok(Response::Trace(v)) if v.is_empty()
        ));
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty), DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let frame = [9u8, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame[..]), DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(9))
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), 1024),
            Err(FrameError::Oversized { len: u32::MAX, max: 1024 })
        ));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"whole body").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn over_u32_body_is_frame_too_large() {
        // The length guard, exercised without a 4 GiB allocation.
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            check_frame_len(too_big),
            Err(FrameError::FrameTooLarge { len }) if len == too_big as u64
        ));
        assert!(matches!(check_frame_len(u32::MAX as usize), Ok(u32::MAX)));
        assert!(matches!(check_frame_len(0), Ok(0)));
    }

    #[test]
    fn multi_chunk_body_round_trips() {
        // A body spanning several READ_CHUNK steps survives the
        // incremental read intact.
        let body: Vec<u8> = (0..READ_CHUNK * 3 + 17).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let got = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got, body);
    }

    #[test]
    fn hostile_length_prefix_reads_only_delivered_bytes() {
        // A header claiming a large in-bound body, with only a few bytes
        // behind it: the incremental reader must stop at the first short
        // read instead of trusting the prefix.
        let claimed: u32 = DEFAULT_MAX_FRAME;
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&claimed.to_be_bytes());
        frame.extend_from_slice(&[0xAB; 100]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let keys = KeyPair::from_seed(b"proto");
        let tx = TxRequest::signed(&keys, b"payload".to_vec(), vec!["clue".into()], 7);
        let cases = vec![
            Request::Hello,
            Request::Append(tx.clone()),
            Request::AppendCommitted(tx),
            Request::GetTx(42),
            Request::ListTx("asset".into()),
            Request::GetAnchor,
            Request::GetBlockFeed { from_height: 3, max_blocks: 100 },
            Request::GetClueProof("asset".into()),
            Request::Stats,
            Request::AppendBatch(vec![
                TxRequest::signed(&keys, b"b0".to_vec(), vec![], 8),
                TxRequest::signed(&keys, b"b1".to_vec(), vec!["c".into()], 9),
            ]),
            Request::GetProofBatch { jsns: vec![1, 5, 9], anchor: TrustedAnchor::default() },
            Request::GetTopology,
            Request::GetShardBlockFeed { shard: 3, from_height: 4, max_blocks: 64 },
            Request::GetEpochAnchors { from_epoch: 11 },
            Request::GetComposedProof { jsn: 1 << 56 | 9, anchor: TrustedAnchor::default() },
            Request::GetStateProof("asset".into()),
        ];
        for req in cases {
            let decoded = Request::from_wire(&req.to_wire()).unwrap();
            // Structural spot checks (Request has no PartialEq by design —
            // proofs inside are deep structures).
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&req),
                "{req:?}"
            );
        }
    }

    #[test]
    fn sharded_messages_round_trip() {
        let shard_fields = Request::GetShardBlockFeed { shard: 7, from_height: 21, max_blocks: 8 };
        match Request::from_wire(&shard_fields.to_wire()).unwrap() {
            Request::GetShardBlockFeed { shard, from_height, max_blocks } => {
                assert_eq!((shard, from_height, max_blocks), (7, 21, 8));
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let topo = TopologyInfo {
            shards: 4,
            epochs: 9,
            top_root: ledgerdb_crypto::sha256(b"top"),
        };
        match Response::from_wire(&Response::Topology(topo.clone()).to_wire()).unwrap() {
            Response::Topology(decoded) => {
                assert_eq!(decoded.shards, topo.shards);
                assert_eq!(decoded.epochs, topo.epochs);
                assert_eq!(decoded.top_root, topo.top_root);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let record = EpochAnchor {
            epoch: 3,
            heights: vec![1, 0, 2],
            roots: vec![
                ledgerdb_crypto::sha256(b"r0"),
                ledgerdb_crypto::sha256(b"r1"),
                ledgerdb_crypto::sha256(b"r2"),
            ],
        };
        match Response::from_wire(&Response::EpochAnchors(vec![record.clone()]).to_wire()).unwrap()
        {
            Response::EpochAnchors(decoded) => {
                assert_eq!(decoded.len(), 1);
                assert_eq!(decoded[0].epoch, record.epoch);
                assert_eq!(decoded[0].heights, record.heights);
                assert_eq!(decoded[0].roots, record.roots);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn error_frames_round_trip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::BadTag,
            ErrorCode::Rejected,
            ErrorCode::NotFound,
            ErrorCode::Unavailable,
            ErrorCode::ShuttingDown,
            ErrorCode::Durability,
            ErrorCode::Internal,
            ErrorCode::Oversized,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Busy,
        ] {
            let frame = ErrorFrame { code, detail: "why".into() };
            let decoded = ErrorFrame::from_wire(&frame.to_wire()).unwrap();
            assert_eq!(decoded.code, code);
            assert_eq!(decoded.detail, "why");
        }
        assert!(ErrorFrame::from_wire(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn hostile_request_bodies_decode_to_typed_errors() {
        // Unknown tag.
        assert!(matches!(Request::from_wire(&[200]), Err(WireError::BadTag(200))));
        // Truncated GetTx.
        assert!(matches!(Request::from_wire(&[3, 0, 0]), Err(WireError::UnexpectedEnd)));
        // Trailing garbage.
        let mut bytes = Request::GetTx(1).to_wire();
        bytes.push(0xFF);
        assert!(matches!(Request::from_wire(&bytes), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn batched_responses_round_trip_mixed_outcomes() {
        let items = vec![
            Ok(AppendedAck { jsn: 4, tx_hash: Digest::ZERO }),
            Err(ErrorFrame { code: ErrorCode::Rejected, detail: "bad sig".into() }),
            Ok(AppendedAck { jsn: 5, tx_hash: Digest::ZERO }),
        ];
        let resp = Response::AppendBatchResult(items);
        let Response::AppendBatchResult(decoded) = Response::from_wire(&resp.to_wire()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].as_ref().unwrap().jsn, 4);
        let err = decoded[1].as_ref().unwrap_err();
        assert_eq!(err.code, ErrorCode::Rejected);
        assert_eq!(err.detail, "bad sig");
        assert_eq!(decoded[2].as_ref().unwrap().jsn, 5);

        // Empty batch and hostile item tag.
        let empty = Response::ProofBatch(Vec::new());
        assert!(matches!(
            Response::from_wire(&empty.to_wire()).unwrap(),
            Response::ProofBatch(v) if v.is_empty()
        ));
        let mut bytes = Response::AppendBatchResult(Vec::new()).to_wire();
        // Claim one item, then supply tag 7 (neither ok nor err).
        bytes[1..9].copy_from_slice(&1u64.to_be_bytes());
        bytes.push(7);
        assert!(matches!(Response::from_wire(&bytes), Err(WireError::BadTag(7))));
    }

    #[test]
    fn hostile_batch_length_rejected_before_allocation() {
        // A GetProofBatch claiming u64::MAX jsns in a tiny body must be
        // rejected by the length-vs-remaining-bytes check, not OOM.
        let mut w = Writer::new();
        w.put_u8(12);
        w.put_u64(u64::MAX);
        assert!(Request::from_wire(&w.into_bytes()).is_err());
    }

    #[test]
    fn ledger_error_classification() {
        assert_eq!(
            ErrorFrame::from_ledger_error(&LedgerError::UnknownJournal(9)).code,
            ErrorCode::NotFound
        );
        assert_eq!(
            ErrorFrame::from_ledger_error(&LedgerError::BadClientSignature).code,
            ErrorCode::Rejected
        );
        let io = std::io::Error::new(std::io::ErrorKind::Other, "disk on fire");
        assert_eq!(
            ErrorFrame::from_ledger_error(&LedgerError::Storage(io.into())).code,
            ErrorCode::Durability
        );
    }
}
