//! Error type for the ledger kernel.

use ledgerdb_accumulator::AccumulatorError;
use ledgerdb_clue::ClueError;
use ledgerdb_storage::StorageError;
use ledgerdb_timesvc::TimeError;
use std::fmt;

/// Errors surfaced by ledger operations.
#[derive(Debug)]
pub enum LedgerError {
    /// The client's signature π_c failed verification (threat-A defence).
    BadClientSignature,
    /// The submitting member is not registered or its certificate fails.
    UnknownMember,
    /// A jsn was out of range.
    UnknownJournal(u64),
    /// A block height was out of range.
    UnknownBlock(u64),
    /// A gathered multi-signature missed a required signer
    /// (Prerequisites 1 and 2).
    InsufficientSignatures(&'static str),
    /// The journal is occulted — retrieval is blocked (§III-A3).
    Occulted(u64),
    /// The journal was purged.
    Purged(u64),
    /// A purge point was invalid (beyond the ledger or behind a prior
    /// purge).
    BadPurgePoint(u64),
    /// An accumulator proof failed.
    Accumulator(AccumulatorError),
    /// A clue-layer failure.
    Clue(ClueError),
    /// A storage failure.
    Storage(StorageError),
    /// A time-service failure.
    Time(TimeError),
    /// An audit step failed; carries the failing step description.
    AuditFailed(String),
    /// Crash recovery could not rebuild the sealed ledger history.
    Recovery(String),
    /// A receipt failed verification.
    BadReceipt,
    /// A fanned-out batch item (an ECDSA admission) panicked. The panic
    /// is contained to the item (siblings and the ledger are
    /// unaffected); the item is rejected with the panic message.
    TaskFailed(String),
    /// A sharded-deployment failure: an unknown shard id, an epoch
    /// anchor the client cannot verify, or a composed proof that names
    /// state outside the verified mirror.
    Shard(String),
    /// A world-state witness failed verification or was malformed.
    State(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadClientSignature => write!(f, "client signature rejected"),
            LedgerError::UnknownMember => write!(f, "member not registered with the ledger"),
            LedgerError::UnknownJournal(j) => write!(f, "unknown journal jsn {j}"),
            LedgerError::UnknownBlock(b) => write!(f, "unknown block height {b}"),
            LedgerError::InsufficientSignatures(what) => {
                write!(f, "insufficient signatures for {what}")
            }
            LedgerError::Occulted(j) => write!(f, "journal {j} is occulted"),
            LedgerError::Purged(j) => write!(f, "journal {j} was purged"),
            LedgerError::BadPurgePoint(j) => write!(f, "invalid purge point {j}"),
            LedgerError::Accumulator(e) => write!(f, "accumulator failure: {e}"),
            LedgerError::Clue(e) => write!(f, "clue failure: {e}"),
            LedgerError::Storage(e) => write!(f, "storage failure: {e}"),
            LedgerError::Time(e) => write!(f, "time service failure: {e}"),
            LedgerError::AuditFailed(what) => write!(f, "audit failed: {what}"),
            LedgerError::Recovery(what) => write!(f, "recovery failed: {what}"),
            LedgerError::BadReceipt => write!(f, "receipt failed verification"),
            LedgerError::TaskFailed(what) => write!(f, "pipeline task failed: {what}"),
            LedgerError::Shard(what) => write!(f, "shard failure: {what}"),
            LedgerError::State(what) => write!(f, "state proof failure: {what}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<AccumulatorError> for LedgerError {
    fn from(e: AccumulatorError) -> Self {
        LedgerError::Accumulator(e)
    }
}

impl From<ClueError> for LedgerError {
    fn from(e: ClueError) -> Self {
        LedgerError::Clue(e)
    }
}

impl From<StorageError> for LedgerError {
    fn from(e: StorageError) -> Self {
        LedgerError::Storage(e)
    }
}

impl From<TimeError> for LedgerError {
    fn from(e: TimeError) -> Self {
        LedgerError::Time(e)
    }
}
