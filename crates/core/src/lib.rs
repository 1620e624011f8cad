//! The LedgerDB kernel: a centralized ledger database with *Dasein*
//! (what-when-who) verification.
//!
//! This crate composes the substrates into the system of §II-C:
//!
//! * journals with incremental jsns, accumulated in a [fam
//!   tree](ledgerdb_accumulator::fam) (*what*);
//! * a [CM-Tree](ledgerdb_clue::cm_tree) for clue-oriented N-lineage;
//! * three-phase signing — client proof π_c, LSP receipt π_s, TSA time
//!   journal π_t (*who* / *when*);
//! * verifiable mutations: [purge](ledger::LedgerDb::purge) and
//!   [occult](ledger::LedgerDb::occult) (§III-A2/3);
//! * the [Dasein-complete audit](audit) of §V;
//! * [verification](verify): pure functions of trusted roots and proofs,
//!   shared by the client, the audit, checkpoint load and WAL replay.

pub mod audit;
pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod error;
mod fanout;
pub mod ledger;
pub mod member;
pub mod metrics;
pub mod recovery;
pub mod sharded;
pub mod shared;
pub mod state;
pub mod snapshot;
pub mod types;
pub mod verify;

pub use audit::{audit_ledger, AuditConfig, AuditReport};
pub use checkpoint::CheckpointManifest;
pub use client::{LedgerClient, SyncReport};
pub use error::LedgerError;
pub use ledger::{AppendAck, CheckpointPolicy, LedgerConfig, LedgerDb, OccultMode, PreparedTx};
pub use metrics::{CoreMetrics, RecoveryMetrics};
pub use recovery::{
    open_durable, open_durable_with, recover, recover_with, recover_with_checkpoint,
    RecoveryReport, WalRecord, CHECKPOINT_DIR,
};
pub use member::{Member, MemberRegistry};
pub use sharded::{
    pack_jsn, route_clue_str, route_of, unpack_jsn, ComposedProof, EpochAnchor, ShardedClient,
    ShardedLedger, MAX_SHARDS,
};
pub use shared::SharedLedger;
pub use state::{StateBackend, StateCommitment, StateProof, WorldState};
pub use snapshot::{ReadSnapshot, SnapshotHub};
pub use types::{Admission, Block, Journal, JournalKind, LedgerInfo, Receipt, TxRequest};
pub use verify::verify_state_proof;
