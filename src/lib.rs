//! Facade crate re-exporting the full LedgerDB reproduction API.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub use ledgerdb_accumulator as accumulator;
pub use ledgerdb_baselines as baselines;
pub use ledgerdb_bintrie as bintrie;
pub use ledgerdb_clue as clue;
pub use ledgerdb_core as core;
pub use ledgerdb_crypto as crypto;
pub use ledgerdb_mpt as mpt;
pub use ledgerdb_server as server;
pub use ledgerdb_storage as storage;
pub use ledgerdb_telemetry as telemetry;
pub use ledgerdb_timesvc as timesvc;
