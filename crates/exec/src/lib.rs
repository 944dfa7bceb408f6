//! `snowprune-exec`: a vectorized-ish, pipelining execution engine with the
//! paper's runtime pruning hooks: deferred filter pruning, join pruning via
//! sideways information passing, and boundary-driven top-k pruning, over
//! sequential or shared-pool morsel-parallel (virtual-warehouse style)
//! scans. Every scan runs through the async prefetch pipeline in `scan.rs`
//! (up to `ExecConfig::prefetch_depth` partition loads in flight per lane,
//! with completion-time pruning re-checks that cancel in-flight loads
//! free). See `pool.rs` for the worker model, `session.rs` for the
//! multi-query driver and `dml.rs` for partition-local DELETE/UPDATE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod agg;
pub mod config;
pub mod dml;
pub mod exec;
pub mod pool;
pub mod rows;
pub mod scan;
pub mod session;
pub mod vector;

pub use admission::{Admission, AdmissionRun, TenantId, TenantStats};
pub use config::{ExecConfig, PredicateCacheMode};
pub use exec::{CacheOutcome, ExecReport, Executor, QueryOutput};
pub use pool::{MorselPool, QueryId, ScanJobSpec, ScanTicket};
pub use rows::RowSet;
pub use scan::{CompiledScan, ScanHooks, ScanRunStats};
pub use session::Session;
pub use snowprune_analyze::{CacheReport, CacheShape};
pub use vector::{Batch, BatchChain};
