#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::field_reassign_with_default)] // config tweak idiom

//! `snowprune-bench`: the reproduction harness, one runner per table and
//! figure in the paper plus the `cache`, `prefetch` and `production`
//! extensions, driven by the `reproduce` binary. The extensions emit the
//! tracked `BENCH_*.json` snapshots (virtual-clock and partition-count
//! metrics); `docs/BENCHMARKS.md` documents the schema.

pub mod experiments;
pub mod prefetch_exp;
pub mod production_exp;
pub mod report;
pub mod snapshot;
pub mod tpch_exp;
