//! Predicate caching (§8.2): cache the set of micro-partitions that
//! contributed to a query's result, keyed by exact plan fingerprint, and
//! replay it on repeat executions — Schmidt et al.'s predicate caching
//! extended to top-k queries with the paper's DML correctness rules:
//!
//! * **INSERT** — safe: partitions added after the entry was recorded are
//!   appended to the replayed scan set, so new rows can still enter the
//!   (top-k) result.
//! * **DELETE** — unsafe for top-k: the replacement (k+1-th) row may live
//!   outside the cached partitions → invalidate.
//! * **UPDATE of the ordering column or a predicate column** — unsafe for
//!   top-k → invalidate (a predicate-column update can disqualify a cached
//!   contributor, letting a row from a never-cached partition enter).
//! * **UPDATE of a filter entry's predicate columns** — the rewrite may
//!   move rows *into* the predicate's range inside a partition the entry
//!   never referenced, so the replacement partitions are appended
//!   unconditionally.
//! * **UPDATE of other columns / other DML for plain filter entries** —
//!   handled by rewriting partition ids (removed → added) when a cached
//!   partition was touched.
//!
//! Entries additionally carry the `table_version` they were recorded at;
//! a lookup against a diverged live version (DML the cache was never told
//! about) drops the entry and counts a `stale_rejections` instead of a hit.
//!
//! The cache is *populated by the engine*: `snowprune_exec::Executor`
//! records top-k heap survivors (plus boundary-tie partitions) and filter
//! scans' surviving partitions at query completion, and
//! `snowprune_exec::Session` owns the shared cache and routes DML results
//! into [`PredicateCache::on_dml`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;

pub use cache::{
    CacheEntry, CacheLookup, CacheStats, DmlKind, EntryKind, PredicateCache, ShapeKey,
};
