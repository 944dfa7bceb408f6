//! # snowprune
//!
//! A from-scratch reproduction of *"Pruning in Snowflake: Working Smarter,
//! Not Harder"* (SIGMOD-Companion '25): partition pruning for analytical
//! query engines over micro-partition zone maps, covering all four
//! techniques the paper describes — **filter pruning** (with min/max range
//! derivation through complex expressions, imprecise filter rewrites,
//! adaptive reordering, and pruning cutoff), **LIMIT pruning** via
//! fully-matching partitions, **top-k pruning** with boundary values, and
//! **join pruning** via build-side value summaries.
//!
//! ## Quick start
//!
//! ```
//! use snowprune::prelude::*;
//!
//! // 1. Build a table clustered by timestamp.
//! let schema = Schema::new(vec![
//!     Field::new("ts", ScalarType::Int),
//!     Field::new("metric", ScalarType::Int),
//! ]);
//! let mut b = TableBuilder::new("events", schema.clone())
//!     .target_rows_per_partition(100)
//!     .layout(Layout::ClusterBy(vec!["ts".into()]));
//! for i in 0..10_000i64 {
//!     b.push_row(vec![Value::Int(i), Value::Int(i % 97)]);
//! }
//! let catalog = Catalog::new();
//! catalog.register(b.build());
//!
//! // 2. Plan a selective query.
//! let plan = PlanBuilder::scan("events", schema)
//!     .filter(col("ts").between(lit(2_000i64), lit(2_199i64)))
//!     .build();
//!
//! // 3. Execute with pruning and inspect the report.
//! let exec = Executor::new(catalog, ExecConfig::default());
//! let out = exec.run(&plan).unwrap();
//! assert_eq!(out.rows.len(), 200);
//! assert_eq!(out.io.partitions_loaded, 2); // 98 of 100 partitions pruned
//! assert!(out.report.pruning.filter_ratio() > 0.97);
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the crate graph and the paper-section →
//! code map, and the `snowprune-bench` crate for the harness regenerating
//! every table and figure of the paper.

#![forbid(unsafe_code)]
pub use snowprune_cache as cache;
pub use snowprune_core as core;
pub use snowprune_exec as exec;
pub use snowprune_expr as expr;
pub use snowprune_plan as plan;
pub use snowprune_sql as sql;
pub use snowprune_storage as storage;
pub use snowprune_types as types;
pub use snowprune_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use snowprune_cache::{CacheLookup, CacheStats, DmlKind, EntryKind, PredicateCache};
    pub use snowprune_core::{
        FilterPruneConfig, FilterPruner, JoinSummary, LimitOutcome, PartitionOrder,
        QueryPruningReport, ScanSet, SummaryKind,
    };
    pub use snowprune_exec::{
        CacheOutcome, ExecConfig, Executor, MorselPool, QueryOutput, RowSet, Session,
    };
    pub use snowprune_expr::dsl::{coalesce, col, if_, lit};
    pub use snowprune_expr::Expr;
    pub use snowprune_plan::{AggFunc, JoinType, Plan, PlanBuilder, SortKey};
    pub use snowprune_sql::{SessionSqlExt, SqlOutcome, Statement};
    pub use snowprune_storage::{
        Catalog, Field, IoCostModel, IoStats, LakeTable, Layout, Schema, Table, TableBuilder,
    };
    pub use snowprune_types::{MatchClass, ScalarType, Value, ValueRange, Verdict, ZoneMap};
}
