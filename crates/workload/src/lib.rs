//! Workload substrates for the reproduction: a production-like generator
//! calibrated to the paper's published statistics, and a TPC-H dbgen with
//! the 22 queries' pruning skeletons (§8.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod diffgen;
pub mod kdist;
pub mod production;
pub mod tpch;

pub use diffgen::emit_sql;
pub use kdist::{cdf_at, sample_k};
pub use production::{
    generate, io_bound_burst, occurrence_histogram, production_scale, repetition_shape_ids,
    topk_tighten_burst, GeneratedQuery, ProductionScaleConfig, ProductionScaleWorkload,
    ProductionWorkload, QueryKind, WorkloadConfig,
};
pub use tpch::{all_tpch_queries, date, generate_tpch, tpch_query, TpchConfig};
