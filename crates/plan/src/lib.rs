//! Logical plans and the plan analyses behind LIMIT pruning (§4.3), top-k
//! shape detection (Figure 7), and plan fingerprinting (Figure 12, §8.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod plan;
pub mod pretty;

pub use analyze::{
    detect_topk, fingerprint, limit_pushdown, predicate_column_names, shape_signature,
    FingerprintMode, LimitPushdown, TopKShape, TopKSpec,
};
pub use plan::{AggFunc, JoinType, Plan, PlanBuilder, SortKey};
pub use pretty::pretty;
pub use snowprune_types::ShapeKey;
