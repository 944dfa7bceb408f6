//! Expressions for `snowprune`: predicate/scalar ASTs, three-valued
//! evaluation (row-at-a-time and batch kernels), min/max range derivation
//! through complex expressions, imprecise filter rewrites, and pruning
//! verdicts.
//!
//! The modules map directly onto §3.1 and §4.2 of the paper:
//!
//! * [`ast`] — expression trees with a small builder DSL.
//! * [`eval`] — Kleene-logic evaluation used by the execution engine.
//! * [`pruneval`] — metadata-only evaluation: [`pruneval::derive_range`]
//!   and [`pruneval::prune_eval`].
//! * [`rewrite`] — `LIKE`→prefix widening.
//! * [`kernel`] — selection-vector predicate kernels for batch execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod kernel;
pub mod pruneval;
pub mod rewrite;

pub use ast::{dsl, ArithOp, CmpOp, ColumnRef, Expr};
pub use eval::{eval_predicate, eval_value, like_match, Truth};
pub use pruneval::{derive_range, prune_eval};
pub use rewrite::{analyze_like, prefix_successor, widen_for_pruning, LikeShape};
