//! SQL front-end for `snowprune`: a hand-rolled lexer, recursive-descent
//! parser, and binder that lowers statements onto the plan IR, plus the
//! `snowprune` REPL binary.
//!
//! The pipeline is `lex` → [`parse_statement`] → [`bind::bind`] →
//! [`Statement`]: SELECTs become [`snowprune_plan::Plan`]s (verified by
//! the phase-0 static analyzer before they are returned),
//! INSERT/DELETE/UPDATE become bound DML descriptions executed through
//! the session's cache-consistent wrappers. Every token carries a byte
//! [`snowprune_types::Span`], every rejection is
//! [`snowprune_types::Error::PlanRejected`] with a spanned diagnostic,
//! and [`render_diagnostics`] turns those spans into `line:col` caret
//! blocks.
//!
//! Crucially for the differential harness, lowering is *structural*: the
//! plan bound from a query's emitted SQL text is `==` to the hand-built
//! plan it came from (same predicate tree, same unresolved column
//! references), so the round-trip legs can demand byte-identical rows
//! and I/O, not merely equivalent answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bind;
pub mod parse;
pub mod render;
pub mod repl;
pub mod run;
pub mod token;

pub use ast::Stmt;
pub use bind::{bind_sql, Statement};
pub use parse::parse_statement;
pub use render::{render_diagnostics, render_error};
pub use repl::{demo_catalog, run_repl, ReplOptions};
pub use run::{SessionSqlExt, SqlOutcome};
pub use token::{lex, Token, TokenKind};
