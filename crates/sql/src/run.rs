//! Executing bound statements on a [`Session`].
//!
//! The SQL crate sits *above* the executor, so the "run SQL on a
//! session" entry point is an extension trait rather than an inherent
//! method: `use snowprune_sql::SessionSqlExt` and call
//! `session.run_sql("SELECT …")`.

use snowprune_exec::{QueryOutput, Session};
use snowprune_storage::DmlResult;
use snowprune_types::Result;

use crate::bind::{bind_sql, Statement};

/// What running one SQL statement produced.
#[derive(Clone, Debug)]
pub enum SqlOutcome {
    /// A SELECT: result rows plus the executor's pruning/cache report.
    Rows(Box<QueryOutput>),
    /// A DML statement: what it did, to how many rows and partitions.
    Dml {
        /// The SQL verb (`INSERT`, `DELETE`, `UPDATE`).
        verb: &'static str,
        /// Target table.
        table: String,
        /// Rows inserted or deleted; for UPDATE, the rows whose values
        /// actually changed.
        rows_affected: u64,
        /// Partitions the statement removed (rewritten or dropped).
        partitions_removed: usize,
        /// Partitions the statement added (inserted or rewritten).
        partitions_added: usize,
    },
}

impl SqlOutcome {
    fn dml(verb: &'static str, table: String, res: &DmlResult) -> SqlOutcome {
        SqlOutcome::Dml {
            verb,
            table,
            rows_affected: res.rows_affected,
            partitions_removed: res.partitions_removed.len(),
            partitions_added: res.partitions_added.len(),
        }
    }
}

/// SQL entry point for [`Session`]: parse, bind against the session's
/// catalog, verify, and execute.
pub trait SessionSqlExt {
    /// Run one SQL statement. SELECTs execute on the session's shared
    /// morsel pool and predicate cache; DML goes through the session's
    /// cache-consistent DML entry points, DELETE and UPDATE partition by
    /// partition (`Session::delete_where` / `Session::update_where`).
    fn run_sql(&self, sql: &str) -> Result<SqlOutcome>;
}

impl SessionSqlExt for Session {
    fn run_sql(&self, sql: &str) -> Result<SqlOutcome> {
        match bind_sql(sql, self.catalog())? {
            Statement::Query(plan) => self.run(&plan).map(|o| SqlOutcome::Rows(Box::new(o))),
            Statement::Insert { table, rows } => {
                let res = self.insert_rows(&table, rows)?;
                Ok(SqlOutcome::dml("INSERT", table, &res))
            }
            Statement::Delete { table, predicate } => {
                let res = self.delete_where(&table, predicate.as_ref())?;
                Ok(SqlOutcome::dml("DELETE", table, &res))
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let res = self.update_where(&table, &sets, predicate.as_ref())?;
                Ok(SqlOutcome::dml("UPDATE", table, &res))
            }
        }
    }
}
