//! Logical query plans.
//!
//! Plans are intentionally small: they cover exactly the operator shapes
//! the paper's pruning techniques interact with (Figure 7): scans with
//! predicates, filters, projections, hash joins (build = left, probe =
//! right; for outer joins the *build side is the preserved side*, matching
//! §4.3/§5.2), aggregations, sorts, and limits. `Sort` directly above
//! `Limit` is a top-k query.

use std::fmt;

use snowprune_expr::Expr;
use snowprune_storage::Schema;
use snowprune_types::{Error, Result};

/// Join types supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// Inner equi-join: only matching pairs are emitted.
    Inner,
    /// Outer join preserving the **build** side: every build row appears in
    /// the output at least once ("we can guarantee that all k rows from the
    /// build side will be forwarded beyond the JOIN", §5.2).
    OuterPreserveBuild,
}

/// One ORDER BY key.
#[derive(Clone, Debug, PartialEq)]
pub struct SortKey {
    /// The ordering expression; top-k pruning applies when this is a bare
    /// column (possibly via projections) produced by a prunable scan.
    pub expr: Expr,
    /// Descending order when true, ascending otherwise.
    pub desc: bool,
}

/// Aggregate functions for GROUP BY plans.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)`: counts every input row.
    CountStar,
    /// `COUNT(col)`: counts non-NULL values of the column.
    Count(String),
    /// `SUM(col)`; NULL over empty or all-NULL input.
    Sum(String),
    /// `MIN(col)`; NULL over empty or all-NULL input.
    Min(String),
    /// `MAX(col)`; NULL over empty or all-NULL input.
    Max(String),
    /// `AVG(col)` as a float; NULL over empty or all-NULL input.
    Avg(String),
}

impl AggFunc {
    /// Name of the output column this aggregate produces (e.g. `sum_b`).
    pub fn output_name(&self) -> String {
        match self {
            AggFunc::CountStar => "count".into(),
            AggFunc::Count(c) => format!("count_{c}"),
            AggFunc::Sum(c) => format!("sum_{c}"),
            AggFunc::Min(c) => format!("min_{c}"),
            AggFunc::Max(c) => format!("max_{c}"),
            AggFunc::Avg(c) => format!("avg_{c}"),
        }
    }

    /// The column the aggregate reads, or `None` for `COUNT(*)`.
    pub fn input_column(&self) -> Option<&str> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c)
            | AggFunc::Avg(c) => Some(c),
        }
    }

    /// The aggregate's SQL spelling (`COUNT(*)`, `SUM(b)`, …), as the SQL
    /// front-end parses it.
    pub fn sql(&self) -> String {
        match self {
            AggFunc::CountStar => "COUNT(*)".into(),
            AggFunc::Count(c) => format!("COUNT({c})"),
            AggFunc::Sum(c) => format!("SUM({c})"),
            AggFunc::Min(c) => format!("MIN({c})"),
            AggFunc::Max(c) => format!("MAX({c})"),
            AggFunc::Avg(c) => format!("AVG({c})"),
        }
    }
}

/// A logical plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Base table scan. `predicate` holds pushed-down filters (unbound;
    /// bound against the table schema at execution/pruning time).
    Scan {
        /// Table name, resolved against the catalog at execution time.
        table: String,
        /// The table's schema at plan-build time.
        schema: Schema,
        /// Pushed-down filter conjunction, if any.
        predicate: Option<Expr>,
    },
    /// Filter over an arbitrary input (filters directly above a scan are
    /// pushed into the scan by [`PlanBuilder::filter`]).
    Filter {
        /// The node the filter reads from.
        input: Box<Plan>,
        /// The filter predicate (SQL three-valued logic: keep only TRUE).
        predicate: Expr,
    },
    /// Column projection by name.
    Project {
        /// The node the projection reads from.
        input: Box<Plan>,
        /// Output columns, by name, in output order.
        columns: Vec<String>,
    },
    /// Hash join: `build` (left) is materialized into the hash table,
    /// `probe` (right) streams. Keys are single equi-join columns.
    Join {
        /// Build side (left); materialized into the hash table. For outer
        /// joins this is the preserved side.
        build: Box<Plan>,
        /// Probe side (right); streams against the build table.
        probe: Box<Plan>,
        /// Equi-join key column on the build side.
        build_key: String,
        /// Equi-join key column on the probe side.
        probe_key: String,
        /// Inner vs outer-preserve-build semantics.
        join_type: JoinType,
    },
    /// Hash aggregation with optional GROUP BY keys.
    Aggregate {
        /// The node the aggregation reads from.
        input: Box<Plan>,
        /// Grouping key columns; empty for a global aggregate.
        group_by: Vec<String>,
        /// Aggregate functions, in output order after the group keys.
        aggs: Vec<AggFunc>,
    },
    /// Total sort; directly below [`Plan::Limit`] it forms a top-k query.
    Sort {
        /// The node the sort reads from.
        input: Box<Plan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Row-count limit with optional offset.
    Limit {
        /// The node the limit reads from.
        input: Box<Plan>,
        /// Maximum number of rows to emit.
        k: u64,
        /// Rows to skip before emitting.
        offset: u64,
    },
}

impl Plan {
    /// Output schema of the plan node.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            Plan::Scan { schema, .. } => Ok(schema.clone()),
            Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
                input.schema()
            }
            Plan::Project { input, columns } => {
                let inner = input.schema()?;
                let mut fields = Vec::with_capacity(columns.len());
                for c in columns {
                    let idx = inner.index_of(c)?;
                    fields.push(inner.fields()[idx].clone());
                }
                Ok(Schema::new(fields))
            }
            Plan::Join { build, probe, .. } => Ok(build.schema()?.join(&probe.schema()?, "probe_")),
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let inner = input.schema()?;
                let mut fields = Vec::new();
                for g in group_by {
                    let idx = inner.index_of(g)?;
                    fields.push(inner.fields()[idx].clone());
                }
                for a in aggs {
                    let ty = match a {
                        AggFunc::CountStar | AggFunc::Count(_) => snowprune_types::ScalarType::Int,
                        AggFunc::Avg(_) => snowprune_types::ScalarType::Float,
                        AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => {
                            let idx = inner.index_of(c)?;
                            inner.fields()[idx].ty
                        }
                    };
                    fields.push(snowprune_storage::Field::new(a.output_name(), ty));
                }
                Ok(Schema::new(fields))
            }
        }
    }

    /// All table scans in the plan, in depth-first order.
    pub fn scans(&self) -> Vec<&Plan> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if matches!(p, Plan::Scan { .. }) {
                out.push(p);
            }
        });
        out
    }

    /// Pre-order traversal calling `f` on every node (build before probe).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        match self {
            Plan::Scan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.visit(f),
            Plan::Join { build, probe, .. } => {
                build.visit(f);
                probe.visit(f);
            }
        }
    }

    /// Does this subtree produce a column with the given name?
    pub fn produces_column(&self, name: &str) -> bool {
        self.schema().map(|s| s.contains(name)).unwrap_or(false)
    }

    /// Validate structural consistency (schemas resolve, join keys exist).
    pub fn check(&self) -> Result<()> {
        self.schema()?;
        match self {
            Plan::Join {
                build,
                probe,
                build_key,
                probe_key,
                ..
            } => {
                build.check()?;
                probe.check()?;
                if !build.produces_column(build_key) {
                    return Err(Error::UnknownColumn(format!("build key {build_key}")));
                }
                if !probe.produces_column(probe_key) {
                    return Err(Error::UnknownColumn(format!("probe key {probe_key}")));
                }
                Ok(())
            }
            Plan::Scan { .. } => Ok(()),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.check(),
        }
    }
}

/// Fluent plan construction.
pub struct PlanBuilder {
    plan: Plan,
}

impl PlanBuilder {
    /// Start a plan with a base-table scan.
    pub fn scan(table: impl Into<String>, schema: Schema) -> Self {
        PlanBuilder {
            plan: Plan::Scan {
                table: table.into(),
                schema,
                predicate: None,
            },
        }
    }

    /// Add a filter. Filters directly above a scan are merged into the
    /// scan's predicate (predicate pushdown).
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.plan = match self.plan {
            Plan::Scan {
                table,
                schema,
                predicate: existing,
            } => Plan::Scan {
                table,
                schema,
                predicate: Some(match existing {
                    None => predicate,
                    Some(e) => e.and(predicate),
                }),
            },
            other => Plan::Filter {
                input: Box::new(other),
                predicate,
            },
        };
        self
    }

    /// Project the named columns, in the given order.
    pub fn project(mut self, columns: Vec<&str>) -> Self {
        self.plan = Plan::Project {
            input: Box::new(self.plan),
            columns: columns.into_iter().map(str::to_owned).collect(),
        };
        self
    }

    /// `self` becomes the build (preserved, for outer joins) side.
    pub fn join(
        mut self,
        probe: PlanBuilder,
        build_key: &str,
        probe_key: &str,
        join_type: JoinType,
    ) -> Self {
        self.plan = Plan::Join {
            build: Box::new(self.plan),
            probe: Box::new(probe.plan),
            build_key: build_key.to_owned(),
            probe_key: probe_key.to_owned(),
            join_type,
        };
        self
    }

    /// Group by the named columns and compute `aggs` per group.
    pub fn aggregate(mut self, group_by: Vec<&str>, aggs: Vec<AggFunc>) -> Self {
        self.plan = Plan::Aggregate {
            input: Box::new(self.plan),
            group_by: group_by.into_iter().map(str::to_owned).collect(),
            aggs,
        };
        self
    }

    /// Sort by the given keys, major first.
    pub fn sort(mut self, keys: Vec<SortKey>) -> Self {
        self.plan = Plan::Sort {
            input: Box::new(self.plan),
            keys,
        };
        self
    }

    /// Sort by one bare column (the common top-k spelling).
    pub fn order_by(self, column: &str, desc: bool) -> Self {
        self.sort(vec![SortKey {
            expr: snowprune_expr::dsl::col(column),
            desc,
        }])
    }

    /// Keep at most `k` rows.
    pub fn limit(mut self, k: u64) -> Self {
        self.plan = Plan::Limit {
            input: Box::new(self.plan),
            k,
            offset: 0,
        };
        self
    }

    /// Keep at most `k` rows after skipping `offset`.
    pub fn limit_offset(mut self, k: u64, offset: u64) -> Self {
        self.plan = Plan::Limit {
            input: Box::new(self.plan),
            k,
            offset,
        };
        self
    }

    /// The plan built so far, without consuming the builder (used by the
    /// SQL binder to resolve ORDER BY keys against the current schema).
    pub fn peek(&self) -> &Plan {
        &self.plan
    }

    /// Finish and return the built plan.
    pub fn build(self) -> Plan {
        self.plan
    }
}

impl fmt::Display for Plan {
    /// Indented EXPLAIN-style rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Plan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match p {
                Plan::Scan {
                    table, predicate, ..
                } => match predicate {
                    Some(e) => writeln!(f, "{pad}Scan {table} [{e}]"),
                    None => writeln!(f, "{pad}Scan {table}"),
                },
                Plan::Filter { input, predicate } => {
                    writeln!(f, "{pad}Filter [{predicate}]")?;
                    go(input, f, depth + 1)
                }
                Plan::Project { input, columns } => {
                    writeln!(f, "{pad}Project [{}]", columns.join(", "))?;
                    go(input, f, depth + 1)
                }
                Plan::Join {
                    build,
                    probe,
                    build_key,
                    probe_key,
                    join_type,
                } => {
                    writeln!(f, "{pad}Join{join_type:?} [{build_key} = {probe_key}]")?;
                    go(build, f, depth + 1)?;
                    go(probe, f, depth + 1)
                }
                Plan::Aggregate {
                    input,
                    group_by,
                    aggs,
                } => {
                    let aggs_s: Vec<String> = aggs.iter().map(AggFunc::sql).collect();
                    writeln!(
                        f,
                        "{pad}Aggregate [group by {}; {}]",
                        group_by.join(", "),
                        aggs_s.join(", ")
                    )?;
                    go(input, f, depth + 1)
                }
                Plan::Sort { input, keys } => {
                    let ks: Vec<String> = keys
                        .iter()
                        .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                        .collect();
                    writeln!(f, "{pad}Sort [{}]", ks.join(", "))?;
                    go(input, f, depth + 1)
                }
                Plan::Limit { input, k, offset } => {
                    if *offset > 0 {
                        writeln!(f, "{pad}Limit [{k} OFFSET {offset}]")?;
                    } else {
                        writeln!(f, "{pad}Limit [{k}]")?;
                    }
                    go(input, f, depth + 1)
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::Field;
    use snowprune_types::ScalarType;

    fn trails() -> Schema {
        Schema::new(vec![
            Field::new("mountain", ScalarType::Str),
            Field::new("altit", ScalarType::Int),
        ])
    }

    fn tracking() -> Schema {
        Schema::new(vec![
            Field::new("area", ScalarType::Str),
            Field::new("num_sightings", ScalarType::Int),
        ])
    }

    #[test]
    fn filter_merges_into_scan() {
        let p = PlanBuilder::scan("trails", trails())
            .filter(col("altit").gt(lit(1500i64)))
            .filter(col("mountain").like("M%"))
            .build();
        match &p {
            Plan::Scan {
                predicate: Some(e), ..
            } => {
                assert!(e.to_string().contains("AND"));
            }
            other => panic!("expected merged scan, got {other:?}"),
        }
    }

    #[test]
    fn schema_propagation() {
        let p = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::Inner,
            )
            .aggregate(vec!["mountain"], vec![AggFunc::Sum("num_sightings".into())])
            .build();
        let s = p.schema().unwrap();
        assert_eq!(s.fields()[0].name, "mountain");
        assert_eq!(s.fields()[1].name, "sum_num_sightings");
        p.check().unwrap();
    }

    #[test]
    fn check_catches_bad_join_key() {
        let p = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "nope",
                "area",
                JoinType::Inner,
            )
            .build();
        assert!(p.check().is_err());
    }

    #[test]
    fn explain_rendering() {
        let p = PlanBuilder::scan("trails", trails())
            .filter(col("altit").gt(lit(1i64)))
            .limit(5)
            .build();
        let s = p.to_string();
        assert!(s.starts_with("Limit [5]"));
        assert!(s.contains("Scan trails"));
    }
}
