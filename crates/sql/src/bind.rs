//! The binder: spanned AST → executable [`Statement`]s over the plan IR.
//!
//! Binding resolves every table against the [`Catalog`] and every column
//! against the statement's scope (one table, or two across a join), then
//! lowers SELECTs onto [`Plan`] via [`PlanBuilder`] and DML onto bound
//! predicate/assignment expressions. Lowered query plans keep their
//! column references **unbound** (`ColumnRef::UNRESOLVED`), exactly like
//! hand-built plans — the executor binds at admission — which is what
//! makes the SQL round-trip differential harness able to demand
//! structural plan equality.
//!
//! Every rejection is [`Error::PlanRejected`] with a spanned diagnostic;
//! after lowering, the statement is additionally vetted by the phase-0
//! static verifier (`snowprune-analyze`), whose findings get the
//! statement's source span attached so the REPL can render carets for
//! them too.

use snowprune_analyze::typecheck::{infer, Ty};
use snowprune_expr::{dsl, Expr};
use snowprune_plan::{AggFunc, JoinType, Plan, PlanBuilder, SortKey};
use snowprune_storage::{Catalog, Schema};
use snowprune_types::{DiagCode, Diagnostic, Error, Result, ScalarType, Span, Value};

use crate::ast::{
    AggCall, AggName, ColumnName, Name, SelectItem, SelectStmt, SqlExpr, SqlExprKind, Stmt,
};
use crate::parse::parse_statement;

/// A bound, executable statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A SELECT lowered onto the plan IR (verified by the static analyzer).
    Query(Plan),
    /// `INSERT INTO table VALUES …` with literal rows evaluated.
    Insert {
        /// Target table name (resolved).
        table: String,
        /// Rows to append, one value per column.
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM table [WHERE …]` with the predicate bound to the
    /// table schema (column indices resolved).
    Delete {
        /// Target table name (resolved).
        table: String,
        /// Bound predicate; `None` deletes every row.
        predicate: Option<Expr>,
    },
    /// `UPDATE table SET … [WHERE …]` with assignments and predicate
    /// bound to the table schema.
    Update {
        /// Target table name (resolved).
        table: String,
        /// `(column index, bound value expression)` per assignment;
        /// expressions are evaluated against the *old* row.
        sets: Vec<(usize, Expr)>,
        /// Bound predicate; `None` updates every row.
        predicate: Option<Expr>,
    },
}

fn reject(code: DiagCode, message: impl Into<String>, span: Span) -> Error {
    Error::PlanRejected(vec![Diagnostic::error(code, "sql", message).with_span(span)])
}

/// True when `err` is an ambiguous-column rejection (which must always
/// surface, even where an unknown name would fall back to another
/// resolution path).
fn is_ambiguous(err: &Error) -> bool {
    matches!(err, Error::PlanRejected(ds) if ds.iter().any(|d| d.code == DiagCode::AmbiguousColumn))
}

/// Parse and bind one statement against `catalog`.
pub fn bind_sql(src: &str, catalog: &Catalog) -> Result<Statement> {
    bind(&parse_statement(src)?, catalog)
}

/// Bind a parsed statement against `catalog`.
pub fn bind(stmt: &Stmt, catalog: &Catalog) -> Result<Statement> {
    match stmt {
        Stmt::Select(s) => bind_select(s, catalog).map(Statement::Query),
        Stmt::Insert { table, rows } => bind_insert(table, rows, catalog),
        Stmt::Delete { table, selection } => {
            let (name, schema) = lookup(table, catalog)?;
            let scope = Scope::single(&name, &schema);
            let predicate = selection
                .as_ref()
                .map(|e| scope.lower_bound(e, &schema))
                .transpose()?;
            Ok(Statement::Delete {
                table: name,
                predicate,
            })
        }
        Stmt::Update {
            table,
            sets,
            selection,
        } => {
            let (name, schema) = lookup(table, catalog)?;
            let scope = Scope::single(&name, &schema);
            let mut bound_sets = Vec::with_capacity(sets.len());
            for (col, e) in sets {
                let idx = schema.index_of(&col.text).map_err(|_| {
                    reject(
                        DiagCode::UnknownColumn,
                        format!("no column `{}` in table `{name}`", col.text),
                        col.span,
                    )
                })?;
                let value = scope.lower(e, &mut 0)?;
                check_assignable(&value, e.span, &schema, idx)?;
                bound_sets.push((idx, value.bind(&schema)?));
            }
            let predicate = selection
                .as_ref()
                .map(|e| scope.lower_bound(e, &schema))
                .transpose()?;
            Ok(Statement::Update {
                table: name,
                sets: bound_sets,
                predicate,
            })
        }
    }
}

/// Resolve a table name in the catalog, returning its name and schema.
fn lookup(table: &Name, catalog: &Catalog) -> Result<(String, Schema)> {
    match catalog.get(&table.text) {
        Ok(handle) => {
            let schema = handle.read().schema().clone();
            Ok((table.text.clone(), schema))
        }
        Err(_) => Err(reject(
            DiagCode::UnknownTable,
            format!("no table `{}` in the catalog", table.text),
            table.span,
        )),
    }
}

fn bind_insert(table: &Name, rows: &[Vec<SqlExpr>], catalog: &Catalog) -> Result<Statement> {
    let (name, schema) = lookup(table, catalog)?;
    let scope = Scope::empty();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != schema.len() {
            let span = row
                .iter()
                .map(|e| e.span)
                .reduce(Span::to)
                .unwrap_or(table.span);
            return Err(reject(
                DiagCode::SqlSyntax,
                format!(
                    "table `{name}` has {} columns but the VALUES row has {}",
                    schema.len(),
                    row.len()
                ),
                span,
            ));
        }
        let mut vals = Vec::with_capacity(row.len());
        for (idx, e) in row.iter().enumerate() {
            let expr = scope.lower(e, &mut 0)?;
            check_assignable(&expr, e.span, &schema, idx)?;
            vals.push(snowprune_expr::eval_value(&expr, &[]));
        }
        out.push(vals);
    }
    Ok(Statement::Insert {
        table: name,
        rows: out,
    })
}

/// Refuse, with a caret under `span`, a write of `value` into column
/// `idx` that the column cannot hold, before anything is written. A
/// column stores its own type, NULL, or (a Float column) an Int: the pairs
/// the storage column builder accepts. So `b / 2` into an Int column is
/// refused, because division yields a Float, and so is a value whose type
/// is known only row by row.
fn check_assignable(value: &Expr, span: Span, schema: &Schema, idx: usize) -> Result<()> {
    let field = schema.field(idx)?;
    let mut diags = Vec::new();
    let ty = infer(value, schema, "sql", &mut diags);
    if let Some(d) = diags.into_iter().find(Diagnostic::is_error) {
        return Err(Error::PlanRejected(vec![d.with_span(span)]));
    }
    let assignable = match ty {
        Ty::Null => true,
        Ty::Known(t) => t == field.ty || (t == ScalarType::Int && field.ty == ScalarType::Float),
        Ty::Numeric => field.ty == ScalarType::Float,
        Ty::Any => false,
    };
    if assignable {
        return Ok(());
    }
    Err(reject(
        DiagCode::AssignmentTypeMismatch,
        format!(
            "column `{}` is {} but the value is {}",
            field.name,
            field.ty,
            ty.describe()
        ),
        span,
    ))
}

/// Which side(s) of a (possibly joined) scope a lowered expression read.
const BUILD: u8 = 0b01;
const PROBE: u8 = 0b10;

/// Column resolution scope: the FROM table, optionally plus a joined one.
struct Scope<'a> {
    /// `(table name, schema)`; index 0 = build/FROM side, 1 = probe side.
    tables: Vec<(&'a str, &'a Schema)>,
}

impl<'a> Scope<'a> {
    fn empty() -> Self {
        Scope { tables: Vec::new() }
    }

    fn single(name: &'a str, schema: &'a Schema) -> Self {
        Scope {
            tables: vec![(name, schema)],
        }
    }

    fn joined(build: (&'a str, &'a Schema), probe: (&'a str, &'a Schema)) -> Self {
        Scope {
            tables: vec![build, probe],
        }
    }

    /// Resolve a (possibly qualified) column to `(side index, name)`.
    fn resolve(&self, c: &ColumnName) -> Result<(usize, String)> {
        if let Some(q) = &c.table {
            let side = self
                .tables
                .iter()
                .position(|(name, _)| *name == q.text)
                .ok_or_else(|| {
                    reject(
                        DiagCode::UnknownTable,
                        format!("`{}` is not a table in this statement", q.text),
                        q.span,
                    )
                })?;
            if !self.tables[side].1.contains(&c.column.text) {
                return Err(reject(
                    DiagCode::UnknownColumn,
                    format!("no column `{}` in table `{}`", c.column.text, q.text),
                    c.column.span,
                ));
            }
            return Ok((side, c.column.text.clone()));
        }
        let hits: Vec<usize> = self
            .tables
            .iter()
            .enumerate()
            .filter(|(_, (_, s))| s.contains(&c.column.text))
            .map(|(i, _)| i)
            .collect();
        match hits.as_slice() {
            [side] => Ok((*side, c.column.text.clone())),
            [] => Err(reject(
                DiagCode::UnknownColumn,
                format!("no column `{}` in scope", c.column.text),
                c.column.span,
            )),
            _ => Err(reject(
                DiagCode::AmbiguousColumn,
                format!(
                    "column `{}` exists in both `{}` and `{}`; qualify it",
                    c.column.text, self.tables[0].0, self.tables[1].0
                ),
                c.column.span,
            )),
        }
    }

    /// The column's name in the join *output* schema: probe-side columns
    /// whose name collides with a build-side column get the `probe_`
    /// prefix (mirroring `Schema::join`).
    fn output_name(&self, side: usize, name: &str) -> String {
        if side == 1 && self.tables[0].1.contains(name) {
            format!("probe_{name}")
        } else {
            name.to_owned()
        }
    }

    /// Lower to an unbound [`Expr`] (scan-side names), OR-ing the sides
    /// each column resolved to into `sides`.
    fn lower(&self, e: &SqlExpr, sides: &mut u8) -> Result<Expr> {
        self.lower_with(e, sides, false)
    }

    /// Lower to an unbound [`Expr`] using join-output column names
    /// (for residual filters and sort keys sitting above the join).
    fn lower_output(&self, e: &SqlExpr, sides: &mut u8) -> Result<Expr> {
        self.lower_with(e, sides, true)
    }

    /// Lower and bind against `schema` (for DML evaluation).
    fn lower_bound(&self, e: &SqlExpr, schema: &Schema) -> Result<Expr> {
        self.lower(e, &mut 0)?.bind(schema)
    }

    fn lower_with(&self, e: &SqlExpr, sides: &mut u8, output_names: bool) -> Result<Expr> {
        let mut lo = |x: &SqlExpr| self.lower_with(x, sides, output_names);
        Ok(match &e.kind {
            SqlExprKind::Literal(v) => Expr::Literal(v.clone()),
            SqlExprKind::Column(c) => {
                let (side, name) = self.resolve(c)?;
                *sides |= if side == 0 { BUILD } else { PROBE };
                let name = if output_names {
                    self.output_name(side, &name)
                } else {
                    name
                };
                dsl::col(name)
            }
            SqlExprKind::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(lo(a)?), Box::new(lo(b)?)),
            SqlExprKind::And(xs) => Expr::And(xs.iter().map(&mut lo).collect::<Result<Vec<_>>>()?),
            SqlExprKind::Or(xs) => Expr::Or(xs.iter().map(&mut lo).collect::<Result<Vec<_>>>()?),
            SqlExprKind::Not(x) => Expr::Not(Box::new(lo(x)?)),
            SqlExprKind::IsNull(x) => Expr::IsNull(Box::new(lo(x)?)),
            SqlExprKind::Arith(op, a, b) => Expr::Arith(*op, Box::new(lo(a)?), Box::new(lo(b)?)),
            SqlExprKind::Neg(x) => Expr::Neg(Box::new(lo(x)?)),
            SqlExprKind::If(c, t, f) => {
                Expr::If(Box::new(lo(c)?), Box::new(lo(t)?), Box::new(lo(f)?))
            }
            SqlExprKind::Like(x, p) => Expr::Like(Box::new(lo(x)?), p.clone()),
            SqlExprKind::StartsWith(x, p) => Expr::StartsWith(Box::new(lo(x)?), p.clone()),
            SqlExprKind::InList(x, vs) => Expr::InList(Box::new(lo(x)?), vs.clone()),
            SqlExprKind::Coalesce(xs) => {
                Expr::Coalesce(xs.iter().map(&mut lo).collect::<Result<Vec<_>>>()?)
            }
            SqlExprKind::Abs(x) => Expr::Abs(Box::new(lo(x)?)),
            // `x BETWEEN lo AND hi` lowers exactly like the DSL's
            // `.between()`: `And([x >= lo, x <= hi])`.
            SqlExprKind::Between(x, a, b) => {
                let xe = lo(x)?;
                Expr::And(vec![
                    Expr::Cmp(
                        snowprune_expr::CmpOp::Ge,
                        Box::new(xe.clone()),
                        Box::new(lo(a)?),
                    ),
                    Expr::Cmp(snowprune_expr::CmpOp::Le, Box::new(xe), Box::new(lo(b)?)),
                ])
            }
        })
    }
}

fn lower_agg(scope: &Scope<'_>, call: &AggCall) -> Result<AggFunc> {
    let arg_name = match &call.arg {
        None => {
            return Ok(AggFunc::CountStar);
        }
        Some(c) => {
            let (side, name) = scope.resolve(c)?;
            scope.output_name(side, &name)
        }
    };
    Ok(match call.func {
        AggName::Count => AggFunc::Count(arg_name),
        AggName::Sum => AggFunc::Sum(arg_name),
        AggName::Avg => AggFunc::Avg(arg_name),
        AggName::Min => AggFunc::Min(arg_name),
        AggName::Max => AggFunc::Max(arg_name),
    })
}

fn bind_select(s: &SelectStmt, catalog: &Catalog) -> Result<Plan> {
    let (from_name, from_schema) = lookup(&s.from, catalog)?;

    // The span the verifier's (span-free) findings get attached to; a
    // join-key finding points at the ON condition.
    let stmt_span = s.selection.as_ref().map(|e| e.span).unwrap_or(s.from.span);
    let on_span = s.join.as_ref().map(|j| j.left.span().to(j.right.span()));

    let plan = if let Some(j) = &s.join {
        let (probe_name, probe_schema) = lookup(&j.table, catalog)?;
        if probe_name == from_name {
            return Err(reject(
                DiagCode::SqlUnsupported,
                format!("self-join of `{from_name}` is not supported"),
                j.table.span,
            ));
        }
        let scope = Scope::joined((&from_name, &from_schema), (&probe_name, &probe_schema));

        // ON a = b: one side must come from each table.
        let (lside, lname) = scope.resolve(&j.left)?;
        let (rside, rname) = scope.resolve(&j.right)?;
        let (build_key, probe_key) = match (lside, rside) {
            (0, 1) => (lname, rname),
            (1, 0) => (rname, lname),
            _ => {
                return Err(reject(
                    DiagCode::SqlUnsupported,
                    "the join condition must compare one column from each table",
                    j.left.span().to(j.right.span()),
                ))
            }
        };

        // Route WHERE conjuncts: all-build → build scan, all-probe →
        // probe scan (both before the join, enabling pruning), mixed →
        // residual filter above the join. Build-side pushdown is valid
        // for both join types (LEFT JOIN preserves build rows, whose
        // columns are never null-extended, so filtering them commutes
        // with the join); probe-side pushdown is valid only for inner
        // joins — standard SQL applies WHERE *after* null-extension, so
        // under LEFT JOIN a probe-side predicate is UNKNOWN on every
        // unmatched (null-padded) build row and must drop it, which only
        // the residual filter above the join does.
        let mut build_filters = Vec::new();
        let mut probe_filters = Vec::new();
        let mut residual = Vec::new();
        if let Some(sel) = &s.selection {
            let conjuncts: Vec<&SqlExpr> = match &sel.kind {
                SqlExprKind::And(xs) => xs.iter().collect(),
                _ => vec![sel],
            };
            for c in conjuncts {
                let mut sides = 0u8;
                let lowered = scope.lower(c, &mut sides)?;
                match sides {
                    PROBE if !j.outer => probe_filters.push(lowered),
                    s if s & PROBE == 0 => build_filters.push(lowered),
                    _ => {
                        let mut again = 0u8;
                        residual.push(scope.lower_output(c, &mut again)?);
                    }
                }
            }
        }

        let mut build_side = PlanBuilder::scan(&from_name, from_schema.clone());
        for f in build_filters {
            build_side = build_side.filter(f);
        }
        let mut probe_side = PlanBuilder::scan(&probe_name, probe_schema.clone());
        for f in probe_filters {
            probe_side = probe_side.filter(f);
        }
        let join_type = if j.outer {
            JoinType::OuterPreserveBuild
        } else {
            JoinType::Inner
        };
        let mut b = build_side.join(probe_side, &build_key, &probe_key, join_type);
        for f in residual {
            b = b.filter(f);
        }
        finish_select(s, &scope, b, stmt_span)
    } else {
        let scope = Scope::single(&from_name, &from_schema);
        let mut b = PlanBuilder::scan(&from_name, from_schema.clone());
        if let Some(sel) = &s.selection {
            // The whole predicate goes to one `.filter()` call so the
            // lowered scan predicate is structurally identical to a
            // hand-built one.
            b = b.filter(scope.lower(sel, &mut 0)?);
        }
        finish_select(s, &scope, b, stmt_span)
    }?
    .build();

    // Phase-0 static verification; attach the statement's span so the
    // REPL can point a caret even at plan-level findings.
    match snowprune_analyze::verify(&plan) {
        Ok(_) => Ok(plan),
        Err(Error::PlanRejected(diags)) => Err(Error::PlanRejected(
            diags
                .into_iter()
                .map(|d| match (d.span, on_span) {
                    (Some(_), _) => d,
                    (None, Some(on)) if d.code == DiagCode::JoinKeyMismatch => d.with_span(on),
                    (None, _) => d.with_span(stmt_span),
                })
                .collect(),
        )),
        Err(other) => Err(other),
    }
}

/// Apply SELECT list / GROUP BY / ORDER BY / LIMIT on top of the bound
/// FROM(+JOIN+WHERE) input.
fn finish_select(
    s: &SelectStmt,
    scope: &Scope<'_>,
    mut b: PlanBuilder,
    stmt_span: Span,
) -> Result<PlanBuilder> {
    let has_aggs = s.items.iter().any(|i| matches!(i, SelectItem::Agg(_)));

    if has_aggs {
        // Group keys in clause order; aggregates in SELECT order.
        let mut group_by = Vec::with_capacity(s.group_by.len());
        for g in &s.group_by {
            let (side, name) = scope.resolve(g)?;
            group_by.push(scope.output_name(side, &name));
        }
        let mut aggs = Vec::new();
        let mut bare = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Agg(call) => aggs.push(lower_agg(scope, call)?),
                SelectItem::Column(c) => {
                    let (side, name) = scope.resolve(c)?;
                    let out = scope.output_name(side, &name);
                    if !group_by.contains(&out) {
                        return Err(reject(
                            DiagCode::SqlUnsupported,
                            format!("column `{out}` must appear in GROUP BY"),
                            c.span(),
                        ));
                    }
                    bare.push((out, c.span()));
                }
                SelectItem::Star(span) => {
                    return Err(reject(
                        DiagCode::SqlUnsupported,
                        "`*` cannot be mixed with aggregates in the SELECT list",
                        *span,
                    ))
                }
            }
        }
        // The Aggregate node always emits [keys..., aggs...]; only add a
        // Project when the SELECT list deviates from that order.
        let natural: Vec<String> = group_by
            .iter()
            .cloned()
            .chain(aggs.iter().map(AggFunc::output_name))
            .collect();
        let written: Vec<String> = s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Column(c) => {
                    let (side, name) = scope.resolve(c).expect("resolved above");
                    scope.output_name(side, &name)
                }
                SelectItem::Agg(call) => {
                    lower_agg(scope, call).expect("lowered above").output_name()
                }
                SelectItem::Star(_) => unreachable!("rejected above"),
            })
            .collect();
        b = b.aggregate(group_by.iter().map(String::as_str).collect(), aggs);
        if written != natural {
            b = b.project(written.iter().map(String::as_str).collect());
        }
    } else {
        if !s.group_by.is_empty() {
            return Err(reject(
                DiagCode::SqlUnsupported,
                "GROUP BY requires at least one aggregate in the SELECT list",
                s.group_by[0].span(),
            ));
        }
        let star = s.items.iter().find_map(|i| match i {
            SelectItem::Star(sp) => Some(*sp),
            _ => None,
        });
        match star {
            Some(span) if s.items.len() > 1 => {
                return Err(reject(
                    DiagCode::SqlUnsupported,
                    "`*` cannot be combined with other SELECT items",
                    span,
                ))
            }
            Some(_) => {} // SELECT * — no projection node.
            None => {
                let mut cols = Vec::with_capacity(s.items.len());
                for item in &s.items {
                    let SelectItem::Column(c) = item else {
                        unreachable!("aggregates handled above");
                    };
                    let (side, name) = scope.resolve(c)?;
                    cols.push(scope.output_name(side, &name));
                }
                b = b.project(cols.iter().map(String::as_str).collect());
            }
        }
    }

    if !s.order_by.is_empty() {
        // Sort keys must name columns of the current output schema.
        let schema = b.peek().schema().map_err(|e| match e {
            Error::UnknownColumn(c) => reject(
                DiagCode::UnknownColumn,
                format!("no column `{c}` in the SELECT output"),
                stmt_span,
            ),
            other => other,
        })?;
        let mut keys = Vec::with_capacity(s.order_by.len());
        for o in &s.order_by {
            // Sort keys resolve through the scope like every other
            // reference, so an unqualified name both tables export is
            // rejected as ambiguous here too. Names the scope does not
            // know may still be output-schema columns the scope cannot
            // see (aggregate outputs like `count` or `sum_b`), so an
            // unqualified UnknownColumn falls through to the
            // output-schema check below.
            let name = match scope.resolve(&o.column) {
                Ok((side, name)) => scope.output_name(side, &name),
                Err(e) if o.column.table.is_some() || is_ambiguous(&e) => return Err(e),
                Err(_) => o.column.column.text.clone(),
            };
            if !schema.contains(&name) {
                return Err(reject(
                    DiagCode::UnknownColumn,
                    format!("no column `{name}` in the SELECT output to order by"),
                    o.column.span(),
                ));
            }
            keys.push(SortKey {
                expr: dsl::col(&name),
                desc: o.desc,
            });
        }
        b = b.sort(keys);
    }

    if let Some(l) = &s.limit {
        b = if l.offset > 0 {
            b.limit_offset(l.k, l.offset)
        } else {
            b.limit(l.k)
        };
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_exec::{ExecConfig, Session};
    use snowprune_plan::pretty;
    use snowprune_storage::{Field, TableBuilder};
    use snowprune_types::ScalarType;

    /// `dim(id, weight)` with an unmatched row, `fact(a, b)` joining on
    /// `b = id` — small enough to assert exact LEFT JOIN results.
    fn join_catalog() -> Catalog {
        let dim_schema = Schema::new(vec![
            Field::new("id", ScalarType::Int),
            Field::new("weight", ScalarType::Int),
        ]);
        let mut dim = TableBuilder::new("dim", dim_schema);
        dim.push_row(vec![Value::Int(1), Value::Int(10)]);
        dim.push_row(vec![Value::Int(2), Value::Int(20)]);
        dim.push_row(vec![Value::Int(3), Value::Int(30)]);
        let fact_schema = Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("b", ScalarType::Int),
        ]);
        let mut fact = TableBuilder::new("fact", fact_schema);
        fact.push_row(vec![Value::Int(100), Value::Int(1)]);
        fact.push_row(vec![Value::Int(200), Value::Int(1)]);
        let catalog = Catalog::new();
        catalog.register(dim.build());
        catalog.register(fact.build());
        catalog
    }

    /// Both tables export `x`, so unqualified references are ambiguous.
    fn shared_column_catalog() -> Catalog {
        let left = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("x", ScalarType::Int),
        ]);
        let right = Schema::new(vec![
            Field::new("fk", ScalarType::Int),
            Field::new("x", ScalarType::Int),
        ]);
        let mut l = TableBuilder::new("l", left);
        l.push_row(vec![Value::Int(1), Value::Int(10)]);
        let mut r = TableBuilder::new("r", right);
        r.push_row(vec![Value::Int(1), Value::Int(99)]);
        let catalog = Catalog::new();
        catalog.register(l.build());
        catalog.register(r.build());
        catalog
    }

    fn lowered(sql: &str, catalog: &Catalog) -> Plan {
        match bind_sql(sql, catalog).expect(sql) {
            Statement::Query(p) => p,
            other => panic!("{sql}: bound to {other:?}"),
        }
    }

    #[test]
    fn left_join_keeps_probe_conjuncts_above_the_join() {
        let catalog = join_catalog();
        // Inner join: the probe-only conjunct pushes into the probe scan.
        assert_eq!(
            pretty(&lowered(
                "SELECT * FROM dim JOIN fact ON id = b WHERE a >= 150",
                &catalog
            )),
            "Join Inner [id = b]\n  \
             Scan dim(id, weight)\n  \
             Scan fact(a, b) [(a >= 150)]\n"
        );
        // LEFT JOIN: the same conjunct must stay above the join (WHERE
        // applies after null-extension), while a build-only conjunct may
        // still push into the build scan.
        assert_eq!(
            pretty(&lowered(
                "SELECT * FROM dim LEFT JOIN fact ON id = b WHERE a >= 150 AND weight <= 20",
                &catalog
            )),
            "Filter [(a >= 150)]\n  \
             Join OuterPreserveBuild [id = b]\n    \
             Scan dim(id, weight) [(weight <= 20)]\n    \
             Scan fact(a, b)\n"
        );
    }

    #[test]
    fn left_join_where_drops_unmatched_build_rows() {
        let catalog = join_catalog();
        let session = Session::new(catalog.clone(), ExecConfig::default());
        let run = |sql: &str| {
            let mut rows = session.run(&lowered(sql, &catalog)).expect(sql).rows.rows;
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            rows
        };
        // Without WHERE, dim ids 2 and 3 survive null-padded.
        assert_eq!(run("SELECT * FROM dim LEFT JOIN fact ON id = b").len(), 4);
        // WHERE on a probe column is UNKNOWN on the null-padded rows and
        // must drop them — standard SQL, not pre-join probe filtering
        // (which would keep ids 2 and 3 null-padded).
        assert_eq!(
            run("SELECT * FROM dim LEFT JOIN fact ON id = b WHERE a >= 150"),
            vec![vec![
                Value::Int(1),
                Value::Int(10),
                Value::Int(200),
                Value::Int(1)
            ]]
        );
    }

    #[test]
    fn order_by_rejects_ambiguous_unqualified_columns() {
        let catalog = shared_column_catalog();
        let err = bind_sql("SELECT * FROM l JOIN r ON k = fk ORDER BY x", &catalog)
            .expect_err("ambiguous ORDER BY must be rejected");
        assert!(is_ambiguous(&err), "got {err}");
        // Qualifying the column resolves it: the probe side's collided
        // name sorts under its join-output name `probe_x`.
        let plan = lowered("SELECT * FROM l JOIN r ON k = fk ORDER BY r.x", &catalog);
        assert!(
            pretty(&plan).contains("Sort [probe_x ASC]"),
            "{}",
            pretty(&plan)
        );
    }

    #[test]
    fn mistyped_writes_are_refused_before_any_write() {
        use crate::SessionSqlExt;
        let session = Session::new(crate::demo_catalog(), ExecConfig::default());
        let fact = || {
            let t = session.catalog().get("fact").unwrap().read().clone();
            let rows: Vec<Vec<Value>> = t
                .partition_ids()
                .into_iter()
                .flat_map(|id| {
                    let p = t.partition(id).unwrap();
                    (0..p.row_count()).map(|i| p.row(i)).collect::<Vec<_>>()
                })
                .collect();
            (t.version(), t.partition_ids(), rows)
        };
        let before = fact();
        // fact(a BIGINT, b BIGINT, c VARCHAR).
        for sql in [
            "UPDATE fact SET b = b / 2 WHERE a = 1",
            "UPDATE fact SET b = 'x' WHERE a = 1",
            "UPDATE fact SET c = 1",
            "UPDATE fact SET b = a > 3",
            "INSERT INTO fact VALUES (1, 2.5, 'x')",
            "INSERT INTO fact VALUES ('z', 2, 'x')",
        ] {
            match session.run_sql(sql) {
                Err(Error::PlanRejected(ds)) => {
                    assert_eq!(ds.len(), 1, "{sql}");
                    assert_eq!(ds[0].code, DiagCode::AssignmentTypeMismatch, "{sql}");
                    assert!(ds[0].span.is_some(), "{sql}: a caret needs a span");
                }
                other => panic!("{sql}: {other:?}"),
            }
            assert!(fact() == before, "{sql} changed `fact`");
        }
        // NULL and the column's own type are assignable.
        for sql in [
            "UPDATE fact SET b = NULL WHERE a = 1",
            "UPDATE fact SET b = b + 1, c = 'y' WHERE a = 2",
            "INSERT INTO fact VALUES (5000, NULL, 'z')",
        ] {
            session.run_sql(sql).expect(sql);
        }
    }

    #[test]
    fn an_int_is_assignable_to_a_float_column_and_not_back() {
        let catalog = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("x", ScalarType::Int),
            Field::new("f", ScalarType::Float),
        ]);
        catalog.register(TableBuilder::new("m", schema).build());
        for ok in [
            "UPDATE m SET f = x",
            "UPDATE m SET f = x / 2",
            "INSERT INTO m VALUES (1, 2)",
        ] {
            bind_sql(ok, &catalog).expect(ok);
        }
        for bad in ["UPDATE m SET x = f", "INSERT INTO m VALUES (1.5, 2)"] {
            assert!(
                matches!(bind_sql(bad, &catalog), Err(Error::PlanRejected(ds))
                    if ds[0].code == DiagCode::AssignmentTypeMismatch),
                "{bad}"
            );
        }
    }
}
