//! The expression tree used for predicates and scalar computations.
//!
//! Expressions are built unbound (columns referenced by name) and bound
//! against a table [`Schema`] before evaluation, which resolves column
//! indices. The `Display` impl renders SQL-ish text used for query
//! classification (Table 1 of the paper) and plan fingerprints.

use std::fmt;

use snowprune_storage::Schema;
use snowprune_types::{Result, Value};

/// A column reference. `index` is `UNRESOLVED` until [`Expr::bind`] runs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Resolved column position, or [`ColumnRef::UNRESOLVED`].
    pub index: usize,
    /// Column name as written in the plan.
    pub name: String,
}

impl ColumnRef {
    /// Sentinel index of a reference that has not been bound yet.
    pub const UNRESOLVED: usize = usize::MAX;
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with operands swapped (`a < b` == `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// SQL negation (`NOT (a < b)` == `a >= b`), ignoring NULLs — callers
    /// must handle three-valued logic separately.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator's SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// The operator's SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant value.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// A binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// SQL `AND` over all operands (Kleene three-valued).
    And(Vec<Expr>),
    /// SQL `OR` over all operands (Kleene three-valued).
    Or(Vec<Expr>),
    /// SQL `NOT`.
    Not(Box<Expr>),
    /// SQL `IS NULL`.
    IsNull(Box<Expr>),
    /// Binary arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `IF(cond, then, else)` — the paper's §3.1 running example.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// `STARTSWITH(expr, prefix)` — the target of the imprecise rewrite.
    StartsWith(Box<Expr>, String),
    /// SQL `IN (v1, v2, …)`.
    InList(Box<Expr>, Vec<Value>),
    /// SQL `COALESCE` — first non-null operand.
    Coalesce(Vec<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
}

impl Expr {
    /// Resolve all column references against `schema`. Fails on unknown
    /// columns; already-bound indices are re-resolved by name.
    pub fn bind(&self, schema: &Schema) -> Result<Expr> {
        let mut e = self.clone();
        e.bind_in_place(schema)?;
        Ok(e)
    }

    fn bind_in_place(&mut self, schema: &Schema) -> Result<()> {
        self.try_visit_mut(&mut |e| {
            if let Expr::Column(c) = e {
                c.index = schema.index_of(&c.name)?;
            }
            Ok(())
        })
    }

    /// All distinct column indices referenced (bound expressions only).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                if !cols.contains(&c.index) {
                    cols.push(c.index);
                }
            }
        });
        cols.sort_unstable();
        cols
    }

    /// Pre-order immutable traversal.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::And(xs) | Expr::Or(xs) | Expr::Coalesce(xs) => {
                for x in xs {
                    x.visit(f);
                }
            }
            Expr::Not(x)
            | Expr::IsNull(x)
            | Expr::Neg(x)
            | Expr::Abs(x)
            | Expr::Like(x, _)
            | Expr::StartsWith(x, _)
            | Expr::InList(x, _) => x.visit(f),
            Expr::If(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }

    /// Pre-order mutable traversal that can fail.
    pub fn try_visit_mut(&mut self, f: &mut impl FnMut(&mut Expr) -> Result<()>) -> Result<()> {
        f(self)?;
        match self {
            Expr::Literal(_) | Expr::Column(_) => Ok(()),
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.try_visit_mut(f)?;
                b.try_visit_mut(f)
            }
            Expr::And(xs) | Expr::Or(xs) | Expr::Coalesce(xs) => {
                for x in xs {
                    x.try_visit_mut(f)?;
                }
                Ok(())
            }
            Expr::Not(x)
            | Expr::IsNull(x)
            | Expr::Neg(x)
            | Expr::Abs(x)
            | Expr::Like(x, _)
            | Expr::StartsWith(x, _)
            | Expr::InList(x, _) => x.try_visit_mut(f),
            Expr::If(c, t, e) => {
                c.try_visit_mut(f)?;
                t.try_visit_mut(f)?;
                e.try_visit_mut(f)
            }
        }
    }

    /// Rewrite bound column indices through `map`: a reference to output
    /// column `i` becomes a reference to `map[i]`. Used by the vectorized
    /// chain to re-express post-projection filters directly against the
    /// underlying partition's column layout. Panics on unbound references
    /// or indices outside `map` — callers remap only bound chain filters.
    pub fn remap_columns(&self, map: &[usize]) -> Expr {
        let mut e = self.clone();
        e.try_visit_mut(&mut |x| {
            if let Expr::Column(c) = x {
                c.index = map[c.index];
            }
            Ok(())
        })
        .expect("infallible remap");
        e
    }

    /// Conjunction splitting: `a AND b AND c` → `[a, b, c]`.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        match self {
            Expr::And(xs) => xs.iter().flat_map(|x| x.split_conjunction()).collect(),
            other => vec![other],
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(c) => write!(f, "{}", c.name),
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.sql()),
            Expr::And(xs) => write_joined(f, xs, " AND "),
            Expr::Or(xs) => write_joined(f, xs, " OR "),
            Expr::Not(x) => write!(f, "(NOT {x})"),
            Expr::IsNull(x) => write!(f, "({x} IS NULL)"),
            Expr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.sql()),
            Expr::Neg(x) => write!(f, "(-{x})"),
            Expr::If(c, t, e) => write!(f, "IF({c}, {t}, {e})"),
            Expr::Like(x, p) => write!(f, "({x} LIKE '{}')", p.replace('\'', "''")),
            Expr::StartsWith(x, p) => write!(f, "STARTSWITH({x}, '{}')", p.replace('\'', "''")),
            Expr::InList(x, vs) => {
                write!(f, "({x} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::Coalesce(xs) => {
                write!(f, "COALESCE(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Abs(x) => write!(f, "ABS({x})"),
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, xs: &[Expr], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{x}")?;
    }
    write!(f, ")")
}

/// Ergonomic constructors for building expressions.
#[allow(clippy::should_implement_trait)] // `add`/`mul`/`not`/... mirror SQL, not std ops
pub mod dsl {
    use super::*;

    /// An unbound column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef {
            index: ColumnRef::UNRESOLVED,
            name: name.into(),
        })
    }

    /// A literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `IF(cond, then, else)`.
    pub fn if_(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// `COALESCE(x1, x2, …)`.
    pub fn coalesce(xs: Vec<Expr>) -> Expr {
        Expr::Coalesce(xs)
    }

    impl Expr {
        /// `self = rhs`.
        pub fn eq(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
        }
        /// `self <> rhs`.
        pub fn ne(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
        }
        /// `self < rhs`.
        pub fn lt(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
        }
        /// `self <= rhs`.
        pub fn le(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
        }
        /// `self > rhs`.
        pub fn gt(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
        }
        /// `self >= rhs`.
        pub fn ge(self, rhs: Expr) -> Expr {
            Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
        }
        /// `self AND rhs`, flattening nested ANDs.
        pub fn and(self, rhs: Expr) -> Expr {
            match self {
                Expr::And(mut xs) => {
                    xs.push(rhs);
                    Expr::And(xs)
                }
                other => Expr::And(vec![other, rhs]),
            }
        }
        /// `self OR rhs`, flattening nested ORs.
        pub fn or(self, rhs: Expr) -> Expr {
            match self {
                Expr::Or(mut xs) => {
                    xs.push(rhs);
                    Expr::Or(xs)
                }
                other => Expr::Or(vec![other, rhs]),
            }
        }
        /// `NOT self`.
        #[allow(clippy::should_implement_trait)]
        pub fn not(self) -> Expr {
            Expr::Not(Box::new(self))
        }
        /// `self IS NULL`.
        pub fn is_null(self) -> Expr {
            Expr::IsNull(Box::new(self))
        }
        /// `self + rhs`.
        pub fn add(self, rhs: Expr) -> Expr {
            Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
        }
        /// `self - rhs`.
        pub fn sub(self, rhs: Expr) -> Expr {
            Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
        }
        /// `self * rhs`.
        pub fn mul(self, rhs: Expr) -> Expr {
            Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
        }
        /// `self / rhs`.
        pub fn div(self, rhs: Expr) -> Expr {
            Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
        }
        /// `-self`.
        pub fn neg(self) -> Expr {
            Expr::Neg(Box::new(self))
        }
        /// `self LIKE pattern`.
        pub fn like(self, pattern: impl Into<String>) -> Expr {
            Expr::Like(Box::new(self), pattern.into())
        }
        /// `STARTSWITH(self, prefix)`.
        pub fn starts_with(self, prefix: impl Into<String>) -> Expr {
            Expr::StartsWith(Box::new(self), prefix.into())
        }
        /// `self IN (vals…)`.
        pub fn in_list(self, vals: Vec<Value>) -> Expr {
            Expr::InList(Box::new(self), vals)
        }
        /// `ABS(self)`.
        pub fn abs(self) -> Expr {
            Expr::Abs(Box::new(self))
        }
        /// `self BETWEEN lo AND hi` (inclusive both ends).
        pub fn between(self, lo: Expr, hi: Expr) -> Expr {
            self.clone().ge(lo).and(self.le(hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;
    use snowprune_storage::Field;
    use snowprune_types::ScalarType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("unit", ScalarType::Str),
            Field::new("altit", ScalarType::Int),
            Field::new("name", ScalarType::Str),
        ])
    }

    #[test]
    fn bind_resolves_columns() {
        let e = col("altit")
            .gt(lit(1500i64))
            .and(col("name").like("Marked-%-Ridge"));
        let unresolved = |e: &Expr| {
            let mut n = 0;
            e.visit(&mut |x| {
                if let Expr::Column(c) = x {
                    n += usize::from(c.index == ColumnRef::UNRESOLVED);
                }
            });
            n
        };
        assert_eq!(unresolved(&e), 2);
        let b = e.bind(&schema()).unwrap();
        assert_eq!(unresolved(&b), 0);
        assert_eq!(b.referenced_columns(), vec![1, 2]);
    }

    #[test]
    fn bind_fails_on_unknown_column() {
        assert!(col("missing").eq(lit(1i64)).bind(&schema()).is_err());
    }

    #[test]
    fn display_renders_paper_example() {
        let e = if_(
            col("unit").eq(lit("feet")),
            col("altit").mul(lit(0.3048)),
            col("altit"),
        )
        .gt(lit(1500i64))
        .and(col("name").like("Marked-%-Ridge"));
        let s = e.to_string();
        assert!(
            s.contains("IF((unit = 'feet'), (altit * 0.3048), altit)"),
            "{s}"
        );
        assert!(s.contains("LIKE 'Marked-%-Ridge'"), "{s}");
    }

    #[test]
    fn split_conjunction_flattens() {
        let e = col("a")
            .gt(lit(1i64))
            .and(col("b").lt(lit(2i64)))
            .and(col("c").eq(lit(3i64)));
        assert_eq!(e.split_conjunction().len(), 3);
    }

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }
}
