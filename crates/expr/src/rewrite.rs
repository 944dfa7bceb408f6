//! Imprecise filter rewrites (§3.1) and expression simplification.
//!
//! "Predicates can be widened to facilitate more coarse-grained pruning":
//! a `LIKE` pattern that cannot be evaluated against min/max metadata is
//! analyzed into a *shape*; if it has a literal prefix, pruning can use the
//! widened predicate `STARTSWITH(prefix)` instead.

use snowprune_types::Value;

use crate::ast::{dsl, Expr};
use crate::eval::eval_value;

/// Structure of a LIKE pattern as far as pruning is concerned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LikeShape {
    /// No wildcards at all: equivalent to equality with the literal.
    Exact(String),
    /// `prefix%`: exactly a prefix test (no widening needed).
    Prefix(String),
    /// A literal prefix followed by further constraints (e.g.
    /// `Marked-%-Ridge`): pruning may use the prefix, but a match is not
    /// guaranteed within the prefix region (the rewrite *widened* the
    /// predicate).
    WidenedPrefix(String),
    /// Starts with a wildcard: no metadata-usable structure.
    Opaque,
}

/// Analyze a LIKE pattern. `%` matches any run, `_` any single character.
pub fn analyze_like(pattern: &str) -> LikeShape {
    let mut prefix = String::new();
    let mut rest = pattern.chars().peekable();
    while let Some(&c) = rest.peek() {
        if c == '%' || c == '_' {
            break;
        }
        prefix.push(c);
        rest.next();
    }
    let remainder: String = rest.collect();
    if remainder.is_empty() {
        return LikeShape::Exact(prefix);
    }
    if prefix.is_empty() {
        return LikeShape::Opaque;
    }
    if remainder == "%" {
        return LikeShape::Prefix(prefix);
    }
    LikeShape::WidenedPrefix(prefix)
}

/// The smallest string greater than every string starting with `prefix`
/// (exclusive upper bound of the prefix region): increment the last
/// character, carrying leftwards. `None` means unbounded (all chars were
/// `char::MAX`).
pub fn prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(&c) = chars.last() {
        // Skip the surrogate gap when incrementing.
        let bump = if c as u32 == 0xD7FF {
            Some('\u{E000}')
        } else {
            char::from_u32(c as u32 + 1)
        };
        if let Some(next) = bump {
            *chars.last_mut().unwrap() = next;
            return Some(chars.into_iter().collect());
        }
        chars.pop();
    }
    None
}

/// Render the widened pruning predicate for display/EXPLAIN purposes, as
/// the paper does for `name LIKE 'Marked-%-Ridge'` →
/// `STARTSWITH(name, 'Marked-')`. Returns `None` when no widening applies.
pub fn widen_for_pruning(expr: &Expr) -> Option<Expr> {
    match expr {
        Expr::Like(inner, pattern) => match analyze_like(pattern) {
            LikeShape::Exact(s) => Some(inner.as_ref().clone().eq(dsl::lit(s))),
            LikeShape::Prefix(p) | LikeShape::WidenedPrefix(p) => {
                Some(inner.as_ref().clone().starts_with(p))
            }
            LikeShape::Opaque => None,
        },
        _ => None,
    }
}

/// Constant folding: collapse literal-only subtrees using the scalar
/// evaluator. Sound because evaluation of a literal subtree is row
/// independent.
// TEST-API: prop_pruning pins its semantics; no planner pass calls it yet.
pub fn fold_constants(expr: &Expr) -> Expr {
    fn is_literal_only(e: &Expr) -> bool {
        let mut ok = true;
        e.visit(&mut |x| {
            if matches!(x, Expr::Column(_)) {
                ok = false;
            }
        });
        ok
    }
    fn fold(e: &Expr) -> Expr {
        if is_literal_only(e) {
            return Expr::Literal(eval_value(e, &[]));
        }
        match e {
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(fold(a)), Box::new(fold(b))),
            Expr::And(xs) => {
                let folded: Vec<Expr> = xs.iter().map(fold).collect();
                // TRUE conjuncts drop; a FALSE conjunct collapses the AND.
                if folded
                    .iter()
                    .any(|x| matches!(x, Expr::Literal(Value::Bool(false))))
                {
                    return Expr::Literal(Value::Bool(false));
                }
                let kept: Vec<Expr> = folded
                    .into_iter()
                    .filter(|x| !matches!(x, Expr::Literal(Value::Bool(true))))
                    .collect();
                match kept.len() {
                    0 => Expr::Literal(Value::Bool(true)),
                    1 => kept.into_iter().next().unwrap(),
                    _ => Expr::And(kept),
                }
            }
            Expr::Or(xs) => {
                let folded: Vec<Expr> = xs.iter().map(fold).collect();
                if folded
                    .iter()
                    .any(|x| matches!(x, Expr::Literal(Value::Bool(true))))
                {
                    return Expr::Literal(Value::Bool(true));
                }
                let kept: Vec<Expr> = folded
                    .into_iter()
                    .filter(|x| !matches!(x, Expr::Literal(Value::Bool(false))))
                    .collect();
                match kept.len() {
                    0 => Expr::Literal(Value::Bool(false)),
                    1 => kept.into_iter().next().unwrap(),
                    _ => Expr::Or(kept),
                }
            }
            Expr::Not(x) => Expr::Not(Box::new(fold(x))),
            Expr::IsNull(x) => Expr::IsNull(Box::new(fold(x))),
            Expr::Arith(op, a, b) => Expr::Arith(*op, Box::new(fold(a)), Box::new(fold(b))),
            Expr::Neg(x) => Expr::Neg(Box::new(fold(x))),
            Expr::If(c, t, el) => {
                Expr::If(Box::new(fold(c)), Box::new(fold(t)), Box::new(fold(el)))
            }
            Expr::Like(x, p) => Expr::Like(Box::new(fold(x)), p.clone()),
            Expr::StartsWith(x, p) => Expr::StartsWith(Box::new(fold(x)), p.clone()),
            Expr::InList(x, vs) => Expr::InList(Box::new(fold(x)), vs.clone()),
            Expr::Coalesce(xs) => Expr::Coalesce(xs.iter().map(fold).collect()),
            Expr::Abs(x) => Expr::Abs(Box::new(fold(x))),
            leaf => leaf.clone(),
        }
    }
    fold(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;

    #[test]
    fn like_shapes() {
        assert_eq!(
            analyze_like("Marked-%-Ridge"),
            LikeShape::WidenedPrefix("Marked-".into())
        );
        assert_eq!(analyze_like("Alpine%"), LikeShape::Prefix("Alpine".into()));
        assert_eq!(analyze_like("exact"), LikeShape::Exact("exact".into()));
        assert_eq!(analyze_like("%suffix"), LikeShape::Opaque);
        assert_eq!(analyze_like("_x%"), LikeShape::Opaque);
        assert_eq!(analyze_like("ab_c%"), LikeShape::WidenedPrefix("ab".into()));
    }

    #[test]
    fn prefix_successor_basic() {
        assert_eq!(prefix_successor("Marked-").unwrap(), "Marked.");
        assert_eq!(prefix_successor("az").unwrap(), "a{");
        // Every string starting with the prefix is below the successor.
        let succ = prefix_successor("abc").unwrap();
        assert!("abc" < succ.as_str());
        assert!("abczzzzzz" < succ.as_str());
        assert!("abd" >= succ.as_str());
    }

    #[test]
    fn prefix_successor_carry() {
        let max2 = format!("a{}", char::MAX);
        assert_eq!(prefix_successor(&max2).unwrap(), "b");
        let all_max: String = std::iter::repeat_n(char::MAX, 3).collect();
        assert_eq!(prefix_successor(&all_max), None);
    }

    #[test]
    fn widening_produces_startswith() {
        let e = col("name").like("Marked-%-Ridge");
        let w = widen_for_pruning(&e).unwrap();
        assert_eq!(w.to_string(), "STARTSWITH(name, 'Marked-')");
    }

    #[test]
    fn folding_collapses_literal_subtrees() {
        let e = col("x").gt(lit(100i64).mul(lit(15i64)));
        let f = fold_constants(&e);
        assert_eq!(f.to_string(), "(x > 1500)");
    }

    #[test]
    fn folding_short_circuits_booleans() {
        let e = lit(true).and(col("x").gt(lit(1i64)));
        assert_eq!(fold_constants(&e).to_string(), "(x > 1)");
        let e2 = lit(false).and(col("x").gt(lit(1i64)));
        assert_eq!(fold_constants(&e2).to_string(), "FALSE");
        let e3 = lit(true).or(col("x").gt(lit(1i64)));
        assert_eq!(fold_constants(&e3).to_string(), "TRUE");
    }
}
