//! Imprecise filter rewrites (§3.1).
//!
//! "Predicates can be widened to facilitate more coarse-grained pruning":
//! a `LIKE` pattern that cannot be evaluated against min/max metadata is
//! analyzed into a *shape*; if it has a literal prefix, pruning can use the
//! widened predicate `STARTSWITH(prefix)` instead.

use crate::ast::{dsl, Expr};

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
}
