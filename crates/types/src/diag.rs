//! Plan diagnostics: the typed findings emitted by the static plan
//! analyzer (`snowprune-analyze`) and carried by
//! [`Error::PlanRejected`](crate::Error::PlanRejected).
//!
//! Diagnostics live in this dependency-light crate (rather than in the
//! analyzer) so that the shared [`Error`](crate::Error) enum can embed
//! them without creating a dependency cycle: every crate already depends
//! on `snowprune-types`, and the analyzer re-exports these names.

use std::fmt;

/// A half-open byte range into some source text (SQL statement, config
/// string). Spans are attached to diagnostics by front-ends that have a
/// source text to point into; plan-level analyzer findings carry none.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered (`start == end` marks a
    /// point, e.g. unexpected end of input).
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `at` (e.g. end of input).
    pub fn point(at: usize) -> Self {
        Span { start: at, end: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based line and column of the span start within `src`.
    ///
    /// Columns count *chars* since the last newline, so multi-byte text
    /// earlier on the line (legal inside SQL string literals) doesn't
    /// inflate the column. Out-of-range starts clamp to the end.
    pub fn line_col(self, src: &str) -> (usize, usize) {
        let at = self.start.min(src.len());
        let before = &src[..at];
        let line = before.bytes().filter(|b| *b == b'\n').count() + 1;
        let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let col = src[line_start..at].chars().count() + 1;
        (line, col)
    }
}

/// How serious a [`Diagnostic`] is.
///
/// Only [`Severity::Error`] diagnostics reject a plan at admission;
/// warnings and infos ride along in the analyzer's report (soundness
/// hints, cacheability explanations) without blocking execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory context (e.g. why a plan is or isn't cacheable).
    Info,
    /// Suspicious but executable (e.g. provenance not attributable).
    Warning,
    /// The plan is ill-formed and must not execute.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable machine-readable code identifying a class of plan finding.
///
/// Codes are the contract of the mutation-style property suite: a mutated
/// plan must produce a diagnostic with the *expected* code, not merely any
/// diagnostic, so each code names one failure class precisely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// A referenced column does not exist in the input schema.
    UnknownColumn,
    /// A comparison whose operand types can never compare: under SQL's
    /// Kleene semantics it evaluates to UNKNOWN on every row.
    IncomparableCmp,
    /// A comparison against the NULL literal: always UNKNOWN; the plan
    /// almost certainly wanted `IS NULL`.
    NullComparison,
    /// A predicate position (filter, AND/OR operand, IF condition) holds a
    /// provably non-boolean expression: always UNKNOWN as a predicate.
    NonBooleanPredicate,
    /// Arithmetic or negation over a provably non-numeric operand: always
    /// NULL.
    NonNumericArith,
    /// `LIKE`/`STARTS WITH` over a provably non-string operand: always
    /// UNKNOWN.
    NonStringPattern,
    /// Join keys of different types: the hash join matches keys by
    /// structural equality, so keys of two types (even `Int` and `Float`)
    /// never match a pair.
    JoinKeyMismatch,
    /// `SUM`/`AVG` over a provably non-numeric input column.
    BadAggregateInput,
    /// A `Sort` node with no keys: the order (and any LIMIT above it) is
    /// unspecified.
    EmptySortKeys,
    /// A cacheable-looking spine whose row provenance cannot be attributed
    /// to partitions of a single target scan (e.g. the target table is
    /// scanned more than once, or rows pass through distinct-key
    /// filtering).
    ProvenanceNotAttributable,
    /// Why the plan is *not* eligible for the §8.2 predicate cache.
    NotCacheable,
    /// The plan is eligible for the §8.2 predicate cache.
    Cacheable,
    /// How many of a scan predicate's conjuncts the zone-map pruner can
    /// evaluate (pruning-soundness precondition detection).
    ZoneMapEligibility,
    /// A predicated scan where *no* conjunct is zone-map eligible: filter
    /// pruning cannot skip any partition for this scan.
    NoPrunableConjunct,
    /// The SQL front-end could not lex or parse the statement.
    SqlSyntax,
    /// A referenced table does not exist in the catalog.
    UnknownTable,
    /// An unqualified column name resolves in more than one joined table.
    AmbiguousColumn,
    /// Syntactically valid SQL using a feature the front-end does not
    /// lower (e.g. a SELECT list the plan IR cannot express).
    SqlUnsupported,
    /// An INSERT value or SET expression whose type the target column
    /// cannot hold: a column stores its own type, NULL, or (a Float
    /// column) an Int.
    AssignmentTypeMismatch,
}

impl DiagCode {
    /// The stable kebab-case spelling used in reports and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::UnknownColumn => "unknown-column",
            DiagCode::IncomparableCmp => "incomparable-comparison",
            DiagCode::NullComparison => "null-comparison",
            DiagCode::NonBooleanPredicate => "non-boolean-predicate",
            DiagCode::NonNumericArith => "non-numeric-arithmetic",
            DiagCode::NonStringPattern => "non-string-pattern",
            DiagCode::JoinKeyMismatch => "join-key-type-mismatch",
            DiagCode::BadAggregateInput => "bad-aggregate-input",
            DiagCode::EmptySortKeys => "empty-sort-keys",
            DiagCode::ProvenanceNotAttributable => "provenance-not-attributable",
            DiagCode::NotCacheable => "not-cacheable",
            DiagCode::Cacheable => "cacheable",
            DiagCode::ZoneMapEligibility => "zone-map-eligibility",
            DiagCode::NoPrunableConjunct => "no-prunable-conjunct",
            DiagCode::SqlSyntax => "sql-syntax",
            DiagCode::UnknownTable => "unknown-table",
            DiagCode::AmbiguousColumn => "ambiguous-column",
            DiagCode::SqlUnsupported => "sql-unsupported",
            DiagCode::AssignmentTypeMismatch => "assignment-type-mismatch",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the static plan analyzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Machine-readable finding class.
    pub code: DiagCode,
    /// Whether this finding rejects the plan ([`Severity::Error`]) or
    /// merely annotates it.
    pub severity: Severity,
    /// Where in the plan tree the finding anchors, as a root-to-node path
    /// such as `Limit/Sort/Scan(fact).predicate`.
    pub plan_path: String,
    /// Human-readable explanation.
    pub message: String,
    /// Source location, when the finding came from a front-end holding
    /// source text (the SQL parser/binder); `None` for plan-level
    /// analyzer findings.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: DiagCode, plan_path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            plan_path: plan_path.into(),
            message: message.into(),
            span: None,
        }
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(
        code: DiagCode,
        plan_path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            plan_path: plan_path.into(),
            message: message.into(),
            span: None,
        }
    }

    /// A [`Severity::Info`] diagnostic.
    pub fn info(code: DiagCode, plan_path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            plan_path: plan_path.into(),
            message: message.into(),
            span: None,
        }
    }

    /// Attach a source span (builder style).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// True for [`Severity::Error`] diagnostics.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.plan_path, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_grep_friendly() {
        let d = Diagnostic::error(
            DiagCode::UnknownColumn,
            "Filter/Scan(t).predicate",
            "no `x`",
        );
        assert_eq!(
            d.to_string(),
            "error[unknown-column] at Filter/Scan(t).predicate: no `x`"
        );
        assert!(d.is_error());
        assert!(!Diagnostic::info(DiagCode::Cacheable, "Scan(t)", "ok").is_error());
    }

    #[test]
    fn span_line_col_counts_from_one() {
        let src = "SELECT *\nFROM t\nWHERE x";
        assert_eq!(Span::new(0, 6).line_col(src), (1, 1));
        assert_eq!(Span::new(9, 13).line_col(src), (2, 1));
        assert_eq!(Span::new(22, 23).line_col(src), (3, 7));
        assert_eq!(Span::point(src.len()).line_col(src), (3, 8));
        assert_eq!(Span::new(2, 3).to(Span::new(9, 13)), Span::new(2, 13));
    }

    #[test]
    fn span_line_col_counts_chars_not_bytes() {
        // 'é' is 2 bytes, 1 char: the column after it advances by one.
        let src = "a'é'b";
        let at = src.find('b').unwrap();
        assert_eq!(Span::point(at).line_col(src), (1, 5));
    }

    #[test]
    fn with_span_rides_along() {
        let d =
            Diagnostic::error(DiagCode::SqlSyntax, "sql", "bad token").with_span(Span::new(4, 7));
        assert_eq!(d.span, Some(Span::new(4, 7)));
        // Display stays span-free: front-ends render carets themselves.
        assert_eq!(d.to_string(), "error[sql-syntax] at sql: bad token");
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
