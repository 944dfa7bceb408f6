//! Recursive-descent parser: spanned tokens → spanned [`Stmt`]s.
//!
//! The grammar is the subset the plan IR can execute (see the README
//! grammar table): single-table SELECT with WHERE / GROUP BY / ORDER BY /
//! LIMIT-OFFSET, one optional `[LEFT] JOIN … ON a = b`, and literal-row
//! INSERT plus predicated DELETE/UPDATE. Keywords are case-insensitive;
//! every rejection is an [`Error::PlanRejected`] whose diagnostic carries
//! a [`Span`] inside the input.

use snowprune_types::{DiagCode, Diagnostic, Error, Result, Span, Value};

use crate::ast::{
    AggCall, AggName, ArithOp, CmpOp, ColumnName, JoinClause, LimitClause, Name, OrderItem,
    SelectItem, SelectStmt, SqlExpr, SqlExprKind, Stmt,
};
use crate::token::{lex, Token, TokenKind};

/// Words that terminate an expression or introduce a clause; they cannot
/// be used as bare column/table identifiers.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "OFFSET", "JOIN", "LEFT", "INNER",
    "ON", "AND", "OR", "NOT", "IS", "NULL", "TRUE", "FALSE", "LIKE", "IN", "BETWEEN", "AS", "ASC",
    "DESC", "INSERT", "INTO", "VALUES", "DELETE", "UPDATE", "SET",
];

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

fn err(message: impl Into<String>, span: Span) -> Error {
    Error::PlanRejected(vec![
        Diagnostic::error(DiagCode::SqlSyntax, "sql", message).with_span(span)
    ])
}

fn unsupported(message: impl Into<String>, span: Span) -> Error {
    Error::PlanRejected(vec![Diagnostic::error(
        DiagCode::SqlUnsupported,
        "sql",
        message,
    )
    .with_span(span)])
}

/// Parse one statement; trailing `;` is allowed, trailing garbage is not.
pub fn parse_statement(src: &str) -> Result<Stmt> {
    let mut p = Parser {
        src,
        toks: lex(src)?,
        pos: 0,
    };
    let stmt = p.statement()?;
    p.eat_semi();
    let t = p.peek().clone();
    if t.kind != TokenKind::Eof {
        return Err(err(
            format!("expected end of statement, found {}", t.kind.describe()),
            t.span,
        ));
    }
    Ok(stmt)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_semi(&mut self) {
        while self.peek().kind == TokenKind::Semi {
            self.pos += 1;
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span> {
        let t = self.peek().clone();
        if self.eat_kw(kw) {
            Ok(t.span)
        } else {
            Err(err(
                format!("expected `{kw}`, found {}", t.kind.describe()),
                t.span,
            ))
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Span> {
        let t = self.peek().clone();
        if t.kind == kind {
            self.pos += 1;
            Ok(t.span)
        } else {
            Err(err(
                format!("expected {what}, found {}", t.kind.describe()),
                t.span,
            ))
        }
    }

    /// A non-reserved identifier.
    fn name(&mut self, what: &str) -> Result<Name> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::Ident(s) if !RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                self.pos += 1;
                Ok(Name {
                    text: s.clone(),
                    span: t.span,
                })
            }
            _ => Err(err(
                format!("expected {what}, found {}", t.kind.describe()),
                t.span,
            )),
        }
    }

    /// `ident` or `table.ident`.
    fn column_name(&mut self) -> Result<ColumnName> {
        let first = self.name("a column name")?;
        if self.peek().kind == TokenKind::Dot {
            self.pos += 1;
            let column = self.name("a column name after `.`")?;
            Ok(ColumnName {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnName {
                table: None,
                column: first,
            })
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Stmt> {
        let t = self.peek().clone();
        if self.eat_kw("SELECT") {
            self.select(t.span).map(|s| Stmt::Select(Box::new(s)))
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else if self.eat_kw("DELETE") {
            self.delete()
        } else if self.eat_kw("UPDATE") {
            self.update()
        } else {
            Err(err(
                format!(
                    "expected `SELECT`, `INSERT`, `DELETE`, or `UPDATE`, found {}",
                    t.kind.describe()
                ),
                t.span,
            ))
        }
    }

    fn select(&mut self, _kw: Span) -> Result<SelectStmt> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_comma() {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.name("a table name")?;

        let mut join = None;
        let outer = self.at_kw("LEFT");
        if outer || self.at_kw("JOIN") || self.at_kw("INNER") {
            if outer {
                self.pos += 1;
            } else {
                self.eat_kw("INNER");
            }
            self.expect_kw("JOIN")?;
            let table = self.name("a table name")?;
            self.expect_kw("ON")?;
            let left = self.column_name()?;
            self.expect(TokenKind::Eq, "`=` in the join condition")?;
            let right = self.column_name()?;
            join = Some(JoinClause {
                table,
                left,
                right,
                outer,
            });
        }

        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.column_name()?);
                if !self.eat_comma() {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.column_name()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { column, desc });
                if !self.eat_comma() {
                    break;
                }
            }
        }

        let limit = if self.at_kw("LIMIT") {
            let start = self.peek().span;
            self.pos += 1;
            let (k, mut end) = self.count("a LIMIT count")?;
            let offset = if self.at_kw("OFFSET") {
                self.pos += 1;
                let (o, oe) = self.count("an OFFSET count")?;
                end = oe;
                o
            } else {
                0
            };
            Some(LimitClause {
                k,
                offset,
                span: start.to(end),
            })
        } else {
            None
        };

        Ok(SelectStmt {
            items,
            from,
            join,
            selection,
            group_by,
            order_by,
            limit,
        })
    }

    fn count(&mut self, what: &str) -> Result<(u64, Span)> {
        let t = self.bump();
        match t.kind {
            TokenKind::Int(v) if v >= 0 => Ok((v as u64, t.span)),
            _ => Err(err(
                format!(
                    "expected {what} (a non-negative integer), found {}",
                    t.kind.describe()
                ),
                t.span,
            )),
        }
    }

    fn eat_comma(&mut self) -> bool {
        if self.peek().kind == TokenKind::Comma {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let t = self.peek().clone();
        if t.kind == TokenKind::Star {
            self.pos += 1;
            return Ok(SelectItem::Star(t.span));
        }
        if let TokenKind::Ident(word) = &t.kind {
            let func = match word.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggName::Count),
                "SUM" => Some(AggName::Sum),
                "AVG" => Some(AggName::Avg),
                "MIN" => Some(AggName::Min),
                "MAX" => Some(AggName::Max),
                _ => None,
            };
            if let Some(func) = func {
                self.pos += 1;
                self.expect(TokenKind::LParen, "`(` after the aggregate name")?;
                let arg = if self.peek().kind == TokenKind::Star {
                    let star = self.bump();
                    if func != AggName::Count {
                        return Err(err("only COUNT accepts `*`", star.span));
                    }
                    None
                } else {
                    Some(self.column_name()?)
                };
                let close = self.expect(TokenKind::RParen, "`)` closing the aggregate")?;
                return Ok(SelectItem::Agg(AggCall {
                    func,
                    arg,
                    span: t.span.to(close),
                }));
            }
        }
        Ok(SelectItem::Column(self.column_name()?))
    }

    fn insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.name("a table name")?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(TokenKind::LParen, "`(` opening a VALUES row")?;
            let mut row = Vec::new();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    row.push(self.expr()?);
                    if !self.eat_comma() {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen, "`)` closing the VALUES row")?;
            rows.push(row);
            if !self.eat_comma() {
                break;
            }
        }
        Ok(Stmt::Insert { table, rows })
    }

    fn delete(&mut self) -> Result<Stmt> {
        self.expect_kw("FROM")?;
        let table = self.name("a table name")?;
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, selection })
    }

    fn update(&mut self) -> Result<Stmt> {
        let table = self.name("a table name")?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.name("a column name")?;
            self.expect(TokenKind::Eq, "`=` in the SET assignment")?;
            let value = self.expr()?;
            sets.push((col, value));
            if !self.eat_comma() {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            selection,
        })
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let first = self.and_expr()?;
        if !self.at_kw("OR") {
            return Ok(first);
        }
        let mut span = first.span;
        let mut terms = vec![first];
        while self.eat_kw("OR") {
            let t = self.and_expr()?;
            span = span.to(t.span);
            terms.push(t);
        }
        Ok(SqlExpr {
            kind: SqlExprKind::Or(terms),
            span,
        })
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let first = self.not_expr()?;
        if !self.at_kw("AND") {
            return Ok(first);
        }
        let mut span = first.span;
        let mut terms = vec![first];
        while self.eat_kw("AND") {
            let t = self.not_expr()?;
            span = span.to(t.span);
            terms.push(t);
        }
        Ok(SqlExpr {
            kind: SqlExprKind::And(terms),
            span,
        })
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        let t = self.peek().clone();
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            let span = t.span.to(inner.span);
            Ok(SqlExpr {
                kind: SqlExprKind::Not(Box::new(inner)),
                span,
            })
        } else {
            self.cmp_expr()
        }
    }

    /// A comparison or one of the postfix predicates (`IS [NOT] NULL`,
    /// `[NOT] LIKE/IN/BETWEEN`).
    fn cmp_expr(&mut self) -> Result<SqlExpr> {
        let lhs = self.add_expr()?;
        let t = self.peek().clone();
        let cmp = match t.kind {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.pos += 1;
            let rhs = self.add_expr()?;
            let span = lhs.span.to(rhs.span);
            return Ok(SqlExpr {
                kind: SqlExprKind::Cmp(op, Box::new(lhs), Box::new(rhs)),
                span,
            });
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            let end = self.expect_kw("NULL")?;
            let span = lhs.span.to(end);
            let is_null = SqlExpr {
                kind: SqlExprKind::IsNull(Box::new(lhs)),
                span,
            };
            return Ok(if negated {
                SqlExpr {
                    kind: SqlExprKind::Not(Box::new(is_null)),
                    span,
                }
            } else {
                is_null
            });
        }
        let negated = self.at_kw("NOT")
            && matches!(
                self.toks.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::Ident(s))
                    if s.eq_ignore_ascii_case("LIKE")
                        || s.eq_ignore_ascii_case("IN")
                        || s.eq_ignore_ascii_case("BETWEEN")
            );
        if negated {
            self.pos += 1;
        }
        let wrap = |e: SqlExpr| {
            if negated {
                let span = e.span;
                SqlExpr {
                    kind: SqlExprKind::Not(Box::new(e)),
                    span,
                }
            } else {
                e
            }
        };
        if self.eat_kw("LIKE") {
            let p = self.bump();
            let TokenKind::Str(pattern) = p.kind else {
                return Err(err(
                    format!(
                        "expected a string pattern after LIKE, found {}",
                        p.kind.describe()
                    ),
                    p.span,
                ));
            };
            let span = lhs.span.to(p.span);
            return Ok(wrap(SqlExpr {
                kind: SqlExprKind::Like(Box::new(lhs), pattern),
                span,
            }));
        }
        if self.eat_kw("IN") {
            self.expect(TokenKind::LParen, "`(` opening the IN list")?;
            let mut vals = Vec::new();
            loop {
                vals.push(self.literal("a literal inside IN (…)")?);
                if !self.eat_comma() {
                    break;
                }
            }
            let close = self.expect(TokenKind::RParen, "`)` closing the IN list")?;
            let span = lhs.span.to(close);
            return Ok(wrap(SqlExpr {
                kind: SqlExprKind::InList(Box::new(lhs), vals),
                span,
            }));
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            let span = lhs.span.to(hi.span);
            return Ok(wrap(SqlExpr {
                kind: SqlExprKind::Between(Box::new(lhs), Box::new(lo), Box::new(hi)),
                span,
            }));
        }
        // `negated` cannot be set here: the lookahead above only consumed
        // the NOT when LIKE/IN/BETWEEN followed.
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = SqlExpr {
                kind: SqlExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
    }

    fn mul_expr(&mut self) -> Result<SqlExpr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.unary()?;
            let span = lhs.span.to(rhs.span);
            lhs = SqlExpr {
                kind: SqlExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
    }

    fn unary(&mut self) -> Result<SqlExpr> {
        let t = self.peek().clone();
        if t.kind == TokenKind::Minus {
            self.pos += 1;
            // `-5` is the literal -5 (matching the expression DSL), not
            // Neg(5); `-x` over anything else stays a negation node.
            match self.peek().kind.clone() {
                TokenKind::Int(v) => {
                    let lit = self.bump();
                    return Ok(SqlExpr {
                        kind: SqlExprKind::Literal(Value::Int(-v)),
                        span: t.span.to(lit.span),
                    });
                }
                TokenKind::Float(v) => {
                    let lit = self.bump();
                    return Ok(SqlExpr {
                        kind: SqlExprKind::Literal(Value::Float(-v)),
                        span: t.span.to(lit.span),
                    });
                }
                _ => {
                    let inner = self.unary()?;
                    let span = t.span.to(inner.span);
                    return Ok(SqlExpr {
                        kind: SqlExprKind::Neg(Box::new(inner)),
                        span,
                    });
                }
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::LParen => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                // Parentheses are transparent: the inner node keeps its own
                // span and structure (a parenthesized AND stays one term).
                Ok(inner)
            }
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {
                self.pos += 1;
                let v = crate::token::literal_value(&t.kind).expect("literal token");
                Ok(SqlExpr {
                    kind: SqlExprKind::Literal(v),
                    span: t.span,
                })
            }
            TokenKind::Ident(word) => {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => {
                        self.pos += 1;
                        Ok(SqlExpr {
                            kind: SqlExprKind::Literal(Value::Null),
                            span: t.span,
                        })
                    }
                    "TRUE" | "FALSE" => {
                        self.pos += 1;
                        Ok(SqlExpr {
                            kind: SqlExprKind::Literal(Value::Bool(upper == "TRUE")),
                            span: t.span,
                        })
                    }
                    "IF" => self.func3(t.span),
                    "COALESCE" => self.coalesce(t.span),
                    "ABS" => self.abs(t.span),
                    "STARTSWITH" => self.starts_with(t.span),
                    "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => Err(unsupported(
                        format!("aggregate `{word}` is only allowed in the SELECT list"),
                        t.span,
                    )),
                    _ => Ok({
                        let col = self.column_name()?;
                        let span = col.span();
                        SqlExpr {
                            kind: SqlExprKind::Column(col),
                            span,
                        }
                    }),
                }
            }
            _ => Err(err(
                format!("expected an expression, found {}", t.kind.describe()),
                t.span,
            )),
        }
    }

    fn func3(&mut self, start: Span) -> Result<SqlExpr> {
        self.pos += 1;
        self.expect(TokenKind::LParen, "`(` after IF")?;
        let c = self.expr()?;
        self.expect(TokenKind::Comma, "`,`")?;
        let a = self.expr()?;
        self.expect(TokenKind::Comma, "`,`")?;
        let b = self.expr()?;
        let close = self.expect(TokenKind::RParen, "`)` closing IF")?;
        Ok(SqlExpr {
            kind: SqlExprKind::If(Box::new(c), Box::new(a), Box::new(b)),
            span: start.to(close),
        })
    }

    fn coalesce(&mut self, start: Span) -> Result<SqlExpr> {
        self.pos += 1;
        self.expect(TokenKind::LParen, "`(` after COALESCE")?;
        let mut xs = Vec::new();
        loop {
            xs.push(self.expr()?);
            if !self.eat_comma() {
                break;
            }
        }
        let close = self.expect(TokenKind::RParen, "`)` closing COALESCE")?;
        Ok(SqlExpr {
            kind: SqlExprKind::Coalesce(xs),
            span: start.to(close),
        })
    }

    fn abs(&mut self, start: Span) -> Result<SqlExpr> {
        self.pos += 1;
        self.expect(TokenKind::LParen, "`(` after ABS")?;
        let x = self.expr()?;
        let close = self.expect(TokenKind::RParen, "`)` closing ABS")?;
        Ok(SqlExpr {
            kind: SqlExprKind::Abs(Box::new(x)),
            span: start.to(close),
        })
    }

    fn starts_with(&mut self, start: Span) -> Result<SqlExpr> {
        self.pos += 1;
        self.expect(TokenKind::LParen, "`(` after STARTSWITH")?;
        let x = self.expr()?;
        self.expect(TokenKind::Comma, "`,`")?;
        let p = self.bump();
        let TokenKind::Str(prefix) = p.kind else {
            return Err(err(
                format!("expected a string prefix, found {}", p.kind.describe()),
                p.span,
            ));
        };
        let close = self.expect(TokenKind::RParen, "`)` closing STARTSWITH")?;
        Ok(SqlExpr {
            kind: SqlExprKind::StartsWith(Box::new(x), prefix),
            span: start.to(close),
        })
    }

    fn literal(&mut self, what: &str) -> Result<Value> {
        let t = self.bump();
        match &t.kind {
            TokenKind::Minus => {
                let n = self.bump();
                match n.kind {
                    TokenKind::Int(v) => Ok(Value::Int(-v)),
                    TokenKind::Float(v) => Ok(Value::Float(-v)),
                    other => Err(err(
                        format!("expected a number after `-`, found {}", other.describe()),
                        n.span,
                    )),
                }
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            kind => crate::token::literal_value(kind).ok_or_else(|| {
                err(
                    format!("expected {what}, found {}", kind.describe()),
                    t.span,
                )
            }),
        }
    }

    // Suppress the unused-field warning on `src`: kept so future
    // diagnostics can quote source slices without re-threading it.
    #[allow(dead_code)]
    fn source(&self) -> &str {
        self.src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectStmt {
        match parse_statement(src).unwrap() {
            Stmt::Select(s) => *s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn select_star_with_where() {
        let s = sel("SELECT * FROM fact WHERE (a >= 5) AND (b < 3)");
        assert_eq!(s.from.text, "fact");
        assert!(matches!(s.items[0], SelectItem::Star(_)));
        let SqlExprKind::And(terms) = &s.selection.as_ref().unwrap().kind else {
            panic!("expected AND");
        };
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn parenthesized_and_stays_one_term() {
        let s = sel("SELECT * FROM t WHERE (w < 5) AND ((a >= 1) AND (b < 2))");
        let SqlExprKind::And(terms) = &s.selection.as_ref().unwrap().kind else {
            panic!("expected AND");
        };
        assert_eq!(terms.len(), 2, "the parenthesized AND is a single term");
        assert!(matches!(terms[1].kind, SqlExprKind::And(_)));
    }

    #[test]
    fn join_group_order_limit_offset() {
        let s = sel(
            "SELECT c, COUNT(*), SUM(weight) FROM dim LEFT JOIN fact ON id = b \
             GROUP BY c ORDER BY c DESC LIMIT 5 OFFSET 2",
        );
        let j = s.join.unwrap();
        assert!(j.outer);
        assert_eq!(j.table.text, "fact");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.order_by[0].desc);
        let l = s.limit.unwrap();
        assert_eq!((l.k, l.offset), (5, 2));
    }

    #[test]
    fn dml_statements_parse() {
        assert!(matches!(
            parse_statement("INSERT INTO t VALUES (1, 'x', NULL), (-2, 'y', 3.5)").unwrap(),
            Stmt::Insert { rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a < 10").unwrap(),
            Stmt::Delete {
                selection: Some(_),
                ..
            }
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET b = b + 1, c = 'z' WHERE a IS NOT NULL").unwrap(),
            Stmt::Update { sets, .. } if sets.len() == 2
        ));
    }

    #[test]
    fn every_rejection_has_a_span_inside_the_input() {
        for src in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE ()",
            "SELECT * FROM t LIMIT x",
            "SELECT * FROM t GROUP",
            "FROBNICATE the lake",
            "SELECT a FROM t JOIN",
            "INSERT INTO t",
            "SELECT * FROM t WHERE a LIKE 5",
        ] {
            let Error::PlanRejected(diags) = parse_statement(src).unwrap_err() else {
                panic!("{src}: expected PlanRejected");
            };
            let span = diags[0].span.unwrap_or_else(|| panic!("{src}: no span"));
            assert!(span.start <= span.end && span.end <= src.len(), "{src}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_statement("SELECT * FROM t; SELECT * FROM t").is_err());
    }

    #[test]
    fn between_binds_tighter_than_and() {
        let s = sel("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b < 3");
        let SqlExprKind::And(terms) = &s.selection.as_ref().unwrap().kind else {
            panic!("expected top-level AND");
        };
        assert_eq!(terms.len(), 2);
        assert!(matches!(terms[0].kind, SqlExprKind::Between(..)));
    }
}
