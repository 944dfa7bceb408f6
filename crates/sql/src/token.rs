//! The hand-rolled lexer: SQL text → spanned tokens.
//!
//! Tokens carry byte [`Span`]s into the original statement so every
//! parse/bind diagnostic downstream can render a `line:col` caret. The
//! lexer itself never panics: malformed input (unterminated strings,
//! out-of-range numbers, stray bytes) becomes an error diagnostic with a
//! span inside the input.

use snowprune_types::{DiagCode, Diagnostic, Error, Result, Span, Value};

/// One lexed token.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where in the source it sits.
    pub span: Span,
}

/// The token classes the parser consumes.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser; the original spelling is preserved here).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal with `''` escapes already folded.
    Str(String),
    /// `=`
    Eq,
    /// `<>` (also lexed from `!=`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// End of input (zero-width span at the end).
    Eof,
}

impl TokenKind {
    /// Human-readable description used in "expected X, found Y" messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("number `{v}`"),
            TokenKind::Str(_) => "string literal".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Ne => "`<>`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

fn syntax_error(message: impl Into<String>, span: Span) -> Error {
    Error::PlanRejected(vec![
        Diagnostic::error(DiagCode::SqlSyntax, "sql", message).with_span(span)
    ])
}

/// Lex the whole statement. The returned stream always ends with one
/// [`TokenKind::Eof`] token whose span points just past the input.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            // `-- line comment`
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                let (s, end) = lex_string(src, i)?;
                out.push(Token {
                    kind: TokenKind::Str(s),
                    span: Span::new(start, end),
                });
                i = end;
            }
            b'0'..=b'9' => {
                let (kind, end) = lex_number(src, i)?;
                out.push(Token {
                    kind,
                    span: Span::new(start, end),
                });
                i = end;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut end = i + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[i..end].to_owned()),
                    span: Span::new(start, end),
                });
                i = end;
            }
            _ => {
                let (kind, len) = match (b, bytes.get(i + 1)) {
                    (b'<', Some(b'=')) => (TokenKind::Le, 2),
                    (b'<', Some(b'>')) => (TokenKind::Ne, 2),
                    (b'>', Some(b'=')) => (TokenKind::Ge, 2),
                    (b'!', Some(b'=')) => (TokenKind::Ne, 2),
                    (b'<', _) => (TokenKind::Lt, 1),
                    (b'>', _) => (TokenKind::Gt, 1),
                    (b'=', _) => (TokenKind::Eq, 1),
                    (b'+', _) => (TokenKind::Plus, 1),
                    (b'-', _) => (TokenKind::Minus, 1),
                    (b'*', _) => (TokenKind::Star, 1),
                    (b'/', _) => (TokenKind::Slash, 1),
                    (b'(', _) => (TokenKind::LParen, 1),
                    (b')', _) => (TokenKind::RParen, 1),
                    (b',', _) => (TokenKind::Comma, 1),
                    (b';', _) => (TokenKind::Semi, 1),
                    (b'.', _) => (TokenKind::Dot, 1),
                    _ => {
                        // Step over one whole UTF-8 scalar so the span stays
                        // on a char boundary for non-ASCII soup.
                        let ch_len = src[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                        return Err(syntax_error(
                            format!("unexpected character {:?}", &src[i..i + ch_len]),
                            Span::new(i, i + ch_len),
                        ));
                    }
                };
                out.push(Token {
                    kind,
                    span: Span::new(start, start + len),
                });
                i += len;
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        span: Span::point(src.len()),
    });
    Ok(out)
}

/// Lex a `'...'` literal starting at `start`, folding `''` escapes.
fn lex_string(src: &str, start: usize) -> Result<(String, usize)> {
    let bytes = src.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    loop {
        match bytes.get(i) {
            None => {
                return Err(syntax_error(
                    "unterminated string literal",
                    Span::new(start, src.len()),
                ))
            }
            Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                s.push('\'');
                i += 2;
            }
            Some(b'\'') => return Ok((s, i + 1)),
            Some(_) => {
                let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
                s.push(ch);
                i += ch.len_utf8();
            }
        }
    }
}

/// Lex an unsigned numeric literal (`123`, `1.5`); the parser folds a
/// preceding unary minus into the literal.
fn lex_number(src: &str, start: usize) -> Result<(TokenKind, usize)> {
    let bytes = src.as_bytes();
    let mut end = start;
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    let mut is_float = false;
    if end < bytes.len() && bytes[end] == b'.' && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
    {
        is_float = true;
        end += 1;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
    }
    let text = &src[start..end];
    let span = Span::new(start, end);
    if is_float {
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok((TokenKind::Float(v), end)),
            _ => Err(syntax_error(format!("invalid number `{text}`"), span)),
        }
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok((TokenKind::Int(v), end)),
            Err(_) => Err(syntax_error(format!("integer `{text}` out of range"), span)),
        }
    }
}

/// The literal [`Value`] of a numeric/string token, if it is one.
pub fn literal_value(kind: &TokenKind) -> Option<Value> {
    match kind {
        TokenKind::Int(v) => Some(Value::Int(*v)),
        TokenKind::Float(v) => Some(Value::Float(*v)),
        TokenKind::Str(s) => Some(Value::from(s.as_str())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn spans_cover_their_lexemes() {
        let toks = lex("SELECT a, 'x''y' FROM t -- tail\n<= 1.5").unwrap();
        let src = "SELECT a, 'x''y' FROM t -- tail\n<= 1.5";
        assert_eq!(&src[toks[0].span.start..toks[0].span.end], "SELECT");
        assert_eq!(toks[3].kind, TokenKind::Str("x'y".into()));
        assert_eq!(&src[toks[3].span.start..toks[3].span.end], "'x''y'");
        assert_eq!(toks[6].kind, TokenKind::Le);
        assert_eq!(toks[7].kind, TokenKind::Float(1.5));
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
        assert_eq!(toks.last().unwrap().span, Span::point(src.len()));
    }

    #[test]
    fn operators_and_punctuation() {
        assert_eq!(
            kinds("= <> != < <= > >= + - * / ( ) , ; ."),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn errors_carry_spans_inside_the_input() {
        for src in ["SELECT 'open", "SELECT 99999999999999999999", "SELECT @"] {
            let err = lex(src).unwrap_err();
            let Error::PlanRejected(diags) = err else {
                panic!("expected PlanRejected");
            };
            let span = diags[0].span.expect("lex errors carry spans");
            assert!(span.start < src.len(), "{src}: {span:?}");
            assert!(span.end <= src.len(), "{src}: {span:?}");
        }
    }

    #[test]
    fn comment_runs_to_end_of_line() {
        assert_eq!(
            kinds("a -- b c d\n- 1"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Minus,
                TokenKind::Int(1),
                TokenKind::Eof
            ]
        );
    }
}
