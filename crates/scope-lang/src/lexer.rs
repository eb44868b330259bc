//! Tokenizer for the SCOPE-like script language.

use crate::error::{LangError, Span};

/// Tokens. Keywords are case-insensitive in source but normalized here;
/// identifiers and string literals borrow their text from the script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    // Keywords
    Extract,
    From,
    Using,
    Select,
    Top,
    Where,
    Group,
    By,
    Order,
    Asc,
    Desc,
    Join,
    On,
    As,
    And,
    Or,
    Output,
    To,
    Process,
    Union,
    Distinct,
    Window,
    Partition,
    Aggregate,
    // Literals / identifiers
    Ident(&'a str),
    IntLit(i64),
    FloatLit(f64),
    StrLit(&'a str),
    // Punctuation
    Eq,   // =
    EqEq, // ==
    Ne,   // !=
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Comma,
    Semicolon,
    Colon,
    Dot,
    LParen,
    RParen,
    Eof,
}

/// Keyword spellings, matched against identifier-shaped lexemes ignoring
/// ASCII case.
const KEYWORDS: [(&str, Token<'static>); 24] = [
    ("EXTRACT", Token::Extract),
    ("FROM", Token::From),
    ("USING", Token::Using),
    ("SELECT", Token::Select),
    ("TOP", Token::Top),
    ("WHERE", Token::Where),
    ("GROUP", Token::Group),
    ("BY", Token::By),
    ("ORDER", Token::Order),
    ("ASC", Token::Asc),
    ("DESC", Token::Desc),
    ("JOIN", Token::Join),
    ("ON", Token::On),
    ("AS", Token::As),
    ("AND", Token::And),
    ("OR", Token::Or),
    ("OUTPUT", Token::Output),
    ("TO", Token::To),
    ("PROCESS", Token::Process),
    ("UNION", Token::Union),
    ("DISTINCT", Token::Distinct),
    ("WINDOW", Token::Window),
    ("PARTITION", Token::Partition),
    ("AGGREGATE", Token::Aggregate),
];

/// A token paired with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    pub token: Token<'a>,
    pub span: Span,
}

/// Tokenize a whole script. `//` comments run to end of line. Positions
/// count characters, not bytes: the walk is by byte offset, and only the
/// characters that may be non-ASCII (whitespace, identifiers, string
/// contents, the unexpected) are decoded.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, LangError> {
    let bytes = src.as_bytes();
    let chars = |s: &str| s.chars().count() as u32;
    // Generated scripts average over three bytes a token.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    while i < bytes.len() {
        let span = Span::new(line, col);
        let next = bytes.get(i + 1).copied();
        // An ASCII token of `len` bytes, or a lexeme handled in place.
        let (token, len) = match bytes[i] {
            b'\n' => {
                line += 1;
                col = 1;
                i += 1;
                continue;
            }
            b' ' => {
                col += 1;
                i += 1;
                continue;
            }
            b'/' if next == Some(b'/') => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len() - i);
                continue;
            }
            b'"' => {
                let rest = &src[i + 1..];
                let Some(end) = rest
                    .find(['"', '\n'])
                    .filter(|&e| rest.as_bytes()[e] == b'"')
                else {
                    return Err(LangError::Lex {
                        span,
                        message: "unterminated string".into(),
                    });
                };
                let text = &rest[..end];
                out.push(Spanned {
                    token: Token::StrLit(text),
                    span,
                });
                col += chars(text) + 2;
                i += end + 2;
                continue;
            }
            b'0'..=b'9' => {
                let len = bytes[i..]
                    .iter()
                    .position(|b| !(b.is_ascii_digit() || *b == b'.'))
                    .unwrap_or(bytes.len() - i);
                let text = &src[i..i + len];
                let token = if text.contains('.') {
                    Token::FloatLit(text.parse().map_err(|_| LangError::Lex {
                        span,
                        message: format!("bad float literal {text}"),
                    })?)
                } else {
                    Token::IntLit(text.parse().map_err(|_| LangError::Lex {
                        span,
                        message: format!("bad int literal {text}"),
                    })?)
                };
                (token, len)
            }
            b'=' if next == Some(b'=') => (Token::EqEq, 2),
            b'=' => (Token::Eq, 1),
            b'!' if next == Some(b'=') => (Token::Ne, 2),
            b'<' if next == Some(b'=') => (Token::Le, 2),
            b'<' => (Token::Lt, 1),
            b'>' if next == Some(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'*' => (Token::Star, 1),
            b'/' => (Token::Slash, 1),
            b',' => (Token::Comma, 1),
            b';' => (Token::Semicolon, 1),
            b':' => (Token::Colon, 1),
            b'.' => (Token::Dot, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            _ => {
                let rest = &src[i..];
                let Some(c) = rest.chars().next() else { break };
                if c.is_whitespace() {
                    col += 1;
                    i += c.len_utf8();
                    continue;
                }
                if !(c.is_alphabetic() || c == '_') {
                    return Err(LangError::Lex {
                        span,
                        message: format!("unexpected character {c:?}"),
                    });
                }
                let len = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let text = &rest[..len];
                let token = KEYWORDS
                    .iter()
                    .find(|(kw, _)| kw.eq_ignore_ascii_case(text))
                    .map_or(Token::Ident(text), |&(_, kw)| kw);
                out.push(Spanned { token, span });
                col += chars(text);
                i += len;
                continue;
            }
        };
        out.push(Spanned { token, span });
        col += len as u32;
        i += len;
    }
    out.push(Spanned {
        token: Token::Eof,
        span: Span::new(line, col),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            toks("select SELECT SeLeCt"),
            vec![Token::Select, Token::Select, Token::Select, Token::Eof]
        );
    }

    #[test]
    fn identifiers_keep_case() {
        assert_eq!(toks("myData"), vec![Token::Ident("myData"), Token::Eof]);
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            toks(r#"42 3.5 "a/b""#),
            vec![
                Token::IntLit(42),
                Token::FloatLit(3.5),
                Token::StrLit("a/b"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("= == != < <= > >="),
            vec![
                Token::Eq,
                Token::EqEq,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // hello world\nb"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn spans_track_lines() {
        let s = tokenize("a\n  b").unwrap();
        assert_eq!(s[0].span, Span::new(1, 1));
        assert_eq!(s[1].span, Span::new(2, 3));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("\"abc").unwrap_err();
        assert!(matches!(err, LangError::Lex { .. }));
    }

    #[test]
    fn unexpected_character_errors() {
        let err = tokenize("@").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }
}
