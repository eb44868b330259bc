//! A hand-rolled Rust lexer — the token layer under the `qo-lint` rules.
//!
//! Deliberately *not* `syn`: the workspace vendors its external
//! dependencies by hand (see `vendor/`), and the determinism rules only
//! need a faithful token stream, not a syntax tree. The lexer handles the
//! parts of Rust's lexical grammar that matter for not mis-reading real
//! code: nested block comments, raw strings with arbitrary `#` runs, byte
//! and raw-byte strings, raw identifiers, char literals vs lifetimes, and
//! numeric literals with prefixes/suffixes/underscores.
//!
//! Comments are lexed into a side channel (they carry the
//! `qo-lint: allow(...)` annotations); doc comments (`///`, `//!`,
//! `/** */`) are recognized but excluded from annotation parsing so
//! documentation can *mention* the allow syntax without enacting it.

/// One lexed token. Comments and whitespace are not tokens — comments go
/// to [`Lexed::comments`], whitespace is dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword. Raw identifiers (`r#type`) are unescaped to
    /// their bare name.
    Ident(String),
    /// A lifetime (`'a`, `'static`), without the leading quote.
    Lifetime(String),
    /// Character or byte-character literal (`'x'`, `b'\n'`).
    Char,
    /// Any string literal: plain, raw, byte, raw-byte.
    Str,
    /// Integer literal, verbatim text (prefix, underscores, suffix kept).
    Int(String),
    /// Float literal.
    Float,
    /// One punctuation character. Multi-character operators appear as
    /// consecutive `Punct` tokens; [`Token::joint`] says whether the next
    /// token follows with no gap (so `+=` is `+`·`=` with `joint` set).
    Punct(char),
}

/// A token plus its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Tok,
    /// 1-based source line.
    pub line: u32,
    /// Byte offset of the token start.
    pub offset: usize,
    /// True when the next token starts immediately after this one
    /// (no whitespace/comment gap) — used to read compound operators.
    pub joint: bool,
}

/// One comment, for the annotation side channel.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the first character of the comment.
    pub line: u32,
    /// Byte offset of the comment start.
    pub offset: usize,
    /// Byte offset one past the comment end.
    pub end_offset: usize,
    /// Full comment text, including the `//` / `/*` sigils.
    pub text: String,
    /// `///`, `//!`, `/**`, `/*!` — excluded from annotation parsing.
    pub doc: bool,
}

/// Lexer output: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Kind of the token at `i`, or `None` past the end.
    pub fn kind(&self, i: usize) -> Option<&Tok> {
        self.tokens.get(i).map(|t| &t.kind)
    }

    /// True when token `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.kind(i), Some(Tok::Punct(p)) if *p == c)
    }
}

/// Lex `source` into tokens + comments. Unterminated constructs (strings,
/// block comments) consume to end of input rather than erroring: a lint
/// must keep going on the code people actually write mid-edit.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        src: source.as_bytes(),
        text: source,
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    text: &'s str,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let b = self.src[self.pos];
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(start, line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(start, line),
                b'\'' => self.quote(start, line),
                b'"' => {
                    self.string_plain();
                    self.push(Tok::Str, line, start);
                }
                b'0'..=b'9' => self.number(start, line),
                _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => {
                    self.ident_or_prefixed(start, line)
                }
                _ => {
                    self.pos += 1;
                    self.push(Tok::Punct(b as char), line, start);
                }
            }
        }
        // `joint` for token i = token i+1 starts exactly where i ended. The
        // lexer never records end offsets, so recompute conservatively: two
        // consecutive Puncts on one line, adjacent byte offsets.
        for i in 0..self.out.tokens.len().saturating_sub(1) {
            let next_off = self.out.tokens[i + 1].offset;
            let t = &mut self.out.tokens[i];
            if let Tok::Punct(_) = t.kind {
                t.joint = next_off == t.offset + 1;
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: Tok, line: u32, offset: usize) {
        self.out.tokens.push(Token {
            kind,
            line,
            offset,
            joint: false,
        });
    }

    fn count_newlines(&mut self, from: usize) {
        self.line += self.src[from..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u32;
    }

    fn line_comment(&mut self, start: usize, line: u32) {
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = self.text[start..self.pos].to_string();
        let doc = text.starts_with("///") && !text.starts_with("////") || text.starts_with("//!");
        self.out.comments.push(Comment {
            line,
            offset: start,
            end_offset: self.pos,
            text,
            doc,
        });
    }

    fn block_comment(&mut self, start: usize, line: u32) {
        // Nested block comments: track depth.
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        let text = self.text[start..self.pos].to_string();
        let doc = text.starts_with("/**") && !text.starts_with("/***") || text.starts_with("/*!");
        self.out.comments.push(Comment {
            line,
            offset: start,
            end_offset: self.pos,
            text,
            doc,
        });
        self.count_newlines(start);
    }

    /// `'` starts either a char literal or a lifetime.
    fn quote(&mut self, start: usize, line: u32) {
        // Decide by shape: '\... is always a char literal; 'X' (any single
        // char followed by a closing quote) is a char literal; otherwise a
        // lifetime ('a, 'static, the odd '_).
        match self.peek(1) {
            Some(b'\\') => {
                // Escaped char literal: scan to the closing quote.
                self.pos += 2;
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b'\\' => self.pos += 2,
                        b'\'' => {
                            self.pos += 1;
                            break;
                        }
                        _ => self.pos += 1,
                    }
                }
                self.push(Tok::Char, line, start);
            }
            Some(_) => {
                // One char (possibly multi-byte), then look for the quote.
                let rest = &self.text[start + 1..];
                let mut chars = rest.char_indices();
                let (_, first) = chars.next().expect("peeked non-empty");
                let after = start + 1 + first.len_utf8();
                if self.src.get(after) == Some(&b'\'') {
                    self.pos = after + 1;
                    self.push(Tok::Char, line, start);
                } else {
                    // Lifetime: consume ident chars after the quote.
                    self.pos = start + 1;
                    let name_start = self.pos;
                    while self.pos < self.src.len()
                        && (self.src[self.pos] == b'_'
                            || self.src[self.pos].is_ascii_alphanumeric())
                    {
                        self.pos += 1;
                    }
                    let name = self.text[name_start..self.pos].to_string();
                    self.push(Tok::Lifetime(name), line, start);
                }
            }
            None => {
                self.pos += 1;
                self.push(Tok::Punct('\''), line, start);
            }
        }
    }

    /// Plain (non-raw) string body, cursor on the opening `"`.
    fn string_plain(&mut self) {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.count_newlines(start);
    }

    /// Raw string body, cursor on the first `#` or the `"`.
    fn string_raw(&mut self) {
        let start = self.pos;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        debug_assert_eq!(self.peek(0), Some(b'"'));
        self.pos += 1;
        'scan: while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                // Need `hashes` following '#'s to close.
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        self.pos += 1;
                        continue 'scan;
                    }
                }
                self.pos += 1 + hashes;
                break;
            }
            self.pos += 1;
        }
        self.count_newlines(start);
    }

    fn number(&mut self, start: usize, line: u32) {
        let radix_prefixed = self.src[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O'));
        if radix_prefixed {
            self.pos += 2;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            self.push(
                Tok::Int(self.text[start..self.pos].to_string()),
                line,
                start,
            );
            return;
        }
        let mut float = false;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_digit() || b == b'_' {
                self.pos += 1;
            } else if b == b'.' && !float {
                // `1.5` is a float; `1..n` is a range; `1.max(2)` a call.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            } else if (b == b'e' || b == b'E')
                && matches!(self.peek(1), Some(b'+' | b'-') | Some(b'0'..=b'9'))
                && self.text[start..self.pos]
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == '_' || c == '.')
            {
                float = true;
                self.pos += 1;
                if matches!(self.peek(0), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
            } else if b.is_ascii_alphabetic() {
                // Suffix (u64, f32, usize…). `f32`/`f64` suffixes make it a
                // float token; the suffix is consumed either way.
                let suffix_start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                if self.text[suffix_start..self.pos].starts_with('f') {
                    float = true;
                }
                break;
            } else {
                break;
            }
        }
        if float {
            self.push(Tok::Float, line, start);
        } else {
            self.push(
                Tok::Int(self.text[start..self.pos].to_string()),
                line,
                start,
            );
        }
    }

    fn ident_or_prefixed(&mut self, start: usize, line: u32) {
        // Read the identifier run first.
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = &self.text[start..self.pos];
        let next = self.peek(0);
        match (word, next) {
            // Byte-char literal b'x'.
            ("b", Some(b'\'')) => {
                let save = self.pos;
                self.pos += 1; // consume the quote, reuse char scanning
                match self.peek(0) {
                    Some(b'\\') => {
                        self.pos += 1;
                        while self.pos < self.src.len() {
                            match self.src[self.pos] {
                                b'\\' => self.pos += 2,
                                b'\'' => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => self.pos += 1,
                            }
                        }
                        self.push(Tok::Char, line, start);
                    }
                    Some(_) if self.peek(1) == Some(b'\'') => {
                        self.pos += 2;
                        self.push(Tok::Char, line, start);
                    }
                    _ => {
                        // Not a byte char after all: emit `b`, re-lex quote.
                        self.pos = save;
                        self.push(Tok::Ident(word.to_string()), line, start);
                    }
                }
            }
            // String-literal prefixes.
            ("b" | "r" | "br" | "rb", Some(b'"')) => {
                if word.contains('r') {
                    self.string_raw();
                } else {
                    self.string_plain();
                }
                self.push(Tok::Str, line, start);
            }
            ("r" | "br" | "rb", Some(b'#')) => {
                // Either a raw string `r#"…"#` or a raw identifier `r#type`.
                let mut k = 0usize;
                while self.peek(k) == Some(b'#') {
                    k += 1;
                }
                if self.peek(k) == Some(b'"') {
                    self.string_raw();
                    self.push(Tok::Str, line, start);
                } else if word == "r" && k == 1 {
                    // Raw identifier: skip `#`, lex the bare name.
                    self.pos += 1;
                    let name_start = self.pos;
                    while self.pos < self.src.len()
                        && (self.src[self.pos] == b'_'
                            || self.src[self.pos].is_ascii_alphanumeric()
                            || self.src[self.pos] >= 0x80)
                    {
                        self.pos += 1;
                    }
                    self.push(
                        Tok::Ident(self.text[name_start..self.pos].to_string()),
                        line,
                        start,
                    );
                } else {
                    self.push(Tok::Ident(word.to_string()), line, start);
                }
            }
            _ => self.push(Tok::Ident(word.to_string()), line, start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexes_plain_tokens_with_lines() {
        let l = lex("let x = 42;\nlet y = x + 1;");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Int("42".into()) && t.line == 1));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Ident("y".into()) && t.line == 2));
    }

    #[test]
    fn raw_strings_swallow_banned_words() {
        // Contents of strings must never look like identifiers to rules.
        let l = lex(r####"let s = r#"thread_rng SystemTime"#; let t = "Instant::now";"####);
        assert!(!idents(r####"let s = r#"thread_rng"#;"####).contains(&"thread_rng".to_string()));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Str).count(), 2);
    }

    #[test]
    fn raw_string_hash_runs_terminate_correctly() {
        // The inner `"#` must not close an `r##"…"##` string.
        let src = r###"let s = r##"has "# inside"##; let x = 1;"###;
        let l = lex(src);
        assert!(l.tokens.iter().any(|t| t.kind == Tok::Int("1".into())));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Str).count(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.kind == Tok::Ident("let".into())));
    }

    #[test]
    fn block_comment_counts_lines() {
        let l = lex("/* a\nb\nc */ let x = 1;");
        let let_tok = l
            .tokens
            .iter()
            .find(|t| t.kind == Tok::Ident("let".into()))
            .unwrap();
        assert_eq!(let_tok.line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l =
            lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; let s: &'static str = \"\"; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Lifetime(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static"]);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Char).count(), 2);
    }

    #[test]
    fn byte_and_unicode_char_literals() {
        let l = lex("let a = b'x'; let b = b'\\''; let c = '\u{00e9}';");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Char).count(), 3);
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert!(idents("let r#type = 1;").contains(&"type".to_string()));
    }

    #[test]
    fn numeric_literals_with_prefixes_and_suffixes() {
        let l = lex(
            "let a = 0x9806_0d0d; let b = 1_000u64; let c = 1.5e-3; let d = 2f64; let r = 0..10;",
        );
        let ints: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Int(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ints, vec!["0x9806_0d0d", "1_000u64", "0", "10"]);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Float).count(), 2);
    }

    #[test]
    fn method_call_on_int_literal_is_not_a_float() {
        let l = lex("let m = 1.max(2);");
        assert!(l.tokens.iter().any(|t| t.kind == Tok::Int("1".into())));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == Tok::Float).count(), 0);
    }

    #[test]
    fn doc_comments_are_marked() {
        let l = lex("/// doc\n//! inner\n// plain\n/** block doc */\n/* plain block */ fn f() {}");
        let docs: Vec<bool> = l.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, true, false, true, false]);
    }

    #[test]
    fn joint_puncts_reconstruct_compound_operators() {
        let l = lex("x += 1; y == 2; z -= 3;");
        // `+` immediately followed by `=` is joint; `x` then `+` is not.
        let plus = l
            .tokens
            .iter()
            .position(|t| t.kind == Tok::Punct('+'))
            .unwrap();
        assert!(l.tokens[plus].joint);
        let eq1 = l
            .tokens
            .iter()
            .position(|t| t.kind == Tok::Punct('='))
            .unwrap();
        assert_eq!(eq1, plus + 1);
    }

    #[test]
    fn unterminated_string_consumes_to_eof_without_panic() {
        let l = lex("let s = \"never closed");
        assert!(l.tokens.iter().any(|t| t.kind == Tok::Str));
    }
}
