//! A minimal hand-rolled Rust lexer.
//!
//! The linter does not need a full parse — every rule it enforces is
//! expressible over the token stream plus a little structural recovery
//! (attribute spans, brace-matched bodies). Lexing instead of regexing
//! is what makes the rules trustworthy: identifiers inside string
//! literals, comments and doc comments can never trigger a diagnostic,
//! and `// noc-lint: allow(...)` directives are recognised exactly where
//! a human reads them.
//!
//! The lexer understands the token shapes that matter for not getting
//! lost: line and (nested) block comments, string literals with escapes,
//! raw strings with arbitrary `#` guards, byte strings, char literals
//! versus lifetimes, and numeric literals. Everything else is an
//! identifier or a single-character punctuation token.

/// The coarse classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `!`, `[`, …).
    Punct(char),
    /// Any literal: string, raw string, byte string, char, or number.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's text (for [`TokenKind::Ident`], the identifier).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column within the line.
    pub col: u32,
}

impl Token {
    /// Whether the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// An inline suppression directive: `// noc-lint: allow(rule-a, rule-b)`.
///
/// A directive suppresses the named rules on its own line and on the
/// immediately following line, so it works both as a trailing comment and
/// as a standalone comment above the offending statement.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// Rule ids named in the directive.
    pub rules: Vec<String>,
}

/// The output of lexing one file: tokens plus the side channels the
/// rule engine needs (suppression directives).
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// All `noc-lint: allow(...)` directives found in comments.
    pub allows: Vec<AllowDirective>,
}

/// Lexes `src` into tokens and suppression directives.
///
/// The lexer is total: malformed input (an unterminated string, a stray
/// byte) never panics — it degrades by consuming one character and
/// moving on, which is the right behaviour for a linter that must not
/// fall over on the code it is criticising.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;

    macro_rules! col {
        ($at:expr) => {
            ($at - line_start + 1) as u32
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                // Line comment (incl. doc comments). Scan to end of line,
                // mining it for an allow directive.
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                if let Some(rules) = parse_allow(&src[start..i]) {
                    out.allows.push(AllowDirective { line, rules });
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                        line_start = i;
                    } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if starts_raw_string(bytes, i) => {
                let start = i;
                let (end, newlines, last_line_start) = scan_raw_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col: col!(start),
                });
                line += newlines;
                if newlines > 0 {
                    line_start = last_line_start;
                }
                i = end;
            }
            b'b' if i + 1 < bytes.len() && bytes[i + 1] == b'"' => {
                let start = i;
                let (end, newlines, last_line_start) = scan_string(bytes, i + 1);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col: col!(start),
                });
                line += newlines;
                if newlines > 0 {
                    line_start = last_line_start;
                }
                i = end;
            }
            b'"' => {
                let start = i;
                let (end, newlines, last_line_start) = scan_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col: col!(start),
                });
                line += newlines;
                if newlines > 0 {
                    line_start = last_line_start;
                }
                i = end;
            }
            b'\'' => {
                // Lifetime or char literal. `'a` followed by anything but
                // a closing quote is a lifetime; `'a'`, `'\n'`, `'\u{..}'`
                // are char literals.
                let start = i;
                if is_lifetime(bytes, i) {
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: String::new(),
                        line,
                        col: col!(start),
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        if bytes[j] == b'\\' {
                            j += 1; // skip escaped char
                        }
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                        col: col!(start),
                    });
                    i = (j + 1).min(bytes.len());
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (is_ident_continue(bytes[i]) || bytes[i] == b'.') {
                    // Stop a number at `..` (range) or `.method()`.
                    if bytes[i] == b'.' && (i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col: col!(start),
                });
            }
            _ if is_ident_start(b) => {
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                    col: col!(start),
                });
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(b as char),
                    text: String::new(),
                    line,
                    col: col!(i),
                });
                i += 1;
            }
        }
    }
    out
}

/// Parses `// noc-lint: allow(a, b)` from a line-comment's text.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("noc-lint:")?;
    let rest = comment[idx + "noc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Whether position `i` starts a raw (byte) string: `r"`, `r#`, `br"`, `br#`.
fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    j < bytes.len() && (bytes[j] == b'"' || bytes[j] == b'#')
}

/// Whether `'` at `i` begins a lifetime rather than a char literal.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else {
        return false;
    };
    if !is_ident_start(first) {
        return false; // '\n' and friends: char literal
    }
    // 'a' is a char literal, 'ab / 'a> / 'a, are lifetimes; 'static too.
    let mut j = i + 2;
    while j < bytes.len() && is_ident_continue(bytes[j]) {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Scans a normal (possibly byte-) string starting at the `"` in `bytes[i]`.
/// Returns `(end_index, newlines_crossed, start_of_last_line)`.
fn scan_string(bytes: &[u8], i: usize) -> (usize, u32, usize) {
    let mut j = i + 1;
    let mut newlines = 0u32;
    let mut last_line_start = 0usize;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, newlines, last_line_start),
            b'\n' => {
                newlines += 1;
                j += 1;
                last_line_start = j;
            }
            _ => j += 1,
        }
    }
    (j, newlines, last_line_start)
}

/// Scans a raw string starting at `r`/`b` in `bytes[i]`.
fn scan_raw_string(bytes: &[u8], i: usize) -> (usize, u32, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // past 'r'
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'"' {
        return (j, 0, 0); // not actually a raw string; degrade gracefully
    }
    j += 1;
    let mut newlines = 0u32;
    let mut last_line_start = 0usize;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
            j += 1;
            last_line_start = j;
            continue;
        }
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && k < bytes.len() && bytes[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, newlines, last_line_start);
            }
        }
        j += 1;
    }
    (j, newlines, last_line_start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw "string""#;
            let b = b"HashMap bytes";
            let real = 1;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        // 'x' and '\n' are literals, not lifetimes followed by stray quotes.
        assert!(!lexed.tokens.iter().any(|t| t.is_punct('\'')));
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nlet after = 3;";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("after");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn allow_directives_parse() {
        let src = "let x = 1; // noc-lint: allow(determinism, hot-loop-alloc)\n// noc-lint: allow(routing-locality)\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].rules, vec!["determinism", "hot-loop-alloc"]);
        assert_eq!(lexed.allows[1].line, 2);
        assert_eq!(lexed.allows[1].rules, vec!["routing-locality"]);
    }

    #[test]
    fn numbers_do_not_swallow_method_calls() {
        let src = "let x = 1.max(2); let y = 1.5; let r = 0..4;";
        let ids = idents(src);
        assert!(ids.contains(&"max".to_string()));
    }
}
