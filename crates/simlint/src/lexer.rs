//! A minimal, comment/string-aware Rust tokenizer.
//!
//! The rules in [`crate::rules`] operate on *tokens*, never raw text, so a
//! `HashMap` mentioned in a doc comment, a `"rand::"` inside a string
//! literal, or an identifier like `Instantiates` that merely contains a
//! forbidden name can never produce a finding. The lexer handles the Rust
//! surface syntax that matters for that guarantee:
//!
//! - line comments (`//`) and nested block comments (`/* /* */ */`),
//! - string, byte-string, and raw-string literals (`r#"…"#`, any `#` count),
//! - char literals vs lifetimes (`'a'` is a literal, `'a` is a lifetime),
//! - identifiers, numbers, and single-character punctuation.

/// Kinds of token the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, …).
    Ident,
    /// Numeric literal (`42`, `0xFF`, `1.5e9`).
    Num,
    /// A single punctuation character (`:`, `(`, `{`, `#`, …).
    Punct,
    /// A string literal. `text` is the *raw source slice including quotes*
    /// (and any `b`/`r`/`#` adornment), so it can never collide with the
    /// punctuation/identifier matching the structural rules do; use
    /// [`str_contents`] to get the contents.
    Str,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token text; for `Punct` this is a single character.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Classification.
    pub kind: TokKind,
}

/// Contents of a [`TokKind::Str`] token's raw source slice: strips the
/// optional `b`/`r` prefixes, raw-string hashes, and the enclosing quotes.
/// Escape sequences are left as written — the item-graph rules only ever
/// inspect escape-free literals (metric keys, wire tags).
pub fn str_contents(raw: &str) -> &str {
    let s = raw.strip_prefix('b').unwrap_or(raw);
    let s = s.strip_prefix('r').unwrap_or(s);
    let s = s.trim_matches('#');
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Counts the newlines in `s` (for multi-line literals and comments).
fn newlines(s: &[u8]) -> u32 {
    s.iter().filter(|&&b| b == b'\n').count() as u32
}

/// Skips a (raw/byte) string literal starting at `i` if one starts there.
/// Returns the index just past the literal, or `None` if `i` does not start
/// a string literal.
fn skip_string(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if j < b.len() && b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        // Raw string: r"…" or r#"…"# with any number of hashes.
        let mut k = j + 1;
        let mut hashes = 0usize;
        while k < b.len() && b[k] == b'#' {
            hashes += 1;
            k += 1;
        }
        if k < b.len() && b[k] == b'"' {
            k += 1;
            // Scan for `"` followed by `hashes` hashes.
            while k < b.len() {
                if b[k] == b'"'
                    && b.len() - k > hashes
                    && b[k + 1..k + 1 + hashes].iter().all(|&h| h == b'#')
                {
                    return Some(k + 1 + hashes);
                }
                k += 1;
            }
            return Some(b.len());
        }
        return None;
    }
    if j < b.len() && b[j] == b'"' {
        // Ordinary (possibly byte) string with escapes.
        let mut k = j + 1;
        while k < b.len() {
            match b[k] {
                b'\\' => k += 2,
                b'"' => return Some(k + 1),
                _ => k += 1,
            }
        }
        return Some(b.len());
    }
    None
}

/// Tokenizes `src`: every token outside comments and literals, in order.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let len = b.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < len {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < len && b[i + 1] == b'/' => {
                while i < len && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < len && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < len && depth > 0 {
                    if j + 1 < len && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < len && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                line += newlines(&b[i..j]);
                i = j;
            }
            b'"' => {
                let j = skip_string(b, i).expect("quote starts a string");
                out.push(Tok {
                    text: src[i..j].to_string(),
                    line,
                    kind: TokKind::Str,
                });
                line += newlines(&b[i..j]);
                i = j;
            }
            b'\'' => {
                if i + 1 < len && b[i + 1] == b'\\' {
                    // Escaped char literal: scan to the closing quote.
                    let mut j = i + 2;
                    while j < len && b[j] != b'\'' {
                        j += 1;
                    }
                    i = j + 1;
                } else if i + 1 < len && is_ident_start(b[i + 1]) {
                    // `'abc` — lifetime unless a quote closes the run
                    // (then it was a char literal like 'a').
                    let mut j = i + 1;
                    while j < len && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    if j < len && b[j] == b'\'' {
                        i = j + 1; // char literal
                    } else {
                        i = j; // lifetime: skip, rules never need it
                    }
                } else {
                    // Char literal holding punctuation or a multi-byte
                    // character: scan to the closing quote.
                    let mut j = i + 1;
                    while j < len && b[j] != b'\'' {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                    i = j + 1;
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < len
                    && (is_ident_cont(b[i])
                        || (b[i] == b'.' && i + 1 < len && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                out.push(Tok {
                    text: src[start..i].to_string(),
                    line,
                    kind: TokKind::Num,
                });
            }
            _ if is_ident_start(c) => {
                // A `b`/`r`/`br` prefix may start a (raw) string literal.
                if matches!(c, b'b' | b'r') {
                    if let Some(j) = skip_string(b, i) {
                        out.push(Tok {
                            text: src[i..j].to_string(),
                            line,
                            kind: TokKind::Str,
                        });
                        line += newlines(&b[i..j]);
                        i = j;
                        continue;
                    }
                }
                let start = i;
                i += 1;
                while i < len && is_ident_cont(b[i]) {
                    i += 1;
                }
                out.push(Tok {
                    text: src[start..i].to_string(),
                    line,
                    kind: TokKind::Ident,
                });
            }
            _ => {
                out.push(Tok {
                    text: (c as char).to_string(),
                    line,
                    kind: TokKind::Punct,
                });
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_tokens() {
        let src = r###"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw "string""#;
            let c = 'H';
        "###;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_following_tokens() {
        let ids = idents("fn f<'a>(x: &'a HashMap) {}");
        assert!(ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"a".to_string()), "lifetime name skipped");
    }

    #[test]
    fn char_literals_are_skipped() {
        let ids = idents("let x = 'h'; let y = '\\n'; let z = '('; foo");
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "z", "foo"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb */\nlet x = \"s\ntring\";\nmarker";
        let l = lex(src);
        let m = l.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 5);
    }

    #[test]
    fn numbers_do_not_swallow_range_operators() {
        let l = lex("for i in 0..n {}");
        let texts: Vec<_> = l.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["for", "i", "in", "0", ".", ".", "n", "{", "}"]);
    }

    #[test]
    fn string_literals_become_str_tokens_with_contents() {
        let l = lex(r##"r.inc("drops_color", 1); let p = r#"raw/{n}"#; let b = b"bytes";"##);
        let strs: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| str_contents(&t.text))
            .collect();
        assert_eq!(strs, vec!["drops_color", "raw/{n}", "bytes"]);
        // The raw slice keeps its quotes, so it can never be mistaken for
        // punctuation or an identifier by structural scans.
        let raw: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(raw[0], "\"drops_color\"");
        assert_eq!(raw[1], "r#\"raw/{n}\"#");
    }

    #[test]
    fn str_tokens_cannot_shadow_structure() {
        // A literal holding "{" or ")" must not confuse brace/paren matching:
        // its token text includes the quotes.
        let l = lex("f(\"(\", \"{\", \"}\")");
        let puncts: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["(", ",", ",", ")"]);
    }

    #[test]
    fn line_numbers_survive_crlf_sources() {
        // CRLF line endings: `\r` is plain whitespace, `\n` counts lines —
        // including inside multi-line strings and block comments.
        let src = "line1\r\n/* c\r\nc */\r\nlet s = \"a\r\nb\";\r\nmarker";
        let l = lex(src);
        let m = l.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 6);
        let s = l.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.line, 4, "string starts on line 4");
    }

    #[test]
    fn line_numbers_survive_raw_string_edge_cases() {
        // Raw strings spanning lines, embedding quotes, hashes, and
        // comment-lookalike text must neither derail the token stream nor
        // the line counter.
        let src = "r##\"first\n\"# not the end\n// not a comment\n\"##;\nmarker\nr\"\\\"; // backslash is literal in raw strings\nmarker2";
        let l = lex(src);
        let m = l.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 5);
        let m2 = l.iter().find(|t| t.text == "marker2").unwrap();
        assert_eq!(m2.line, 7);
        assert_eq!(
            l.iter().filter(|t| t.kind == TokKind::Str).count(),
            2,
            "both raw strings lexed as single tokens"
        );
    }

    #[test]
    fn str_contents_strips_adornment() {
        assert_eq!(str_contents("\"plain\""), "plain");
        assert_eq!(str_contents("r\"raw\""), "raw");
        assert_eq!(str_contents("r#\"hash\"#"), "hash");
        assert_eq!(str_contents("r##\"#inner#\"##"), "#inner#");
        assert_eq!(str_contents("b\"bytes\""), "bytes");
    }
}
