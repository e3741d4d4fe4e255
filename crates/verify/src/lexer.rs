//! The shared Rust surface lexer every `hymv-verify` source pass builds
//! on (the sandbox has no `syn`; this is a hand-rolled scanner, not a
//! full parser — see the soundness notes in `DESIGN.md` §12).
//!
//! Two layers:
//!
//! * [`strip_comments_and_strings`] — replace comment and string/char
//!   contents with spaces, preserving byte length and newlines so offsets
//!   in the stripped text map 1:1 onto the original. This is the substrate
//!   of the line-local lint pass and of the token scan below. It is an
//!   explicit state machine over the byte classes Rust's reference lexer
//!   distinguishes: line comments, *nested* block comments, plain/byte
//!   strings with escapes, raw/raw-byte strings with `#`-counted closers
//!   (`r#"..."#`), char literals (including multibyte and escaped chars)
//!   vs lifetimes, and raw identifiers (`r#match`).
//! * [`tokens`] — a flat token stream (identifiers, integers, punctuation)
//!   over the stripped text, with byte offsets. The call-graph builder
//!   parses from these tokens.
//!
//! Hardening notes (regression fixtures in the tests below): raw strings
//! must honor the exact hash count of their opener (`r##"a"#b"##` is one
//! string), nested block comments must track depth (`/* a /* b */ c */`
//! ends at the *second* `*/`), and multibyte char literals (`'λ'`) are
//! literals, not lifetimes — the old scan leaked their contents into the
//! "code" text.

/// Replace comments and string/char-literal contents with spaces,
/// preserving length and newlines so byte offsets still map to the
/// original line numbers.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let blank = |out: &mut Vec<u8>, s: &[u8]| {
        for &c in s {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment (`//`, `///`, `//!`): to end of line, no nesting.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = src[i..].find('\n').map_or(b.len(), |e| i + e);
            blank(&mut out, &b[i..end]);
            i = end;
            continue;
        }
        // Block comment: `/* ... */`, nesting tracked by depth. An
        // unterminated comment swallows the rest of the file (as rustc
        // would reject it, blanking it all is the conservative reading).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b[start..i]);
            continue;
        }
        // Raw (and raw-byte) string: `r"…"` / `r#"…"#` / `br##"…"##`. The
        // closer must repeat the opener's exact hash count; raw strings
        // have no escapes. Only when the `r`/`br` starts an identifier of
        // its own — `var"x"` is an ident then a string. `r#ident` (raw
        // identifier) has no quote after the hashes and falls through.
        let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if !ident_before && (c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r')) {
            let start = i;
            let mut j = if c == b'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                j += 1;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while j < b.len() {
                    if b[j] == b'"' && b[j..].starts_with(&closer) {
                        j += closer.len();
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, &b[start..j]);
                i = j;
                continue;
            }
        }
        // Plain (and byte) string, with `\`-escapes (an escaped quote does
        // not close; `\\` does not escape the following quote).
        if c == b'"' || (c == b'b' && !ident_before && i + 1 < b.len() && b[i + 1] == b'"') {
            let start = i;
            let mut j = if c == b'b' { i + 2 } else { i + 1 };
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, &b[start..j.min(b.len())]);
            i = j.min(b.len());
            continue;
        }
        // Char literal vs lifetime. A char literal is `'` + (escape | one
        // code point, possibly multibyte) + `'`; a lifetime has no closing
        // quote right after its single code point (`'static`, `<'a>`).
        if c == b'\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                // One UTF-8 code point, then a closing quote. Decoding the
                // char (instead of assuming it is one byte) is what keeps
                // `'λ'` a literal rather than a lifetime.
                src[i + 1..]
                    .chars()
                    .next()
                    .is_some_and(|ch| b.get(i + 1 + ch.len_utf8()) == Some(&b'\''))
            };
            if is_char {
                let start = i;
                let mut j = i + 1;
                if j < b.len() && b[j] == b'\\' {
                    j += 2; // skip the escape lead (covers `'\''`, `'\\'`)
                }
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                j = (j + 1).min(b.len());
                blank(&mut out, &b[start..j]);
                i = j;
                continue;
            }
            // Lifetime: keep the tick, move on.
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: multibyte chars are copied verbatim")
}

/// 1-based line number of byte `offset` in `text`.
pub fn line_of(text: &str, offset: usize) -> usize {
    text[..offset.min(text.len())]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1
}

/// One token of the stripped text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    /// Identifier or keyword (also raw identifiers, without the `r#`).
    Ident(&'a str),
    /// Integer literal text (`42`, `0x0C01`, `1_000u32`).
    Int(&'a str),
    /// A lifetime tick + name (`'a`, `'static`).
    Lifetime(&'a str),
    /// A single punctuation byte (`(`, `{`, `.`, `!`, ...).
    Punct(u8),
}

/// A token with its byte offset into the (stripped) source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub at: usize,
}

impl Token<'_> {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self.tok, Tok::Ident(s) if s == name)
    }

    /// True if this token is the punctuation byte `p`.
    pub fn is_punct(&self, p: u8) -> bool {
        matches!(self.tok, Tok::Punct(q) if q == p)
    }
}

/// Tokenize stripped source text (no comments or string contents — run
/// [`strip_comments_and_strings`] first). Whitespace separates tokens;
/// multibyte non-identifier characters are skipped.
pub fn tokens(stripped: &str) -> Vec<Token<'_>> {
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let is_ident_byte =
        |c: u8| c.is_ascii_alphanumeric() || c == b'_' || !c.is_ascii() /* XID chars */;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == b'\'' {
            // Only lifetimes survive stripping with a tick.
            let start = i;
            i += 1;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Lifetime(&stripped[start..i]),
                at: start,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (is_ident_byte(b[i]) || b[i] == b'.') {
                // `0x`, suffixes, underscores; a `..` range punct ends it.
                if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                    break;
                }
                i += 1;
            }
            out.push(Token {
                tok: Tok::Int(&stripped[start..i]),
                at: start,
            });
            continue;
        }
        if is_ident_byte(c) {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(&stripped[start..i]),
                at: start,
            });
            continue;
        }
        out.push(Token {
            tok: Tok::Punct(c),
            at: i,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- regression fixtures: raw strings --------------------------------

    #[test]
    fn raw_string_closer_honors_hash_count() {
        // `r##"…"##`: the single-hash `"#` inside must NOT close it.
        let src = "let s = r##\"x\"# recv(0,1) \"##; live(0);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
        assert!(out.contains("live(0)"), "{out}");
    }

    #[test]
    fn raw_string_has_no_escapes() {
        // In a raw string `\` is a literal byte: `r"a\"` is complete.
        let src = "let s = r\"a\\\"; recv(0, 1);";
        let out = strip_comments_and_strings(src);
        assert!(out.contains("recv(0, 1)"), "{out}");
    }

    #[test]
    fn raw_byte_string_and_multiline_raw() {
        let src = "let b = br#\"recv(0,1)\"#;\nlet s = r#\"l1 // x\nrecv(9,9)\"#;\nisend(3, 4, x);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
        assert!(out.contains("isend(3, 4, x)"), "{out}");
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let src = "let r#match = 1; recv(0, 1);";
        let out = strip_comments_and_strings(src);
        assert!(out.contains("recv(0, 1)"), "{out}");
    }

    // ---- regression fixtures: nested block comments ----------------------

    #[test]
    fn nested_block_comment_tracks_depth() {
        let src = "/* a /* b */ still comment: recv(7,7) */ recv(0, 1);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv(7,7)"), "{out}");
        assert!(out.contains("recv(0, 1)"), "{out}");
    }

    #[test]
    fn slash_star_slash_stays_open() {
        // `/*/` opens a comment that the later `*/` closes.
        let src = "/*/ recv(0,1) */ isend(1, TAG, x);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
        assert!(out.contains("isend(1, TAG, x)"), "{out}");
    }

    #[test]
    fn unterminated_nested_comment_blanks_to_eof() {
        let src = "/* outer /* inner */ recv(0,1)";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
    }

    // ---- char literals vs lifetimes --------------------------------------

    #[test]
    fn multibyte_char_literal_is_blanked() {
        // The old one-byte lookahead classified `'λ'` as a lifetime and
        // leaked the contents into the code text.
        let src = "let c = 'λ'; let p = '('; recv(0, 1);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains('λ'), "{out}");
        assert!(!out.contains('('.to_string().as_str()) || out.contains("recv(0, 1)"));
        assert!(out.contains("recv(0, 1)"), "{out}");
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn lifetimes_survive_stripping() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let out = strip_comments_and_strings(src);
        assert!(out.contains("'a"), "{out}");
        assert!(out.contains("'static"), "{out}");
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let src = "let c = '\"'; let s = \"recv(0,1)\"; isend(5, TAG, x);";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
        assert!(out.contains("isend(5, TAG, x)"), "{out}");
    }

    // ---- token stream ----------------------------------------------------

    #[test]
    fn tokens_classify_and_carry_offsets() {
        let src = "fn foo(a: u32) { bar(a, 0x0C01); }";
        let toks = tokens(src);
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("foo"));
        assert!(toks[2].is_punct(b'('));
        let lit = toks
            .iter()
            .find(|t| matches!(t.tok, Tok::Int(s) if s == "0x0C01"))
            .expect("int literal token");
        assert_eq!(&src[lit.at..lit.at + 6], "0x0C01");
    }

    #[test]
    fn tokens_split_ranges_not_floats_at_dotdot() {
        let src = "for i in 0..n { x(i); }";
        let toks = tokens(src);
        assert!(toks
            .iter()
            .any(|t| matches!(t.tok, Tok::Int(s) if s == "0")));
        assert!(toks.iter().filter(|t| t.is_punct(b'.')).count() == 2);
    }
}
