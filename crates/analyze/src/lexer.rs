//! A comment- and string-aware Rust tokenizer.
//!
//! This is *not* a full Rust lexer — it is exactly as much of one as the
//! rule table needs: it distinguishes identifiers, integer and float
//! literals, string/char literals, lifetimes, and (possibly multi-char)
//! punctuation, and it discards comments entirely. Discarding comments and
//! string bodies is what makes the rules immune to the classic grep
//! failure modes (`// never call unwrap()` firing the panic rule, or a
//! log message containing `HashMap` firing the determinism rule).
//!
//! String and byte-string bodies are fully opaque: a `}` inside
//! `b"..."` or `br#"..."#` never reaches the brace matching that finds
//! the extent of a `#[cfg(test)]` item.

/// The coarse class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `as`, `unwrap`).
    Ident,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e9`, `0.5f32`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation, possibly multi-char (`::`, `==`, `[`).
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text for `Ident`/`Int`/`Float`/`Punct`; empty for literals
    /// whose body the rules never inspect.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` if this token is the given punctuation.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// `true` if this token is the given identifier.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

/// Multi-char operators, longest first so greedy matching is correct.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`, discarding comments and whitespace.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();

    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (covers `//`, `///`, `//!`).
        if c == '/' && at(i + 1) == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested. A `"` or `'` inside is comment text, so
        // the depth scan deliberately ignores string delimiters — but a
        // `/*` or `*/` inside a comment still nests/closes, exactly as
        // rustc lexes it.
        if c == '/' && at(i + 1) == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            scan_quoted(&chars, &mut i, &mut line, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let start_line = line;
            let n1 = at(i + 1);
            let n2 = at(i + 2);
            if n1 == '\\'
                || (!is_ident_start(n1) && n1 != '\0')
                || (is_ident_start(n1) && n2 == '\'')
            {
                // Char literal: consume to the closing quote.
                i += 1;
                scan_quoted(&chars, &mut i, &mut line, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: start_line,
                });
            } else {
                // Lifetime: `'` followed by an identifier.
                i += 1;
                let name_start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[name_start..i].iter().collect(),
                    line: start_line,
                });
            }
            continue;
        }
        // Identifier, keyword, or raw/byte string prefix.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let next = at(i);
            let raw_prefix =
                matches!(text.as_str(), "r" | "br" | "rb") && (next == '"' || next == '#');
            let byte_str = text == "b" && next == '"';
            let byte_char = text == "b" && next == '\'';
            let start_line = line;
            if raw_prefix && lex_raw_string(&chars, &mut i, &mut line) {
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
                continue;
            }
            if byte_str {
                // `b"..."`: same body rules as a plain string.
                i += 1;
                scan_quoted(&chars, &mut i, &mut line, '"');
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
                continue;
            }
            if byte_char {
                i += 1; // the quote
                scan_quoted(&chars, &mut i, &mut line, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: start_line,
                });
                continue;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: start_line,
            });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            let start_line = line;
            let mut is_float = false;
            if c == '0' && matches!(at(i + 1), 'x' | 'o' | 'b') {
                i += 2;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                // Fractional part — but not a range (`0..n`), not a method
                // call on a literal (`1.max(2)`), not a tuple field.
                if at(i) == '.' && at(i + 1) != '.' && !is_ident_start(at(i + 1)) {
                    is_float = true;
                    i += 1;
                    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Exponent.
                if matches!(at(i), 'e' | 'E')
                    && (at(i + 1).is_ascii_digit()
                        || (matches!(at(i + 1), '+' | '-') && at(i + 2).is_ascii_digit()))
                {
                    is_float = true;
                    i += 1;
                    if matches!(at(i), '+' | '-') {
                        i += 1;
                    }
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Type suffix (`u32`, `f64`, …).
                if is_ident_start(at(i)) {
                    if at(i) == 'f' {
                        is_float = true;
                    }
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                }
            }
            toks.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: chars[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Punctuation: longest operator first.
        let mut matched = false;
        for op in OPERATORS {
            let olen = op.chars().count();
            if chars.len() - i >= olen && chars[i..i + olen].iter().collect::<String>() == **op {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                i += olen;
                matched = true;
                break;
            }
        }
        if !matched {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    toks
}

/// Consumes a quoted body up to (and including) the unescaped `close`
/// delimiter, counting newlines — including a newline that immediately
/// follows a `\` escape (the line-continuation form `"\⏎   …"`), which a
/// naive `i += 2` skip would miss and silently desynchronize every line
/// number after it.
fn scan_quoted(chars: &[char], i: &mut usize, line: &mut u32, close: char) {
    while *i < chars.len() {
        let c = chars[*i];
        if c == '\\' {
            if chars.get(*i + 1) == Some(&'\n') {
                *line += 1;
            }
            *i += 2;
            continue;
        }
        if c == close {
            *i += 1;
            return;
        }
        if c == '\n' {
            *line += 1;
        }
        *i += 1;
    }
}

/// Consumes a raw string starting at `chars[*i]` (which is `"` or `#`).
/// Returns `false` (consuming nothing) if this is not actually a raw
/// string opener, e.g. `r#ident` raw identifiers.
fn lex_raw_string(chars: &[char], i: &mut usize, line: &mut u32) -> bool {
    let mut j = *i;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return false;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hashes.
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                *i = k;
                return true;
            }
        }
        j += 1;
    }
    *i = j;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let toks = kinds("a // unwrap()\n/* HashMap */ b \"panic!\" 'c'");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "a"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r####"let x = r#"He said "hi""#; let y = b"bytes"; let z = b'\n';"####);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn byte_string_bodies_are_opaque() {
        // Braces, quotes, and rule-relevant identifiers inside a byte
        // string must not surface as tokens.
        let toks = kinds(r#"let x = b"} unwrap() { \" HashMap"; y"#);
        assert!(!toks.iter().any(|(_, t)| t == "}" || t == "{"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "unwrap" || t == "HashMap")));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "y"));
    }

    #[test]
    fn raw_byte_string_bodies_are_opaque() {
        let toks = kinds(r####"let x = br#"quote " hash # brace } panic!"#; z"####);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(!toks.iter().any(|(_, t)| t == "}"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "panic"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "z"));
    }

    #[test]
    fn nested_block_comments_with_string_delimiters() {
        // The inner `/*` nests even though it sits next to an unpaired
        // quote; the comment only ends at the second `*/`.
        let toks = kinds("/* outer \" /* inner ' */ still \" comment */ a");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a"]);
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers_honest() {
        // `"\⏎  x"` is a line continuation: the `\` escape consumes the
        // newline, which must still bump the line counter.
        let toks = lex("let a = \"x\\\n  y\";\nlet b = 1;");
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b lexed");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn floats_vs_ints_vs_ranges() {
        let toks = kinds("1.5 2e9 3f64 7 0xFF 0..4 1.max(2)");
        let floats = toks.iter().filter(|(k, _)| *k == TokKind::Float).count();
        let ints = toks.iter().filter(|(k, _)| *k == TokKind::Int).count();
        assert_eq!(floats, 3, "{toks:?}");
        // 7, 0xFF, 0, 4, 1, 2
        assert_eq!(ints, 6, "{toks:?}");
    }

    #[test]
    fn multichar_operators_group() {
        let toks = kinds("a == b != c :: d ..= e");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "..="]);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn string_bodies_are_single_opaque_tokens() {
        let src = r####"b"a}b" br#"c"d"# "e{f""####;
        let toks = lex(src);
        assert_eq!(toks.len(), 3, "{toks:?}");
        assert!(toks.iter().all(|t| t.kind == TokKind::Str), "{toks:?}");
    }
}
