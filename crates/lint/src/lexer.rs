//! A lightweight Rust lexer — just enough tokenization for rule
//! matching.
//!
//! The scanner's rules operate on identifier and punctuation tokens
//! only; everything that could *contain* rule-triggering text without
//! *being* code is consumed and discarded here:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`, including doc block comments);
//! * string literals with escapes, byte strings, and raw strings of any
//!   hash depth (`r"…"`, `r#"…"#`, `br##"…"##`) — a raw string holding
//!   `"HashMap"` must not trip the hash-collection rule;
//! * character literals, disambiguated from lifetimes (`'a'` vs `'a`);
//! * numeric literals (approximately — enough not to mis-tokenize
//!   suffixed or float forms into identifiers).
//!
//! A post-pass ([`mark_test_gated`]) marks every token inside a
//! `#[cfg(test)]`- or `#[test]`-attributed item as *gated*: rules skip
//! gated tokens, because test code is allowed to panic, to iterate hash
//! maps, and generally to break the production invariants.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (including raw identifiers, with the
    /// `r#` prefix stripped).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Identifier or punctuation.
    pub kind: TokKind,
    /// The token text (one character for punctuation).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// True if the token sits inside a `#[cfg(test)]`/`#[test]` item.
    pub gated: bool,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Cursor {
        Cursor {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One `//` line comment (`///` and `//!` included): its text from the
/// first slash to the end of the line, and that slash's position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters) of the first `/`.
    pub col: u32,
    /// The comment text, slashes included.
    pub text: String,
}

/// Tokenize Rust source into identifier and punctuation tokens.
/// Comments, strings, char literals, lifetimes, and numbers are
/// consumed but produce no tokens.
pub fn lex(src: &str) -> Vec<Tok> {
    lex_with_comments(src).0
}

/// Every `//` line comment in the source — the text rules that read
/// comments (L040) scan, with string literals already excluded.
pub fn line_comments(src: &str) -> Vec<Comment> {
    lex_with_comments(src).1
}

fn lex_with_comments(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    while let Some(c) = cur.peek() {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('/') {
            let (line, col) = (cur.line, cur.col);
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            comments.push(Comment { line, col, text });
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            consume_block_comment(&mut cur);
            continue;
        }
        if c == '"' {
            consume_string(&mut cur);
            continue;
        }
        if c == '\'' {
            consume_quote(&mut cur);
            continue;
        }
        if c.is_ascii_digit() {
            consume_number(&mut cur);
            continue;
        }
        if is_ident_start(c) {
            let (line, col) = (cur.line, cur.col);
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if is_ident_continue(c) {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            // String-literal prefixes: the "identifier" was actually the
            // start of a (raw/byte) string literal.
            match (text.as_str(), cur.peek()) {
                ("r" | "br", Some('"')) => {
                    consume_raw_string(&mut cur, 0);
                    continue;
                }
                ("r" | "br", Some('#')) => {
                    let mut hashes = 0usize;
                    while cur.peek_at(hashes) == Some('#') {
                        hashes += 1;
                    }
                    if cur.peek_at(hashes) == Some('"') {
                        for _ in 0..hashes {
                            cur.bump();
                        }
                        consume_raw_string(&mut cur, hashes);
                        continue;
                    }
                    // `r#ident`: a raw identifier — consume the hash and
                    // re-lex the identifier proper.
                    if text == "r" && hashes == 1 {
                        cur.bump(); // '#'
                        let mut raw = String::new();
                        while let Some(c) = cur.peek() {
                            if is_ident_continue(c) {
                                raw.push(c);
                                cur.bump();
                            } else {
                                break;
                            }
                        }
                        toks.push(Tok {
                            kind: TokKind::Ident,
                            text: raw,
                            line,
                            col,
                            gated: false,
                        });
                        continue;
                    }
                }
                ("b", Some('"')) => {
                    consume_string(&mut cur);
                    continue;
                }
                _ => {}
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
                gated: false,
            });
            continue;
        }
        let (line, col) = (cur.line, cur.col);
        cur.bump();
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
            gated: false,
        });
    }
    (toks, comments)
}

/// `/* … */` with nesting, per the Rust reference.
fn consume_block_comment(cur: &mut Cursor) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(), cur.peek_at(1)) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: tolerate at EOF
        }
    }
}

/// A `"…"` string with `\` escapes (the opening quote not yet consumed).
fn consume_string(cur: &mut Cursor) {
    cur.bump(); // opening '"'
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // whatever is escaped, including '"' and '\\'
            }
            '"' => return,
            _ => {}
        }
    }
}

/// A raw string body: terminated by `"` followed by `hashes` `#`s.
/// The cursor sits on the opening `"`.
fn consume_raw_string(cur: &mut Cursor, hashes: usize) {
    cur.bump(); // opening '"'
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut n = 0usize;
            while n < hashes && cur.peek() == Some('#') {
                cur.bump();
                n += 1;
            }
            if n == hashes {
                return;
            }
        }
    }
}

/// A `'` is either a char literal or a lifetime. `'x'` (including
/// escapes and multi-char escapes like `'\n'`, `'\u{1F600}'`) is a
/// literal; `'a` followed by anything but a closing quote is a
/// lifetime, which produces no token.
fn consume_quote(cur: &mut Cursor) {
    cur.bump(); // the quote
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: consume until the closing quote.
            cur.bump();
            cur.bump(); // the escape head (n, t, ', u, x, …)
            while let Some(c) = cur.bump() {
                if c == '\'' {
                    break;
                }
            }
        }
        Some(c) if is_ident_continue(c) => {
            if cur.peek_at(1) == Some('\'') {
                cur.bump(); // the char
                cur.bump(); // closing quote
            } else {
                // Lifetime: consume the label.
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        Some(_) => {
            // Punctuation char literal like '(' or '}'.
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
        }
        None => {}
    }
}

/// A numeric literal, approximately: digits, `_`, type-suffix letters,
/// and a decimal point only when a digit follows (so `0..10` keeps its
/// range tokens).
fn consume_number(cur: &mut Cursor) {
    while let Some(c) = cur.peek() {
        let dotted = c == '.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit());
        if c.is_alphanumeric() || c == '_' || dotted {
            cur.bump();
        } else {
            break;
        }
    }
}

/// Mark every token belonging to a `#[cfg(test)]`- or
/// `#[test]`-attributed item (through the end of its `{ … }` body, or
/// its `;`) as gated. `#[cfg(not(test))]` and other attributes are left
/// alone.
pub fn mark_test_gated(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let Some(close) = matching(toks, i + 1, "[", "]") else {
                return;
            };
            if attr_gates_tests(&toks[i + 2..close]) {
                // Skip any further attributes stacked on the same item.
                let mut j = close + 1;
                while toks.get(j).is_some_and(|t| t.text == "#")
                    && toks.get(j + 1).is_some_and(|t| t.text == "[")
                {
                    match matching(toks, j + 1, "[", "]") {
                        Some(c) => j = c + 1,
                        None => return,
                    }
                }
                // The item body: everything to the matching `}` of the
                // first top-level brace (or a `;` for body-less items).
                let mut end = toks.len() - 1;
                let mut k = j;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => {
                            end = matching(toks, k, "{", "}").unwrap_or(toks.len() - 1);
                            break;
                        }
                        ";" => {
                            end = k;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                for t in &mut toks[i..=end] {
                    t.gated = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

/// Does this attribute body (`cfg(test)`, `test`, `cfg(all(test, …))`)
/// gate test-only code? `not` anywhere disqualifies — `cfg(not(test))`
/// marks *production* code.
fn attr_gates_tests(body: &[Tok]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents == ["test"] {
        return true;
    }
    idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not")
}

/// Index of the token matching an opener at `open` (which must hold
/// `open_text`), honoring nesting.
fn matching(toks: &[Tok], open: usize, open_text: &str, close_text: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Lex and gate in one call — what the rule pass consumes.
pub fn lex_gated(src: &str) -> Vec<Tok> {
    let mut toks = lex(src);
    mark_test_gated(&mut toks);
    toks
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
    fn strings_and_comments_produce_no_tokens() {
        let src = "// HashMap\nlet x = \"HashMap\"; /* HashMap */";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn raw_strings_of_any_hash_depth() {
        let src = r###"let s = r#"HashMap "quoted" inside"#; let t = 1;"###;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* HashMap */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // Lifetimes (`'a`) are consumed whole — no `a` ident — while
        // char literals, escaped or punctuation, are skipped entirely.
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }";
        assert_eq!(
            idents(src),
            vec!["fn", "f", "x", "str", "let", "c", "let", "d"]
        );
    }

    #[test]
    fn lifetimes_are_swallowed() {
        let src = "impl<'net> Foo<'net> { fn g(&'net self) {} }";
        assert_eq!(idents(src), vec!["impl", "Foo", "fn", "g", "self"]);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_mod_is_gated() {
        let src =
            "use a::B;\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\nfn live() {}";
        let toks = lex_gated(src);
        let hash: Vec<&Tok> = toks.iter().filter(|t| t.text == "HashMap").collect();
        assert_eq!(hash.len(), 1);
        assert!(hash[0].gated);
        let live = toks.iter().find(|t| t.text == "live").unwrap();
        assert!(!live.gated);
    }

    #[test]
    fn test_attribute_gates_one_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.ok(); }";
        let toks = lex_gated(src);
        assert!(toks.iter().find(|t| t.text == "unwrap").unwrap().gated);
        assert!(!toks.iter().find(|t| t.text == "ok").unwrap().gated);
    }

    #[test]
    fn cfg_not_test_is_not_gated() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let toks = lex_gated(src);
        assert!(!toks.iter().find(|t| t.text == "unwrap").unwrap().gated);
    }

    #[test]
    fn stacked_attributes_stay_gated() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() { a.unwrap(); } }";
        let toks = lex_gated(src);
        assert!(toks.iter().find(|t| t.text == "unwrap").unwrap().gated);
    }

    #[test]
    fn raw_identifiers_lex_as_their_name() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "fn"]);
    }

    #[test]
    fn byte_and_prefixed_strings_are_skipped() {
        assert_eq!(
            idents("let x = b\"HashMap\"; let y = br#\"HashSet\"#;"),
            vec!["let", "x", "let", "y"]
        );
    }
}
