//! A lightweight token-level Rust lexer.
//!
//! `sfqlint` cannot depend on `syn` (the vendored crates are offline stubs),
//! so the rules run over a raw token stream instead of an AST. The lexer
//! understands everything needed to *not* be fooled by surface syntax:
//! nested block comments, all string flavors (including raw strings with
//! hash fences and byte strings), char literals vs. lifetimes, numeric
//! literals with suffixes/exponents, and multi-character operators.
//!
//! Comments are kept in the stream; the item scanner and the `unsafe`
//! census skip them via [`Token::is_comment`].

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#match`).
    Ident,
    /// Integer literal (`42`, `0xff_u32`).
    Int,
    /// Float literal (`4.0`, `1e-4`, `0.5f64`).
    Float,
    /// String literal of any flavor (`"x"`, `r#"x"#`, `b"x"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// `// ...` comment (text includes the slashes).
    LineComment,
    /// `/* ... */` comment, nesting respected.
    BlockComment,
    /// Operator or delimiter; multi-char operators (`==`, `::`, `->`)
    /// arrive as one token.
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The verbatim source text of the token.
    pub text: &'a str,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based source column (in bytes) of the token's first character.
    pub col: u32,
}

impl Token<'_> {
    /// True for line and block comments.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True when the token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True when the token is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Multi-character operators, longest first so greedy matching is correct.
const OPERATORS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn rest(&self) -> &'a str {
        self.src.get(self.pos..).unwrap_or("")
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.rest().chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes characters while `pred` holds.
    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Never fails: unrecognized characters
/// become single-character [`TokenKind::Punct`] tokens, so the rules degrade
/// gracefully on syntactically broken input instead of missing whole files.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut cur = Cursor::new(src);
    let mut tokens = Vec::new();
    while let Some(c) = cur.peek() {
        let start = cur.pos;
        let line = cur.line;
        let col = cur.col;
        let kind = match c {
            c if c.is_whitespace() => {
                cur.eat_while(char::is_whitespace);
                continue;
            }
            '/' if cur.peek_at(1) == Some('/') => {
                cur.eat_while(|c| c != '\n');
                TokenKind::LineComment
            }
            '/' if cur.peek_at(1) == Some('*') => {
                lex_block_comment(&mut cur);
                TokenKind::BlockComment
            }
            'r' if is_raw_string_head(&mut cur) => {
                lex_raw_string(&mut cur);
                TokenKind::Str
            }
            'b' if cur.peek_at(1) == Some('"') => {
                cur.bump();
                lex_string(&mut cur);
                TokenKind::Str
            }
            'b' if cur.peek_at(1) == Some('\'') => {
                cur.bump();
                lex_char(&mut cur);
                TokenKind::Char
            }
            'b' if cur.peek_at(1) == Some('r') && is_raw_at(&cur, 1) => {
                cur.bump();
                lex_raw_string(&mut cur);
                TokenKind::Str
            }
            // Raw identifier `r#ident`: one Ident token whose text keeps the
            // `r#` prefix, so `r#match`/`r#unsafe` never masquerade as the
            // keywords the rules look for. Checked after the raw-string
            // head (`r#"` has a quote where the identifier would start).
            'r' if cur.peek_at(1) == Some('#') && cur.peek_at(2).is_some_and(is_ident_start) => {
                cur.bump();
                cur.bump();
                cur.eat_while(is_ident_continue);
                TokenKind::Ident
            }
            c if is_ident_start(c) => {
                cur.eat_while(is_ident_continue);
                TokenKind::Ident
            }
            c if c.is_ascii_digit() => lex_number(&mut cur),
            '"' => {
                lex_string(&mut cur);
                TokenKind::Str
            }
            '\'' => lex_quote(&mut cur),
            _ => {
                lex_punct(&mut cur);
                TokenKind::Punct
            }
        };
        let text = src.get(start..cur.pos).unwrap_or("");
        tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
    tokens
}

/// At an `r`: is this the head of a raw string (`r"`, `r#`)? Leaves the
/// cursor untouched; the caller dispatches.
fn is_raw_string_head(cur: &mut Cursor<'_>) -> bool {
    is_raw_at(cur, 0)
}

/// Looks past `offset` chars (expecting an `r` there) for `#*"`.
fn is_raw_at(cur: &Cursor<'_>, offset: usize) -> bool {
    let mut n = offset + 1;
    loop {
        match cur.peek_at(n) {
            Some('#') => n += 1,
            Some('"') => return true,
            _ => return false,
        }
    }
}

/// Consumes `/* ... */` with nesting; tolerates EOF inside the comment.
fn lex_block_comment(cur: &mut Cursor<'_>) {
    cur.bump();
    cur.bump();
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
            (None, _) => break,
        }
    }
}

/// Consumes a `"..."` string with escapes; tolerates EOF.
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes `r#*"..."#*` (cursor on the `r`); tolerates EOF.
fn lex_raw_string(cur: &mut Cursor<'_>) {
    cur.bump(); // r
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    cur.bump(); // opening quote
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            for _ in 0..hashes {
                if cur.peek() != Some('#') {
                    continue 'outer;
                }
                cur.bump();
            }
            break;
        }
    }
}

/// Consumes a `'x'` char literal (cursor on the opening quote), including
/// multi-character escapes (`'\x41'`, `'\u{1F600}'`); tolerates EOF and
/// never leaves a stray closing quote behind to start a bogus lifetime.
fn lex_char(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    match cur.peek() {
        Some('\\') => {
            cur.bump(); // backslash
            if cur.peek() == Some('u') && cur.peek_at(1) == Some('{') {
                // `\u{…}`: consume through the closing brace, stopping at a
                // newline so broken input cannot swallow the rest of the file.
                cur.bump();
                cur.bump();
                cur.eat_while(|c| c != '}' && c != '\'' && c != '\n');
                if cur.peek() == Some('}') {
                    cur.bump();
                }
            } else {
                // Single-char escape (`\n`, `\'`) or the head of `\x41`;
                // any following hex digits belong to the literal.
                cur.bump();
                cur.eat_while(|c| c.is_ascii_hexdigit());
            }
        }
        Some(_) => {
            cur.bump();
        }
        None => return,
    }
    if cur.peek() == Some('\'') {
        cur.bump();
    }
}

/// At a `'`: either a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    if cur.peek_at(1) == Some('\\') {
        lex_char(cur);
        return TokenKind::Char;
    }
    // 'X' (any single char then a quote) is a char literal; otherwise it is
    // a lifetime like 'a or 'static.
    if cur.peek_at(1).is_some() && cur.peek_at(2) == Some('\'') {
        lex_char(cur);
        return TokenKind::Char;
    }
    cur.bump(); // quote
    cur.eat_while(is_ident_continue);
    TokenKind::Lifetime
}

/// Consumes a numeric literal, deciding int vs. float.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    if cur.peek() == Some('0') && matches!(cur.peek_at(1), Some('x' | 'o' | 'b')) {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
    } else {
        cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        if cur.peek() == Some('.') {
            match cur.peek_at(1) {
                // `1..n` is a range, `1.method()` a call; neither is a float.
                Some('.') => {}
                Some(c) if is_ident_start(c) => {}
                // `1.0` and trailing-dot floats like `1.`.
                _ => {
                    float = true;
                    cur.bump();
                    cur.eat_while(|c| c.is_ascii_digit() || c == '_');
                }
            }
        }
        if matches!(cur.peek(), Some('e' | 'E')) {
            let exp_digit = match cur.peek_at(1) {
                Some('+' | '-') => cur.peek_at(2).is_some_and(|c| c.is_ascii_digit()),
                Some(c) => c.is_ascii_digit(),
                None => false,
            };
            if exp_digit {
                float = true;
                cur.bump();
                if matches!(cur.peek(), Some('+' | '-')) {
                    cur.bump();
                }
                cur.eat_while(|c| c.is_ascii_digit() || c == '_');
            }
        }
    }
    // Type suffix (`u32`, `f64`): an `f` suffix forces float.
    if cur.peek().is_some_and(is_ident_start) {
        if cur.peek() == Some('f') {
            float = true;
        }
        cur.eat_while(is_ident_continue);
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

/// Consumes one operator, greedily matching the multi-char set first.
fn lex_punct(cur: &mut Cursor<'_>) {
    let rest = cur.rest();
    for op in OPERATORS {
        if rest.starts_with(op) {
            for _ in 0..op.chars().count() {
                cur.bump();
            }
            return;
        }
    }
    cur.bump();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn floats_vs_ints_vs_ranges() {
        assert_eq!(
            kinds("4.0 1e-4 0.5f64 42 0xff 1..3 2_000"),
            vec![
                (TokenKind::Float, "4.0"),
                (TokenKind::Float, "1e-4"),
                (TokenKind::Float, "0.5f64"),
                (TokenKind::Int, "42"),
                (TokenKind::Int, "0xff"),
                (TokenKind::Int, "1"),
                (TokenKind::Punct, ".."),
                (TokenKind::Int, "3"),
                (TokenKind::Int, "2_000"),
            ]
        );
    }

    #[test]
    fn hex_exponent_is_not_a_float() {
        assert_eq!(kinds("0x1e5"), vec![(TokenKind::Int, "0x1e5")]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds("let x = \"HashMap == 4.0\"; let y = r#\"thread::spawn\"#;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("HashMap")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("spawn")));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Float));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "HashMap"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(
            kinds("'a 'static 'x' '\\n'"),
            vec![
                (TokenKind::Lifetime, "'a"),
                (TokenKind::Lifetime, "'static"),
                (TokenKind::Char, "'x'"),
                (TokenKind::Char, "'\\n'"),
            ]
        );
    }

    #[test]
    fn operators_combine() {
        assert_eq!(
            kinds("a == b != c :: d -> e => f"),
            vec![
                (TokenKind::Ident, "a"),
                (TokenKind::Punct, "=="),
                (TokenKind::Ident, "b"),
                (TokenKind::Punct, "!="),
                (TokenKind::Ident, "c"),
                (TokenKind::Punct, "::"),
                (TokenKind::Ident, "d"),
                (TokenKind::Punct, "->"),
                (TokenKind::Ident, "e"),
                (TokenKind::Punct, "=>"),
                (TokenKind::Ident, "f"),
            ]
        );
    }

    #[test]
    fn raw_identifiers_keep_their_prefix() {
        // Regression: `r#thread` used to lex as `r` + `#` + `thread`, so a
        // raw identifier could impersonate a keyword or a `thread::spawn`
        // pattern and trip keyword-driven rules.
        assert_eq!(
            kinds("let r#thread = 1; r#unsafe + r#match"),
            vec![
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "r#thread"),
                (TokenKind::Punct, "="),
                (TokenKind::Int, "1"),
                (TokenKind::Punct, ";"),
                (TokenKind::Ident, "r#unsafe"),
                (TokenKind::Punct, "+"),
                (TokenKind::Ident, "r#match"),
            ]
        );
    }

    #[test]
    fn raw_identifier_does_not_shadow_raw_strings() {
        let toks = kinds("r#\"still a string\"# r#ident");
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "r#ident"));
    }

    #[test]
    fn multi_char_escapes_stay_one_char_literal() {
        // Regression: `'\x41'` used to end after two escape characters,
        // leaving `41` and a stray quote behind as garbage tokens.
        assert_eq!(
            kinds(r"'\x41' '\u{1F600}' b'\x00' '\n'"),
            vec![
                (TokenKind::Char, r"'\x41'"),
                (TokenKind::Char, r"'\u{1F600}'"),
                (TokenKind::Char, r"b'\x00'"),
                (TokenKind::Char, r"'\n'"),
            ]
        );
    }

    #[test]
    fn broken_char_escape_does_not_swallow_the_line() {
        // Unterminated `\u{` stops at the newline instead of eating the
        // rest of the file.
        let toks = lex("let a = '\\u{12\nnext");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "next"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
