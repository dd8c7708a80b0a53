//! Tokenizer for the DEF subset.

use crate::error::DefError;

/// The kind of a DEF token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    /// Identifier, keyword, or number (DEF keywords are plain words).
    Word,
    /// Double-quoted string; its text excludes the quotes.
    Quoted,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `-`
    Dash,
    /// `+`
    Plus,
    /// `;`
    Semi,
}

/// A token and the byte range `start..end` of its text in the source
/// (quotes excluded). The token borrows nothing and owns nothing: a DEF
/// file lexes to one 12-byte entry per token, and [`position`] recovers a
/// token's line and column when an error needs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Spanned {
    pub token: Token,
    start: u32,
    end: u32,
}

impl Spanned {
    /// The token's text in `source`, the string it was lexed from.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        source
            .get(self.start as usize..self.end as usize)
            .unwrap_or_default()
    }

    /// The byte offset the token starts at (its opening quote for
    /// [`Token::Quoted`]).
    pub fn offset(&self) -> usize {
        match self.token {
            Token::Quoted => self.start as usize - 1,
            _ => self.start as usize,
        }
    }
}

/// The 1-based line and column of byte `offset` in `source`; columns
/// count bytes from the start of the line, as [`str::lines`] splits it.
pub(crate) fn position(source: &str, offset: usize) -> (usize, usize) {
    let before = source.get(..offset).unwrap_or(source);
    let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
    (
        before.matches('\n').count() + 1,
        before.len() - line_start + 1,
    )
}

/// Tokenizes DEF text; `#` starts a comment running to end-of-line.
/// Indices are byte offsets but always advance by whole characters, so
/// non-ASCII input (invalid in DEF proper) tokenizes into words rather than
/// breaking string slicing.
///
/// `max_tokens` caps the token stream; the token that crosses the cap is
/// reported as a positioned [`DefError`]. This bounds the memory an
/// attacker-controlled input can make the lexer allocate. Token offsets are
/// `u32`, so a text of 4 GiB or more is refused before lexing.
pub(crate) fn tokenize(text: &str, max_tokens: usize) -> Result<Vec<Spanned>, DefError> {
    if u32::try_from(text.len()).is_err() {
        return Err(DefError::new(
            1,
            1,
            format!(
                "input of {} bytes exceeds the lexer's 4 GiB range",
                text.len()
            ),
        ));
    }
    let mut out = Vec::new();
    let mut base = 0usize;
    // `split_inclusive` keeps each line's terminator, so `base` tracks its
    // offset in `text`; the content is what `str::lines` would yield.
    for (lineno, raw) in text.split_inclusive('\n').enumerate() {
        let line_no = lineno + 1;
        let line = match raw.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => raw,
        };
        let line_base = base;
        base += raw.len();
        // In range: the whole text is under 4 GiB.
        let span = |token: Token, start: usize, end: usize| Spanned {
            token,
            start: (line_base + start) as u32,
            end: (line_base + end) as u32,
        };
        let mut i = 0usize;
        while i < line.len() {
            let Some(c) = line[i..].chars().next() else {
                break; // i == line.len() cannot happen, but never panic on input
            };
            let col = i + 1;
            if out.len() >= max_tokens && !c.is_whitespace() && c != '#' {
                return Err(DefError::new(
                    line_no,
                    col,
                    format!("token limit exceeded ({max_tokens} tokens)"),
                ));
            }
            match c {
                '#' => break, // comment
                c if c.is_whitespace() => {
                    i += c.len_utf8();
                }
                '(' | ')' | ';' | '+' => {
                    let token = match c {
                        '(' => Token::LParen,
                        ')' => Token::RParen,
                        ';' => Token::Semi,
                        _ => Token::Plus,
                    };
                    out.push(span(token, i, i + 1));
                    i += 1;
                }
                '"' => {
                    let start = i + 1;
                    match line[start..].find('"') {
                        Some(rel) => {
                            out.push(span(Token::Quoted, start, start + rel));
                            i = start + rel + 1;
                        }
                        None => {
                            return Err(DefError::new(line_no, col, "unterminated string"));
                        }
                    }
                }
                '-' => {
                    // A lone dash is the item marker; a dash glued to more
                    // characters (e.g. negative coordinates) is part of a word.
                    let next = line[i + 1..].chars().next();
                    if next.is_none_or(|c| c.is_whitespace()) {
                        out.push(span(Token::Dash, i, i + 1));
                        i += 1;
                    } else {
                        let end = word_end(line, i);
                        out.push(span(Token::Word, i, end));
                        i = end;
                    }
                }
                _ => {
                    let end = word_end(line, i);
                    out.push(span(Token::Word, i, end));
                    i = end;
                }
            }
        }
    }
    Ok(out)
}

/// The end of the word starting at byte `start` of `line`.
fn word_end(line: &str, start: usize) -> usize {
    let mut j = start;
    for c in line[start..].chars() {
        if c.is_whitespace() || matches!(c, '(' | ')' | ';' | '"' | '#' | '+') {
            break;
        }
        j += c.len_utf8();
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<(Token, &str)> {
        words2(text, usize::MAX)
    }

    fn words2(text: &str, cap: usize) -> Vec<(Token, &str)> {
        tokenize(text, cap)
            .unwrap()
            .into_iter()
            .map(|s| (s.token, s.text(text)))
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            words("DESIGN top ;"),
            vec![
                (Token::Word, "DESIGN"),
                (Token::Word, "top"),
                (Token::Semi, ";")
            ]
        );
    }

    #[test]
    fn component_line() {
        let toks = words("- u1 AND2 + PLACED ( 100 200 ) N ;");
        assert_eq!(toks[0].0, Token::Dash);
        assert_eq!(toks[1], (Token::Word, "u1"));
        assert_eq!(toks[3].0, Token::Plus);
        assert!(toks.iter().any(|t| t.0 == Token::LParen));
        assert_eq!(toks.last().unwrap().0, Token::Semi);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            words("VERSION 5.8 ; # a comment ; ( )"),
            vec![
                (Token::Word, "VERSION"),
                (Token::Word, "5.8"),
                (Token::Semi, ";")
            ]
        );
    }

    #[test]
    fn quoted_strings() {
        assert_eq!(
            words("DIVIDERCHAR \"/\" ;"),
            vec![
                (Token::Word, "DIVIDERCHAR"),
                (Token::Quoted, "/"),
                (Token::Semi, ";")
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("BUSBITCHARS \"[]", usize::MAX).unwrap_err();
        assert!(err.message().contains("unterminated"));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn token_cap_errors_with_position() {
        let err = tokenize("a b c\nd e f", 4).unwrap_err();
        assert!(err.message().contains("token limit"), "{err}");
        assert_eq!((err.line(), err.column()), (2, 3));
    }

    #[test]
    fn token_cap_ignores_trailing_whitespace_and_comments() {
        // Exactly at the cap with only whitespace/comments after: fine.
        assert_eq!(words2("a b  # trailing", 2).len(), 2);
    }

    #[test]
    fn negative_numbers_are_words() {
        assert_eq!(
            words("( -100 200 )"),
            vec![
                (Token::LParen, "("),
                (Token::Word, "-100"),
                (Token::Word, "200"),
                (Token::RParen, ")")
            ]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let text = "a b\r\n  \"q\" c\nd";
        let toks = tokenize(text, usize::MAX).unwrap();
        let at: Vec<(usize, usize)> = toks.iter().map(|t| position(text, t.offset())).collect();
        assert_eq!(at, vec![(1, 1), (1, 3), (2, 3), (2, 7), (3, 1)]);
        assert_eq!(toks[2].text(text), "q");
    }
}
