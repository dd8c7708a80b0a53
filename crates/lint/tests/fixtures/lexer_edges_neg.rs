// sfqlint fixture: lexer edge cases — raw identifiers, multi-char char
// escapes, nested block comments. Must stay clean under every rule: the
// commented-out `println!` below must not trip I1, and raw identifiers
// must not be misread as keywords.

pub mod r#impl {
    pub fn r#match(input: char) -> char {
        match input {
            '\x41' => '\u{1F600}',
            _ => '\n',
        }
    }
}

pub fn describe(r#type: &str) -> usize {
    /* outer /* nested */ still a comment: println!("{}", r#type) */
    r#type.len()
}
