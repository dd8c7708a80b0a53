//! Lint targets: one source file with the path facts the rules scope by.

/// What kind of source file a path denotes; rules scope by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (the default).
    Lib,
    /// A binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// An example under `examples/`.
    Example,
    /// Integration tests under `tests/`.
    Test,
}

/// Classifies a repo-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    if path.contains("/tests/") || path.starts_with("tests/") {
        FileClass::Test
    } else if path.contains("/examples/") || path.starts_with("examples/") {
        FileClass::Example
    } else if path.contains("/src/bin/")
        || path.starts_with("src/bin/")
        || path.ends_with("src/main.rs")
    {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// Extracts the crate name from a repo-relative path: `crates/<name>/…`
/// maps to `<name>`, everything else to the root facade crate.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("current-recycling")
}

/// One file to lint, with everything the rules need to scope themselves.
#[derive(Debug, Clone, Copy)]
pub struct FileTarget<'a> {
    /// Repo-relative path with forward slashes.
    pub path: &'a str,
    /// Source text.
    pub src: &'a str,
    /// True when the file was named explicitly on the command line: crate
    /// and class scoping are bypassed (the file is treated as library code
    /// of an in-scope crate) so rule fixtures exercise every rule
    /// regardless of where they live. `#[cfg(test)]` masking still applies.
    pub explicit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/solver.rs"), FileClass::Lib);
        assert_eq!(classify("crates/core/tests/x.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/src/bin/table1.rs"), FileClass::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("src/bin/sfqpart.rs"), FileClass::Bin);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "current-recycling");
        assert_eq!(crate_of("examples/quickstart.rs"), "current-recycling");
    }
}
