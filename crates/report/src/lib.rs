//! Reporting support for the DATE 2020 reproduction: ASCII tables and the
//! paper's published reference values (Tables I–III), so every harness can
//! print "ours vs. paper" side by side.
//!
//! # Example
//!
//! ```
//! use sfq_report::table::Table;
//!
//! let mut t = Table::new(vec!["circuit", "gates"]);
//! t.add_row(vec!["KSA4".into(), "93".into()]);
//! let text = t.to_string();
//! assert!(text.contains("KSA4"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures and index through `.get()` or
// iterators, never abort the process on them; tests keep the ergonomic forms.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod convergence;
pub mod paper;
pub mod service;
pub mod table;
