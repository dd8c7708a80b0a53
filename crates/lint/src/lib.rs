//! `sfqlint` — in-repo static analysis for the current-recycling workspace.
//!
//! The reproduction's central guarantee is *bit-identical partitions whether
//! restarts run serially or in parallel*. The toolchain guards part of it:
//! the workspace `clippy.toml` bans hashed containers, wall clocks and
//! thread creation outside the items that `#[expect]` them, and CI denies
//! `clippy::float_cmp` and `clippy::undocumented_unsafe_blocks` in runtime
//! code. `sfqlint` checks the eight invariants that `rustc` and `clippy`
//! cannot express: properties of call chains, lock orders and crate-scoped
//! vocabularies.
//!
//! Files are scanned into functions with call sites ([`items`]) and
//! resolved into a symbol + call graph with a conservative ⊤ node
//! ([`graph`]). Three rule families run over that graph:
//!
//! * [`rules_graph`]: A1 hot-path allocation-freedom and I1 I/O
//!   confinement to the telemetry sinks;
//! * [`rules_concurrency`]: L1 lock-order acyclicity with per-crate
//!   declared orders, L2 no-blocking-under-lock, and S1
//!   async-signal-safety plus a registered-justification audit of every
//!   `unsafe` block;
//! * [`rules_value`]: P2 panic-freedom of the configured kernel/settle
//!   roots, N1 confinement of NaN/Inf-capable operations to the
//!   divergence-recovery scope, and D4 canonical striped float folds.
//!
//! A1, L1/L2 and P2 have runtime cross-checks in the core crate: the
//! allocation sanitizer, the lock-witness shim (`--features lock_witness`)
//! and the panic census. One pipeline ([`analysis`]) lexes each file once
//! and builds each graph once.
//!
//! Every scope — which crates a rule covers, which files are exempt, which
//! functions are roots — comes from the checked-in `lint.toml`
//! ([`config`]); a [`Config::default`] scopes nothing.
//!
//! The tool is dependency-free by design — the workspace vendors offline
//! stub crates, so an AST-level framework (`syn`, `dylint`) is unavailable;
//! a hand-rolled lexer ([`lexer`]) over raw token streams is both
//! sufficient for these rules and immune to dependency drift.
//!
//! # Library use
//!
//! ```
//! use sfqlint::{lint_targets, Config, FileTarget};
//!
//! let cfg = Config::parse("[rules.I1]\ncrates = [\"core\"]\n")?;
//! let report = lint_targets(
//!     &[FileTarget {
//!         path: "crates/core/src/example.rs",
//!         src: "pub fn report() { println!(\"done\"); }",
//!         explicit: false,
//!     }],
//!     &cfg,
//! );
//! assert_eq!(report.diags[0].rule, "I1");
//! # Ok::<(), sfqlint::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod config;
pub mod diag;
pub mod explain;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules_concurrency;
pub mod rules_graph;
pub mod rules_value;
pub mod target;
pub mod walk;

pub use analysis::{lint_targets, Report, UnresolvedRoot};
pub use config::{AllowEntry, Config, ConfigError};
pub use diag::{apply_allowlist, render_json, Diagnostic};
pub use explain::explain;
pub use rules_concurrency::check_concurrency;
pub use rules_graph::check_workspace;
pub use rules_value::check_values;
pub use target::{classify, crate_of, FileClass, FileTarget};
pub use walk::collect_workspace_files;
