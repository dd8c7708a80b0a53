//! `sfqlint` — in-repo static analysis for the current-recycling workspace.
//!
//! The reproduction's central guarantee is *bit-identical partitions whether
//! restarts run serially or in parallel*. That guarantee is runtime
//! behavior, but it is protected
//! by structural invariants that plain `rustc`/`clippy` cannot express:
//! nothing may iterate an order-nondeterministic container in a numeric
//! crate, read a wall clock outside the budget module, or create a thread
//! outside the fused engine. `sfqlint` encodes those invariants as
//! token-level rules (see [`rules`]) and runs as a CI gate.
//!
//! On top of the token rules sits an item-level workspace model: files are
//! parsed into functions with call sites ([`items`]), resolved into a
//! symbol + call graph with a conservative ⊤ node ([`graph`]), over which
//! the cross-file rules A1/I1/O1 run ([`rules_graph`]) — hot-path
//! allocation-freedom, I/O confinement to telemetry sinks, and observer
//! purity.
//!
//! v3 adds concurrency invariants on the same graph
//! ([`rules_concurrency`]): L1 lock-order acyclicity with per-crate
//! declared orders, L2 no-blocking-under-lock, and S1
//! async-signal-safety plus a registered-justification audit of every
//! `unsafe` block. The static rules are cross-checked at runtime by the
//! lock-witness shim in the core crate (`--features lock_witness`).
//!
//! v4 extends the item model with a per-function value-site scanner
//! ([`items::ValueSite`]) feeding three value-flow rules
//! ([`rules_value`]): P2 panic-freedom of the configured kernel/settle
//! roots (with root→…→site witness chains, cross-checked at runtime by
//! the panic-census harness in the core crate), N1 confinement of
//! NaN/Inf-capable operations to the divergence-recovery scope, and D4
//! canonical striped folds for float reductions. All rule families run
//! through one pipeline ([`analysis`]) that lexes each file once and
//! builds each graph once.
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
//! use sfqlint::{check_file, Config, FileTarget};
//!
//! let cfg = Config::parse("[rules.D1]\ncrates = [\"core\"]\n")?;
//! let diags = check_file(
//!     &FileTarget {
//!         path: "crates/core/src/example.rs",
//!         src: "use std::collections::HashMap;",
//!         explicit: false,
//!     },
//!     &cfg,
//! );
//! assert_eq!(diags[0].rule, "D1");
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
pub mod rules;
pub mod rules_concurrency;
pub mod rules_graph;
pub mod rules_value;
pub mod walk;

pub use analysis::{lint_targets, Report, UnresolvedRoot};
pub use config::{AllowEntry, Config, ConfigError};
pub use diag::{apply_allowlist, render_json, Diagnostic};
pub use explain::explain;
pub use rules::{check_file, classify, crate_of, FileClass, FileTarget};
pub use rules_concurrency::check_concurrency;
pub use rules_graph::check_workspace;
pub use rules_value::check_values;
pub use walk::collect_workspace_files;
