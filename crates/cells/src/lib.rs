//! SFQ standard-cell library model.
//!
//! Single-flux-quantum (SFQ) logic circuits are built from a small set of
//! clocked and unclocked cells (see [Likharev & Semenov, 1991]). Every cell is
//! characterised — for the purposes of ground-plane partitioning — by three
//! physical quantities:
//!
//! * its **bias current** requirement `b_i` (the DC current the cell's bias
//!   network must deliver for the Josephson junctions to sit at their working
//!   point),
//! * its **layout area** `a_i`, and
//! * its **Josephson-junction count** (a proxy for complexity, reported by
//!   most SFQ cell libraries).
//!
//! The partitioner in [`sfq-partition`] only ever consumes `b_i` and `a_i`;
//! the JJ count and pin structure are used by the netlist generators and by
//! validation.
//!
//! # Example
//!
//! ```
//! use sfq_cells::{CellLibrary, CellKind};
//!
//! let lib = CellLibrary::calibrated();
//! let and2 = lib.spec(CellKind::And2);
//! assert!(and2.bias_current.as_milliamps() > 0.0);
//! assert!(and2.is_clocked());
//! assert_eq!(and2.num_inputs, 2);
//! ```
//!
//! [`sfq-partition`]: https://docs.rs/sfq-partition

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures and index through `.get()` or
// iterators, never abort the process on them; tests keep the ergonomic forms.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod format;
mod library;
mod spec;
mod units;

pub use format::{parse_library, write_library, ParseLibraryError};
pub use library::CellLibrary;
pub use spec::{CellKind, CellSpec, ParseCellKindError};
pub use units::{MilliAmps, SquareMicrons};
