//! Benchmark-circuit generators for the SFQ partitioning experiments.
//!
//! The paper evaluates on the USC SPORT-lab SFQ benchmark suite: Kogge–Stone
//! adders (KSA4/8/16/32), array multipliers (MULT4/8), integer dividers
//! (ID4/8) and five ISCAS85 circuits mapped to SFQ, distributed as
//! post-routed DEF. That data is not redistributable, so this crate rebuilds
//! the suite from first principles:
//!
//! * [`logic`] — a tiny structural logic IR (AND/OR/XOR/NOT + named I/O).
//! * generators — textbook implementations of the arithmetic circuits:
//!   [`ksa::kogge_stone_adder`], [`mult::array_multiplier`],
//!   [`divider::restoring_divider`].
//! * [`map`] — an SFQ technology-mapping pass that turns a logic network
//!   into a gate-level [`Netlist`](sfq_netlist::Netlist): every Boolean gate
//!   becomes a clocked SFQ cell, paths are balanced with DFF ladders (SFQ is
//!   gate-level pipelined), and fanout is realised with splitter trees
//!   (an SFQ output drives exactly one input).
//! * [`synthetic`] — calibrated layered random DAGs standing in for the five
//!   ISCAS85 circuits, matched to the paper's published gate/connection
//!   counts.
//! * [`registry`] — the 13-circuit suite by name ("KSA8" → `Netlist`).
//! * [`scale`] — 100k–1M-gate statistical problems (raw bias/area/edge
//!   arrays) for the lane-kernel scaling frontier.
//!
//! # Example
//!
//! ```
//! use sfq_circuits::registry::{Benchmark, generate};
//!
//! let netlist = generate(Benchmark::Ksa4);
//! let stats = netlist.stats();
//! assert!(stats.num_gates > 50);
//! assert!(netlist.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures and index through `.get()` or
// iterators, never abort the process on them; tests keep the ergonomic forms.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod divider;
pub mod ksa;
pub mod logic;
pub mod map;
pub mod mult;
pub mod rca;
pub mod registry;
pub mod scale;
pub mod shiftreg;
pub mod synthetic;
