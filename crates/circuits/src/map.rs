//! SFQ technology mapping: logic network → gate-level SFQ netlist.
//!
//! SFQ logic differs from CMOS in two ways that reshape a netlist:
//!
//! 1. **Gate-level pipelining.** Every Boolean gate is clocked, so a gate at
//!    logic level `L` consumes tokens produced at level `L−1`. Any signal
//!    that skips levels must be delayed through D flip-flops — *path
//!    balancing*. This pass inserts shared DFF *ladders*: one chain per
//!    driver, with each sink tapping the rung matching its level. Ladders
//!    are why SFQ netlists are several times larger than their CMOS
//!    equivalents (the paper's ID8 has 3 209 gates for an 8-bit divider).
//! 2. **Unit fanout.** An SFQ pulse drives exactly one input; fanout `n`
//!    requires a balanced tree of `n−1` two-output *splitter* cells.
//!
//! The clock-distribution network itself is *not* emitted: the SPORT
//! benchmark suite's published gate counts (which Table I reports) exclude
//! clock wiring, which is added as layout infrastructure. DESIGN.md records
//! this substitution.
//!
//! # Example
//!
//! ```
//! use sfq_cells::CellLibrary;
//! use sfq_circuits::{logic::LogicNetwork, map::{map_to_sfq, MapOptions}};
//!
//! let mut net = LogicNetwork::new("toy");
//! let a = net.input("a");
//! let b = net.input("b");
//! let x = net.xor2(a, b);
//! net.output("x", x);
//!
//! let netlist = map_to_sfq(&net, CellLibrary::calibrated(), &MapOptions::default());
//! assert!(netlist.validate().is_ok());
//! ```

// Tap/rung tables indexed by ids this pass generated; bounds are
// structural.
#![allow(clippy::indexing_slicing)]

use sfq_cells::{CellKind, CellLibrary};
use sfq_netlist::Netlist;

use crate::logic::{LogicNetwork, LogicOp};

/// Mapping options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOptions {
    /// Insert DFF ladders so every gate input arrives at the right stage.
    pub path_balance: bool,
    /// Balance primary outputs to the final stage as well, so all outputs of
    /// the pipeline emerge on the same clock tick.
    pub balance_outputs: bool,
}

impl Default for MapOptions {
    /// Full path balancing including outputs — the standard SFQ flow.
    fn default() -> Self {
        MapOptions {
            path_balance: true,
            balance_outputs: true,
        }
    }
}

/// Node of the intermediate mapped graph.
struct MappedNode {
    kind: CellKind,
    name: String,
    sinks: Vec<u32>,
}

/// Maps `logic` onto SFQ cells from `library`.
///
/// The result contains one clocked cell per Boolean gate, pads for the
/// primary I/O, DFF ladders for path balancing (per [`MapOptions`]), and
/// splitter trees realising all fanout.
///
/// # Panics
///
/// Panics if the library is missing any required cell kind (the calibrated
/// default library has all of them).
pub fn map_to_sfq(logic: &LogicNetwork, library: CellLibrary, options: &MapOptions) -> Netlist {
    let levels = logic.levels();
    let depth = logic.depth();

    // One mapped node per logic node, same indexing.
    let mut nodes: Vec<MappedNode> = logic
        .nodes()
        .map(|(_, n)| MappedNode {
            kind: match n.op {
                LogicOp::Input => CellKind::InputPad,
                LogicOp::Output => CellKind::OutputPad,
                LogicOp::And => CellKind::And2,
                LogicOp::Or => CellKind::Or2,
                LogicOp::Xor => CellKind::Xor2,
                LogicOp::Not => CellKind::Not,
            },
            name: n.name.clone(),
            sinks: Vec::new(),
        })
        .collect();

    // Group each driver's sinks by the ladder tap they need.
    // taps[driver] = list of (tap, sink index).
    let mut taps: Vec<Vec<(usize, u32)>> = vec![Vec::new(); logic.num_nodes()];
    for (sink_id, sink) in logic.nodes() {
        for &driver in &sink.inputs {
            let lu = levels[driver.index()];
            let tap = if !options.path_balance {
                0
            } else {
                match sink.op {
                    // A gate at level lv consumes stage lv−1 tokens.
                    LogicOp::Output => {
                        if options.balance_outputs {
                            depth.saturating_sub(lu)
                        } else {
                            0
                        }
                    }
                    _ => levels[sink_id.index()].saturating_sub(lu + 1),
                }
            };
            taps[driver.index()].push((tap, sink_id.0));
        }
    }

    // Materialise DFF ladders and hook every sink to its rung.
    let mut dff_count = 0usize;
    #[allow(clippy::needless_range_loop)] // parallel-array indexing
    for driver in 0..taps.len() {
        let mut entries = std::mem::take(&mut taps[driver]);
        if entries.is_empty() {
            continue;
        }
        entries.sort_unstable();
        let max_tap = entries
            .last()
            .unwrap_or_else(|| unreachable!("emptiness checked above"))
            .0;
        // rung[0] = the driver itself; rung[t] = t-th DFF.
        let mut rungs: Vec<u32> = Vec::with_capacity(max_tap + 1);
        rungs.push(driver as u32);
        for t in 1..=max_tap {
            let dff = nodes.len() as u32;
            nodes.push(MappedNode {
                kind: CellKind::Dff,
                name: format!("bal_{driver}_{t}"),
                sinks: Vec::new(),
            });
            dff_count += 1;
            let prev = rungs[t - 1];
            nodes[prev as usize].sinks.push(dff);
            rungs.push(dff);
        }
        for (tap, sink) in entries {
            let rung = rungs[tap];
            nodes[rung as usize].sinks.push(sink);
        }
    }
    let _ = dff_count;

    // Splitter trees: reduce every node's fanout to its output-pin count.
    let mut i = 0usize;
    while i < nodes.len() {
        let cap = nodes[i].kind.num_outputs().max(1);
        if nodes[i].sinks.len() > cap {
            let mut layer = std::mem::take(&mut nodes[i].sinks);
            // Pair sinks into splitters bottom-up until they fit.
            while layer.len() > cap {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for chunk in layer.chunks(2) {
                    if chunk.len() == 2 {
                        let sp = nodes.len() as u32;
                        nodes.push(MappedNode {
                            kind: CellKind::Splitter,
                            name: format!("sp{sp}"),
                            sinks: chunk.to_vec(),
                        });
                        next.push(sp);
                    } else {
                        next.push(chunk[0]);
                    }
                }
                layer = next;
            }
            nodes[i].sinks = layer;
        }
        i += 1;
    }

    // Emit the netlist: one net per used output pin, input pins assigned in
    // arrival order.
    let mut netlist = Netlist::new(logic.name(), library);
    let ids: Vec<_> = nodes
        .iter()
        .map(|n| netlist.add_cell(n.name.clone(), n.kind))
        .collect();
    let mut next_input = vec![0usize; nodes.len()];
    let mut net_counter = 0usize;
    for (u, node) in nodes.iter().enumerate() {
        for (out_pin, &sink) in node.sinks.iter().enumerate() {
            let pin = next_input[sink as usize];
            next_input[sink as usize] += 1;
            netlist
                .connect(
                    format!("net{net_counter}"),
                    ids[u],
                    out_pin,
                    &[(ids[sink as usize], pin)],
                )
                .unwrap_or_else(|e| unreachable!("mapping produces in-range pins: {e}"));
            net_counter += 1;
        }
    }
    debug_assert!(netlist.validate().is_ok());
    netlist
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_netlist::ConnectivityGraph;

    fn xor_tree() -> LogicNetwork {
        // x = (a XOR b) XOR (c XOR d); also reuse (a XOR b) on a 2nd output
        // to force fanout.
        let mut net = LogicNetwork::new("xt");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let ab = net.xor2(a, b);
        let cd = net.xor2(c, d);
        let x = net.xor2(ab, cd);
        net.output("x", x);
        net.output("y", ab);
        net
    }

    #[test]
    fn mapping_validates_and_has_unit_fanout() {
        let netlist = map_to_sfq(
            &xor_tree(),
            CellLibrary::calibrated(),
            &MapOptions::default(),
        );
        netlist.validate().expect("valid netlist");
        let g = ConnectivityGraph::of(&netlist);
        for (id, cell) in netlist.cells() {
            let cap = cell.kind.num_outputs();
            assert!(
                g.fanout(id).len() <= cap.max(1),
                "cell {} ({}) exceeds its fanout capacity",
                cell.name,
                cell.kind
            );
        }
    }

    #[test]
    fn splitters_inserted_for_fanout() {
        let netlist = map_to_sfq(
            &xor_tree(),
            CellLibrary::calibrated(),
            &MapOptions::default(),
        );
        let stats = netlist.stats();
        // ab feeds the top xor and output y -> at least one splitter.
        assert!(
            stats
                .kind_histogram
                .get(&CellKind::Splitter)
                .copied()
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn path_balancing_inserts_dffs() {
        // y = a AND (b AND (c AND d)): a enters at level 3 but is produced
        // at level 0 -> needs 2 DFFs on its path.
        let mut net = LogicNetwork::new("deep");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let cd = net.and2(c, d);
        let bcd = net.and2(b, cd);
        let y = net.and2(a, bcd);
        net.output("y", y);

        let balanced = map_to_sfq(&net, CellLibrary::calibrated(), &MapOptions::default());
        let dffs = balanced
            .stats()
            .kind_histogram
            .get(&CellKind::Dff)
            .copied()
            .unwrap_or(0);
        assert!(dffs >= 3, "a needs 2 rungs, b needs 1: got {dffs}");

        let unbalanced = map_to_sfq(
            &net,
            CellLibrary::calibrated(),
            &MapOptions {
                path_balance: false,
                balance_outputs: false,
            },
        );
        assert_eq!(
            unbalanced
                .stats()
                .kind_histogram
                .get(&CellKind::Dff)
                .copied()
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn balanced_mapping_equalizes_register_depth() {
        // Every path from any input pad to any output pad must cross the
        // same number of clocked cells — the defining property of a fully
        // path-balanced SFQ pipeline.
        let netlist = map_to_sfq(
            &xor_tree(),
            CellLibrary::calibrated(),
            &MapOptions::default(),
        );
        let g = ConnectivityGraph::of(&netlist);
        // Longest/shortest clocked-depth per cell via DP over the DAG.
        let order = g.topological_order().expect("mapped netlist is a DAG");
        let n = netlist.num_cells();
        let mut min_d = vec![usize::MAX; n];
        let mut max_d = vec![0usize; n];
        for &id in &order {
            if g.fanin(id).is_empty() {
                min_d[id.index()] = 0;
                max_d[id.index()] = 0;
            }
            let clocked = netlist.cell(id).kind.is_clocked() as usize;
            let (mi, ma) = (min_d[id.index()], max_d[id.index()]);
            for &succ in g.fanout(id) {
                let si = succ.index();
                min_d[si] = min_d[si].min(mi + clocked);
                max_d[si] = max_d[si].max(ma + clocked);
            }
        }
        for (id, cell) in netlist.cells() {
            if cell.kind == CellKind::OutputPad {
                assert_eq!(
                    min_d[id.index()],
                    max_d[id.index()],
                    "output {} has unbalanced paths",
                    cell.name
                );
            }
        }
    }

    #[test]
    fn mapped_netlist_is_a_dag() {
        let netlist = map_to_sfq(
            &xor_tree(),
            CellLibrary::calibrated(),
            &MapOptions::default(),
        );
        assert!(ConnectivityGraph::of(&netlist)
            .topological_order()
            .is_some());
    }

    #[test]
    fn gate_kinds_translate() {
        let mut net = LogicNetwork::new("ops");
        let a = net.input("a");
        let b = net.input("b");
        let x = net.and2(a, b);
        let y = net.or2(a, b);
        let z = net.xor2(x, y);
        let w = net.not(z);
        net.output("w", w);
        let netlist = map_to_sfq(&net, CellLibrary::calibrated(), &MapOptions::default());
        let h = netlist.stats().kind_histogram;
        assert_eq!(h.get(&CellKind::And2), Some(&1));
        assert_eq!(h.get(&CellKind::Or2), Some(&1));
        assert_eq!(h.get(&CellKind::Xor2), Some(&1));
        assert_eq!(h.get(&CellKind::Not), Some(&1));
        assert_eq!(h.get(&CellKind::InputPad), Some(&2));
        assert_eq!(h.get(&CellKind::OutputPad), Some(&1));
    }

    #[test]
    fn dangling_gates_are_tolerated() {
        let mut net = LogicNetwork::new("dangle");
        let a = net.input("a");
        let b = net.input("b");
        let _unused = net.and2(a, b);
        let x = net.or2(a, b);
        net.output("x", x);
        let netlist = map_to_sfq(&net, CellLibrary::calibrated(), &MapOptions::default());
        netlist.validate().expect("valid despite dangling gate");
    }
}
