//! A minimal structural logic IR used by the circuit generators.
//!
//! A [`LogicNetwork`] is a DAG of Boolean nodes created in topological order
//! (a node's inputs must already exist). It deliberately has no notion of
//! SFQ cells, clocking, fanout limits, or path balancing — those are layered
//! on by the [`map`](crate::map) pass.
//!
//! # Example
//!
//! ```
//! use sfq_circuits::logic::LogicNetwork;
//!
//! // A half adder: s = a XOR b, c = a AND b.
//! let mut net = LogicNetwork::new("half_adder");
//! let a = net.input("a");
//! let b = net.input("b");
//! let s = net.xor2(a, b);
//! let c = net.and2(a, b);
//! net.output("s", s);
//! net.output("c", c);
//! assert_eq!(net.num_nodes(), 6);
//! assert_eq!(net.depth(), 1);
//! ```

// NodeId-indexed network arrays; ids are handed out by this module and
// bounded by `nodes.len()`.
#![allow(clippy::indexing_slicing)]

use std::fmt;

/// Index of a node in a [`LogicNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Boolean operation of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Primary input (no operands).
    Input,
    /// Primary output (one operand).
    Output,
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input XOR.
    Xor,
    /// Inverter.
    Not,
}

impl LogicOp {
    /// Number of operands the op takes.
    pub fn arity(self) -> usize {
        match self {
            LogicOp::Input => 0,
            LogicOp::Output | LogicOp::Not => 1,
            LogicOp::And | LogicOp::Or | LogicOp::Xor => 2,
        }
    }
}

/// One node of the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicNode {
    /// Node name; auto-generated for internal gates, user-supplied for I/O.
    pub name: String,
    /// The operation.
    pub op: LogicOp,
    /// Operand nodes (length = `op.arity()`).
    pub inputs: Vec<NodeId>,
}

/// A combinational logic network (DAG by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicNetwork {
    name: String,
    nodes: Vec<LogicNode>,
}

impl LogicNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        LogicNetwork {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, name: String, op: LogicOp, inputs: Vec<NodeId>) -> NodeId {
        debug_assert_eq!(inputs.len(), op.arity());
        for &i in &inputs {
            assert!(
                i.index() < self.nodes.len(),
                "operand {i} does not exist yet (nodes must be created in topological order)"
            );
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(LogicNode { name, op, inputs });
        id
    }

    /// Adds a named primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.push(name.into(), LogicOp::Input, vec![])
    }

    /// Adds a named primary output fed by `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not exist.
    pub fn output(&mut self, name: impl Into<String>, src: NodeId) -> NodeId {
        self.push(name.into(), LogicOp::Output, vec![src])
    }

    /// Adds `a AND b`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not exist.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let name = format!("and{}", self.nodes.len());
        self.push(name, LogicOp::And, vec![a, b])
    }

    /// Adds `a OR b`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not exist.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let name = format!("or{}", self.nodes.len());
        self.push(name, LogicOp::Or, vec![a, b])
    }

    /// Adds `a XOR b`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not exist.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let name = format!("xor{}", self.nodes.len());
        self.push(name, LogicOp::Xor, vec![a, b])
    }

    /// Adds `NOT a`.
    ///
    /// # Panics
    ///
    /// Panics if the operand does not exist.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let name = format!("not{}", self.nodes.len());
        self.push(name, LogicOp::Not, vec![a])
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &LogicNode {
        &self.nodes[id.index()]
    }

    /// Total node count (inputs and outputs included).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates `(id, node)` in topological (creation) order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &LogicNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of gate nodes (AND/OR/XOR/NOT).
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.op, LogicOp::Input | LogicOp::Output))
            .count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.nodes.iter().filter(|n| n.op == LogicOp::Input).count()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.op == LogicOp::Output)
            .count()
    }

    /// Per-node fanout counts (uses of each node as an operand).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &i in &node.inputs {
                counts[i.index()] += 1;
            }
        }
        counts
    }

    /// Logic level of every node: inputs at 0, a gate one past its deepest
    /// operand; output nodes share their operand's level.
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            levels[i] = match node.op {
                LogicOp::Input => 0,
                LogicOp::Output => node
                    .inputs
                    .iter()
                    .map(|x| levels[x.index()])
                    .max()
                    .unwrap_or(0),
                _ => {
                    node.inputs
                        .iter()
                        .map(|x| levels[x.index()])
                        .max()
                        .unwrap_or(0)
                        + 1
                }
            };
        }
        levels
    }

    /// Maximum gate level (logic depth); 0 for a gate-free network.
    pub fn depth(&self) -> usize {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Returns a copy with all gates unreachable from any output removed
    /// (inputs are always kept, preserving the interface).
    ///
    /// Generators like the Kogge–Stone prefix network compute a few terms
    /// that the final level never consumes; pruning them before technology
    /// mapping avoids dead SFQ cells burning bias current.
    pub fn without_dead_gates(&self) -> LogicNetwork {
        // Mark live: outputs and everything in their transitive fanin.
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, LogicOp::Output | LogicOp::Input))
            .map(|(i, _)| i)
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            for input in &self.nodes[i].inputs {
                stack.push(input.index());
            }
        }
        // Rebuild with compacted ids (creation order preserved, so inputs
        // keep their relative order for `evaluate`).
        let mut out = LogicNetwork::new(self.name.clone());
        let mut remap = vec![NodeId(u32::MAX); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let inputs = node.inputs.iter().map(|x| remap[x.index()]).collect();
            remap[i] = out.push(node.name.clone(), node.op, inputs);
        }
        out
    }

    /// Evaluates the network on the given input assignment, returning
    /// `(output name, value)` pairs in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<(String, bool)> {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "expected {} input values",
            self.num_inputs()
        );
        let mut values = vec![false; self.nodes.len()];
        let mut next_input = 0usize;
        let mut outputs = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let v = |id: NodeId| values[id.index()];
            values[i] = match node.op {
                LogicOp::Input => {
                    let x = inputs[next_input];
                    next_input += 1;
                    x
                }
                LogicOp::Output => v(node.inputs[0]),
                LogicOp::And => v(node.inputs[0]) && v(node.inputs[1]),
                LogicOp::Or => v(node.inputs[0]) || v(node.inputs[1]),
                LogicOp::Xor => v(node.inputs[0]) ^ v(node.inputs[1]),
                LogicOp::Not => !v(node.inputs[0]),
            };
            if node.op == LogicOp::Output {
                outputs.push((node.name.clone(), values[i]));
            }
        }
        outputs
    }
}

/// A one-bit value that may be a compile-time constant, enabling
/// constant-folded datapath construction (e.g. the divider's all-zero
/// initial remainder).
///
/// # Example
///
/// ```
/// use sfq_circuits::logic::{Bit, LogicNetwork};
///
/// let mut net = LogicNetwork::new("cf");
/// let a = Bit::Node(net.input("a"));
/// // x AND 0 folds away; x XOR 0 is x.
/// assert_eq!(Bit::and(&mut net, a, Bit::Zero), Bit::Zero);
/// assert_eq!(Bit::xor(&mut net, a, Bit::Zero), a);
/// assert_eq!(net.num_gates(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit {
    /// Constant 0.
    Zero,
    /// Constant 1.
    One,
    /// A live signal.
    Node(NodeId),
}

impl Bit {
    /// `a AND b` with constant folding.
    pub fn and(net: &mut LogicNetwork, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Zero, _) | (_, Bit::Zero) => Bit::Zero,
            (Bit::One, x) | (x, Bit::One) => x,
            (Bit::Node(x), Bit::Node(y)) => Bit::Node(net.and2(x, y)),
        }
    }

    /// `a OR b` with constant folding.
    pub fn or(net: &mut LogicNetwork, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::One, _) | (_, Bit::One) => Bit::One,
            (Bit::Zero, x) | (x, Bit::Zero) => x,
            (Bit::Node(x), Bit::Node(y)) => Bit::Node(net.or2(x, y)),
        }
    }

    /// `a XOR b` with constant folding.
    ///
    /// `x XOR 1` requires an inverter and emits a NOT gate.
    pub fn xor(net: &mut LogicNetwork, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Zero, x) | (x, Bit::Zero) => x,
            (Bit::One, Bit::One) => Bit::Zero,
            (Bit::One, Bit::Node(x)) | (Bit::Node(x), Bit::One) => Bit::Node(net.not(x)),
            (Bit::Node(x), Bit::Node(y)) => Bit::Node(net.xor2(x, y)),
        }
    }

    /// `NOT a` with constant folding.
    pub fn not(net: &mut LogicNetwork, a: Bit) -> Bit {
        match a {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
            Bit::Node(x) => Bit::Node(net.not(x)),
        }
    }

    /// Two-way multiplexer `s ? x1 : x0` with constant folding.
    pub fn mux(net: &mut LogicNetwork, s: Bit, x1: Bit, x0: Bit) -> Bit {
        if x1 == x0 {
            return x1;
        }
        let ns = Bit::not(net, s);
        let t1 = Bit::and(net, s, x1);
        let t0 = Bit::and(net, ns, x0);
        Bit::or(net, t1, t0)
    }

    /// Materialises the bit as a real node, synthesizing constants from
    /// `anchor` (`0 = anchor XOR anchor`, `1 = NOT 0`). Needed when a
    /// constant reaches a primary output.
    pub fn materialize(self, net: &mut LogicNetwork, anchor: NodeId) -> NodeId {
        match self {
            Bit::Node(x) => x,
            Bit::Zero => net.xor2(anchor, anchor),
            Bit::One => {
                let zero = net.xor2(anchor, anchor);
                net.not(zero)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> LogicNetwork {
        let mut net = LogicNetwork::new("fa");
        let a = net.input("a");
        let b = net.input("b");
        let cin = net.input("cin");
        let axb = net.xor2(a, b);
        let s = net.xor2(axb, cin);
        let c1 = net.and2(a, b);
        let c2 = net.and2(axb, cin);
        let cout = net.or2(c1, c2);
        net.output("s", s);
        net.output("cout", cout);
        net
    }

    #[test]
    fn counts() {
        let net = full_adder();
        assert_eq!(net.num_inputs(), 3);
        assert_eq!(net.num_outputs(), 2);
        assert_eq!(net.num_gates(), 5);
        assert_eq!(net.num_nodes(), 10);
    }

    #[test]
    fn full_adder_truth_table() {
        let net = full_adder();
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let out = net.evaluate(&[a, b, cin]);
                    let sum = (a as u8) + (b as u8) + (cin as u8);
                    assert_eq!(out[0].1, sum & 1 == 1, "s({a},{b},{cin})");
                    assert_eq!(out[1].1, sum >= 2, "cout({a},{b},{cin})");
                }
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let net = full_adder();
        // a XOR b at level 1, s at level 2, cout at level 3 (or of ands,
        // c2 = and(axb, cin) at 2, or at 3).
        assert_eq!(net.depth(), 3);
        let levels = net.levels();
        assert_eq!(levels[0], 0); // input a
        assert_eq!(levels[3], 1); // axb
        assert_eq!(levels[4], 2); // s
    }

    #[test]
    fn fanout_counts() {
        let net = full_adder();
        let fo = net.fanout_counts();
        // a feeds axb and c1.
        assert_eq!(fo[0], 2);
        // axb feeds s and c2.
        assert_eq!(fo[3], 2);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut net = LogicNetwork::new("bad");
        let a = net.input("a");
        // Reference to a node that does not exist.
        let ghost = NodeId(99);
        let _ = net.and2(a, ghost);
    }

    #[test]
    #[should_panic(expected = "expected 3 input values")]
    fn evaluate_checks_input_arity() {
        let net = full_adder();
        let _ = net.evaluate(&[true, false]);
    }

    #[test]
    fn without_dead_gates_prunes_transitively() {
        let mut net = LogicNetwork::new("dead");
        let a = net.input("a");
        let b = net.input("b");
        let live = net.and2(a, b);
        let dead1 = net.or2(a, b);
        let _dead2 = net.not(dead1); // feeds nothing
        net.output("y", live);
        let pruned = net.without_dead_gates();
        assert_eq!(pruned.num_gates(), 1, "only the AND survives");
        assert_eq!(pruned.num_inputs(), 2, "interface preserved");
        assert_eq!(pruned.num_outputs(), 1);
        // Still evaluates identically.
        for a_v in [false, true] {
            for b_v in [false, true] {
                assert_eq!(
                    pruned.evaluate(&[a_v, b_v]),
                    vec![("y".to_owned(), a_v && b_v)]
                );
            }
        }
    }

    #[test]
    fn without_dead_gates_is_identity_on_live_networks() {
        let net = full_adder();
        let pruned = net.without_dead_gates();
        assert_eq!(pruned.num_nodes(), net.num_nodes());
    }

    #[test]
    fn bit_constant_folding() {
        let mut net = LogicNetwork::new("bits");
        let a = Bit::Node(net.input("a"));
        assert_eq!(Bit::and(&mut net, a, Bit::One), a);
        assert_eq!(Bit::and(&mut net, Bit::Zero, a), Bit::Zero);
        assert_eq!(Bit::or(&mut net, a, Bit::One), Bit::One);
        assert_eq!(Bit::or(&mut net, Bit::Zero, a), a);
        assert_eq!(Bit::xor(&mut net, Bit::One, Bit::One), Bit::Zero);
        assert_eq!(Bit::not(&mut net, Bit::Zero), Bit::One);
        assert_eq!(net.num_gates(), 0, "all folds are free");
        // x XOR 1 emits a NOT.
        let inv = Bit::xor(&mut net, a, Bit::One);
        assert!(matches!(inv, Bit::Node(_)));
        assert_eq!(net.num_gates(), 1);
    }

    #[test]
    fn bit_mux_folds_equal_branches() {
        let mut net = LogicNetwork::new("mux");
        let s = Bit::Node(net.input("s"));
        let x = Bit::Node(net.input("x"));
        assert_eq!(Bit::mux(&mut net, s, x, x), x);
        assert_eq!(net.num_gates(), 0);
        // Real mux: select between two signals.
        let y = Bit::Node(net.input("y"));
        let m = Bit::mux(&mut net, s, x, y);
        assert!(matches!(m, Bit::Node(_)));
        assert!(net.num_gates() >= 3);
    }

    #[test]
    fn bit_mux_constant_select_semantics() {
        // mux with constant data bits behaves like the Boolean expression.
        let mut net = LogicNetwork::new("muxc");
        let s_id = net.input("s");
        let s = Bit::Node(s_id);
        // mux(s, 1, 0) = s.
        assert_eq!(Bit::mux(&mut net, s, Bit::One, Bit::Zero), s);
        // mux(s, 0, 1) = NOT s (one inverter).
        let m = Bit::mux(&mut net, s, Bit::Zero, Bit::One);
        assert!(matches!(m, Bit::Node(_)));
    }

    #[test]
    fn bit_materialize_constants_evaluate_correctly() {
        let mut net = LogicNetwork::new("mat");
        let a = net.input("a");
        let zero = Bit::Zero.materialize(&mut net, a);
        let one = Bit::One.materialize(&mut net, a);
        net.output("z", zero);
        net.output("o", one);
        for v in [false, true] {
            let outs = net.evaluate(&[v]);
            assert!(!outs[0].1);
            assert!(outs[1].1);
        }
    }
}
