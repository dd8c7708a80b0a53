//! Kogge–Stone parallel-prefix adders (the paper's KSA4/8/16/32).

// Kogge-Stone prefix arrays indexed 0..n by construction.
#![allow(clippy::indexing_slicing)]

use crate::logic::{LogicNetwork, NodeId};

/// Builds an `n`-bit Kogge–Stone adder over inputs `a[0..n]`, `b[0..n]`
/// (no carry-in), producing outputs `s[0..n]` and `cout`.
///
/// Structure: generate/propagate pre-stage (`g_i = a_i·b_i`,
/// `p_i = a_i⊕b_i`), `⌈log₂ n⌉` prefix levels with the Kogge–Stone
/// minimum-depth/maximum-node pattern (`G' = G ∨ (P·G_prev)`,
/// `P' = P·P_prev`), and a sum post-stage (`s_i = p_i ⊕ c_{i−1}`).
///
/// # Panics
///
/// Panics if `n == 0` or `n` is not a power of two (the classic
/// Kogge–Stone pattern; the paper's sizes are 4/8/16/32).
///
/// # Example
///
/// ```
/// use sfq_circuits::ksa::kogge_stone_adder;
///
/// let net = kogge_stone_adder(4);
/// assert_eq!(net.num_inputs(), 8);
/// assert_eq!(net.num_outputs(), 5);
/// ```
pub fn kogge_stone_adder(n: usize) -> LogicNetwork {
    assert!(
        n > 0 && n.is_power_of_two(),
        "KSA width must be a power of two"
    );
    let mut net = LogicNetwork::new(format!("KSA{n}"));

    let a: Vec<NodeId> = (0..n).map(|i| net.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..n).map(|i| net.input(format!("b{i}"))).collect();

    // Pre-stage.
    let mut g: Vec<NodeId> = Vec::with_capacity(n);
    let mut p: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        g.push(net.and2(a[i], b[i]));
        p.push(net.xor2(a[i], b[i]));
    }
    let p0 = p.clone(); // bit-propagates, reused by the sum stage

    // Prefix levels: offset doubles each level.
    let mut offset = 1usize;
    while offset < n {
        let mut g_next = g.clone();
        let mut p_next = p.clone();
        for i in offset..n {
            // G'_i = G_i OR (P_i AND G_{i-offset})
            let t = net.and2(p[i], g[i - offset]);
            g_next[i] = net.or2(g[i], t);
            // P'_i = P_i AND P_{i-offset} (only needed while the group can
            // still extend; harmlessly computed for all i ≥ offset, matching
            // the regular layout generators used for SFQ KSAs).
            if i >= 2 * offset - 1 {
                p_next[i] = net.and2(p[i], p[i - offset]);
            }
        }
        g = g_next;
        p = p_next;
        offset *= 2;
    }
    // g[i] is now the carry out of bit i.

    // Sum stage.
    let outputs: Vec<(String, NodeId)> = {
        let mut outs = Vec::with_capacity(n + 1);
        outs.push(("s0".to_owned(), p0[0]));
        for i in 1..n {
            let s = net.xor2(p0[i], g[i - 1]);
            outs.push((format!("s{i}"), s));
        }
        outs.push(("cout".to_owned(), g[n - 1]));
        outs
    };
    for (name, node) in outputs {
        net.output(name, node);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates the adder on concrete operands via the logic IR.
    fn add(net: &LogicNetwork, n: usize, a: u64, b: u64) -> u64 {
        let mut inputs = Vec::with_capacity(2 * n);
        for i in 0..n {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..n {
            inputs.push((b >> i) & 1 == 1);
        }
        let outs = net.evaluate(&inputs);
        // Outputs arrive as s0..s{n-1}, cout in creation order.
        let mut result = 0u64;
        for (i, (_, v)) in outs.iter().enumerate() {
            if *v {
                result |= 1 << i;
            }
        }
        result
    }

    #[test]
    fn ksa4_adds_exhaustively() {
        let net = kogge_stone_adder(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(add(&net, 4, a, b), a + b, "{a}+{b}");
            }
        }
    }

    #[test]
    fn ksa8_adds_on_a_sample() {
        let net = kogge_stone_adder(8);
        for (a, b) in [(0, 0), (255, 255), (170, 85), (200, 100), (1, 254)] {
            assert_eq!(add(&net, 8, a, b), a + b, "{a}+{b}");
        }
    }

    #[test]
    fn ksa16_adds_on_a_sample() {
        let net = kogge_stone_adder(16);
        for (a, b) in [(65535, 1), (12345, 54321), (40000, 25535)] {
            assert_eq!(add(&net, 16, a, b), a + b);
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        // Pre-stage (1) + 2 gate levels per prefix step (the final sum XOR
        // overlaps the last prefix OR, so no +1).
        assert_eq!(kogge_stone_adder(4).depth(), 1 + 2 * 2);
        let d16 = kogge_stone_adder(16).depth();
        assert!((9..=10).contains(&d16), "expected ~1+2·log2(16), got {d16}");
        // Doubling the width adds a constant number of levels.
        assert!(kogge_stone_adder(32).depth() <= d16 + 3);
    }

    #[test]
    fn gate_count_grows_n_log_n() {
        let g4 = kogge_stone_adder(4).num_gates();
        let g8 = kogge_stone_adder(8).num_gates();
        let g16 = kogge_stone_adder(16).num_gates();
        assert!(g8 > 2 * g4);
        assert!(g16 > 2 * g8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = kogge_stone_adder(6);
    }
}
