//! Ripple-carry adders — the linear-depth counterpart to the Kogge–Stone
//! adder, useful for structure-vs-partitionability studies: the RCA maps to
//! a much deeper SFQ pipeline (more balancing DFFs) with an even more
//! chain-like connection structure.

// Bit vectors a, b indexed 0..n by construction.
#![allow(clippy::indexing_slicing)]

use crate::logic::{LogicNetwork, NodeId};

/// Builds an `n`-bit ripple-carry adder: inputs `a[0..n]`, `b[0..n]`,
/// outputs `s[0..n]` and `cout`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use sfq_circuits::rca::ripple_carry_adder;
///
/// let net = ripple_carry_adder(8);
/// assert_eq!(net.num_inputs(), 16);
/// assert_eq!(net.num_outputs(), 9);
/// ```
pub fn ripple_carry_adder(n: usize) -> LogicNetwork {
    assert!(n > 0, "adder width must be positive");
    let mut net = LogicNetwork::new(format!("RCA{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| net.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..n).map(|i| net.input(format!("b{i}"))).collect();

    let mut carry: Option<NodeId> = None;
    let mut sums = Vec::with_capacity(n);
    for i in 0..n {
        let axb = net.xor2(a[i], b[i]);
        match carry {
            None => {
                sums.push(axb);
                carry = Some(net.and2(a[i], b[i]));
            }
            Some(c) => {
                let s = net.xor2(axb, c);
                sums.push(s);
                let t1 = net.and2(a[i], b[i]);
                let t2 = net.and2(axb, c);
                carry = Some(net.or2(t1, t2));
            }
        }
    }
    for (i, s) in sums.into_iter().enumerate() {
        net.output(format!("s{i}"), s);
    }
    let carry = carry.unwrap_or_else(|| unreachable!("n > 0 asserted at entry"));
    net.output("cout", carry);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksa::kogge_stone_adder;

    fn add(net: &LogicNetwork, n: usize, a: u64, b: u64) -> u64 {
        let mut inputs = Vec::with_capacity(2 * n);
        for i in 0..n {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..n {
            inputs.push((b >> i) & 1 == 1);
        }
        net.evaluate(&inputs)
            .iter()
            .enumerate()
            .filter(|(_, (_, v))| *v)
            .map(|(i, _)| 1u64 << i)
            .sum()
    }

    #[test]
    fn rca4_adds_exhaustively() {
        let net = ripple_carry_adder(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(add(&net, 4, a, b), a + b, "{a}+{b}");
            }
        }
    }

    #[test]
    fn rca8_matches_ksa8() {
        let rca = ripple_carry_adder(8);
        let ksa = kogge_stone_adder(8);
        for (a, b) in [(0, 0), (255, 255), (123, 45), (200, 56), (1, 254)] {
            assert_eq!(add(&rca, 8, a, b), add(&ksa, 8, a, b), "{a}+{b}");
        }
    }

    #[test]
    fn rca_is_deeper_but_smaller_than_ksa() {
        let rca = ripple_carry_adder(16);
        let ksa = kogge_stone_adder(16);
        assert!(rca.depth() > ksa.depth(), "linear vs logarithmic depth");
        assert!(rca.num_gates() < ksa.num_gates(), "no prefix redundancy");
    }

    #[test]
    fn depth_is_linear() {
        let d8 = ripple_carry_adder(8).depth();
        let d16 = ripple_carry_adder(16).depth();
        // Two gate levels per bit along the carry chain.
        assert!(d16 >= d8 + 14, "d8={d8} d16={d16}");
    }
}
