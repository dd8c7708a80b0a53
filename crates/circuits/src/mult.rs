//! Ripple array multipliers (the paper's MULT4/8).

// Partial-product matrix pp[j][i] indexed by the loops that allocated it.
#![allow(clippy::indexing_slicing)]

use crate::logic::{LogicNetwork, NodeId};

/// Adds up to three one-bit operands, returning `(sum, carry)`; `None`
/// operands are constant zero and the corresponding adder cells degrade
/// (full adder → half adder → wire).
fn add3(
    net: &mut LogicNetwork,
    a: Option<NodeId>,
    b: Option<NodeId>,
    c: Option<NodeId>,
) -> (Option<NodeId>, Option<NodeId>) {
    let mut ops: Vec<NodeId> = [a, b, c].into_iter().flatten().collect();
    match ops.len() {
        0 => (None, None),
        1 => (Some(ops[0]), None),
        2 => {
            let (x, y) = (ops[0], ops[1]);
            let s = net.xor2(x, y);
            let c = net.and2(x, y);
            (Some(s), Some(c))
        }
        _ => {
            let (x, y, z) = (ops.remove(0), ops.remove(0), ops.remove(0));
            let xy = net.xor2(x, y);
            let s = net.xor2(xy, z);
            let t1 = net.and2(x, y);
            let t2 = net.and2(xy, z);
            let cout = net.or2(t1, t2);
            (Some(s), Some(cout))
        }
    }
}

/// Builds an `n×n` unsigned array multiplier: inputs `a[0..n]`, `b[0..n]`,
/// outputs `m[0..2n]`.
///
/// Classic row-ripple array: `n²` partial-product AND gates and `n−1` rows
/// of ripple-carry adders — the regular, deeply pipelined structure used for
/// the SPORT-suite SFQ multipliers (its depth is what makes the SFQ-mapped
/// gate count large: every skipped level costs a path-balancing DFF).
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// use sfq_circuits::mult::array_multiplier;
///
/// let net = array_multiplier(4);
/// assert_eq!(net.num_inputs(), 8);
/// assert_eq!(net.num_outputs(), 8);
/// ```
pub fn array_multiplier(n: usize) -> LogicNetwork {
    assert!(n >= 2, "multiplier width must be at least 2");
    let mut net = LogicNetwork::new(format!("MULT{n}"));
    let a: Vec<NodeId> = (0..n).map(|i| net.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..n).map(|i| net.input(format!("b{i}"))).collect();

    // Partial products pp[j][i] = a_i AND b_j (weight 2^{i+j}).
    let pp: Vec<Vec<NodeId>> = (0..n)
        .map(|j| (0..n).map(|i| net.and2(a[i], b[j])).collect())
        .collect();

    // outputs[j] = final bit m_j once its column can no longer change.
    let mut outputs: Vec<NodeId> = Vec::with_capacity(2 * n);
    outputs.push(pp[0][0]);

    // acc[i] = bit at position (j + 1 + i) of the running sum after row j;
    // after row 0 it covers positions 1..n (top entry: constant 0).
    let mut acc: Vec<Option<NodeId>> = (1..n).map(|i| Some(pp[0][i])).collect();
    acc.push(None);

    #[allow(clippy::needless_range_loop)] // parallel-array indexing
    for j in 1..n {
        // acc covers positions j..j+n−1, exactly aligned with pp[j].
        let mut carry: Option<NodeId> = None;
        let mut next: Vec<Option<NodeId>> = Vec::with_capacity(n);
        for i in 0..n {
            let (s, c) = add3(&mut net, Some(pp[j][i]), acc[i], carry);
            carry = c;
            if i == 0 {
                outputs.push(
                    s.unwrap_or_else(|| unreachable!("add3 with pp[j][i] present yields a sum")),
                );
            } else {
                next.push(s);
            }
        }
        next.push(carry);
        acc = next;
    }

    // Low bits m_0..m_{n−1} finalized row by row.
    for (i, node) in outputs.iter().enumerate() {
        net.output(format!("m{i}"), *node);
    }
    // Remaining accumulator bits are m_n..m_{2n−1}; absent bits are zero,
    // which cannot occur here except possibly at the very top.
    for (i, bit) in acc.iter().enumerate() {
        let pos = n + i;
        match bit {
            Some(node) => {
                net.output(format!("m{pos}"), *node);
            }
            None => {
                // Constant-zero top bit: synthesize x XOR x from a stable
                // signal to keep the output count at 2n without a constant
                // cell in the IR.
                let zero = net.xor2(a[0], a[0]);
                net.output(format!("m{pos}"), zero);
            }
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiply(net: &LogicNetwork, n: usize, a: u64, b: u64) -> u64 {
        let mut inputs = Vec::with_capacity(2 * n);
        for i in 0..n {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..n {
            inputs.push((b >> i) & 1 == 1);
        }
        let outs = net.evaluate(&inputs);
        let mut result = 0u64;
        for (i, (_, v)) in outs.iter().enumerate() {
            if *v {
                result |= 1 << i;
            }
        }
        result
    }

    #[test]
    fn mult2_exhaustive() {
        let net = array_multiplier(2);
        for a in 0..4u64 {
            for b in 0..4u64 {
                assert_eq!(multiply(&net, 2, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn mult4_exhaustive() {
        let net = array_multiplier(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(multiply(&net, 4, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn mult8_sampled() {
        let net = array_multiplier(8);
        for (a, b) in [(0, 0), (255, 255), (13, 17), (128, 2), (99, 201), (255, 1)] {
            assert_eq!(multiply(&net, 8, a, b), a * b, "{a}*{b}");
        }
    }

    #[test]
    fn mult3_exhaustive_odd_width() {
        let net = array_multiplier(3);
        for a in 0..8u64 {
            for b in 0..8u64 {
                assert_eq!(multiply(&net, 3, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn size_grows_quadratically() {
        let g4 = array_multiplier(4).num_gates();
        let g8 = array_multiplier(8).num_gates();
        // n² partial products + n² adder cells dominate: expect ~4x.
        assert!(g8 > 3 * g4, "g4={g4} g8={g8}");
        assert!(g8 < 6 * g4, "g4={g4} g8={g8}");
    }

    #[test]
    fn output_count_is_2n() {
        assert_eq!(array_multiplier(4).num_outputs(), 8);
        assert_eq!(array_multiplier(8).num_outputs(), 16);
    }
}
