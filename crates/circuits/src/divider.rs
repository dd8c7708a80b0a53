//! Unrolled restoring integer dividers (the paper's ID4/ID8).
//!
//! An `n`-bit restoring divider computes `q = d / v` and `r = d mod v` with
//! `n` iterations of shift–trial-subtract–select. Unrolled combinationally
//! (as an SFQ gate-level pipeline must be), each stage is an `(n+1)`-bit
//! borrow-ripple subtractor plus an `n`-bit restore multiplexer, making the
//! divider by far the deepest circuit of the suite — and, after SFQ path
//! balancing, the largest (the paper's ID8 has 3 209 gates).

// Remainder/quotient bit vectors indexed 0..n by construction.
#![allow(clippy::indexing_slicing)]

use crate::logic::{Bit, LogicNetwork, NodeId};

/// One-bit full subtractor `a − b − bin`, returning `(difference, borrow)`.
fn subtract_bit(net: &mut LogicNetwork, a: Bit, b: Bit, bin: Bit) -> (Bit, Bit) {
    let axb = Bit::xor(net, a, b);
    let d = Bit::xor(net, axb, bin);
    let na = Bit::not(net, a);
    let t1 = Bit::and(net, na, b);
    let naxb = Bit::not(net, axb);
    let t2 = Bit::and(net, bin, naxb);
    let bout = Bit::or(net, t1, t2);
    (d, bout)
}

/// Builds an `n`-bit restoring divider: inputs `d[0..n]` (dividend) and
/// `v[0..n]` (divisor), outputs `q[0..n]` (quotient) and `r[0..n]`
/// (remainder).
///
/// Division by zero yields `q = all-ones`-ish garbage exactly as the
/// hardware would; callers validating arithmetic should use `v ≥ 1`.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// use sfq_circuits::divider::restoring_divider;
///
/// let net = restoring_divider(4);
/// assert_eq!(net.num_inputs(), 8);
/// assert_eq!(net.num_outputs(), 8);
/// ```
pub fn restoring_divider(n: usize) -> LogicNetwork {
    assert!(n >= 2, "divider width must be at least 2");
    let mut net = LogicNetwork::new(format!("ID{n}"));
    let d: Vec<NodeId> = (0..n).map(|i| net.input(format!("d{i}"))).collect();
    let v: Vec<NodeId> = (0..n).map(|i| net.input(format!("v{i}"))).collect();
    let vb: Vec<Bit> = v.iter().map(|&x| Bit::Node(x)).collect();

    // Remainder register (n bits), initially zero.
    let mut r: Vec<Bit> = vec![Bit::Zero; n];
    let mut q: Vec<Bit> = vec![Bit::Zero; n];

    for step in (0..n).rev() {
        // Shift in the next dividend bit: r' = (r << 1) | d[step], n+1 bits.
        let mut shifted: Vec<Bit> = Vec::with_capacity(n + 1);
        shifted.push(Bit::Node(d[step]));
        shifted.extend_from_slice(&r);

        // Trial subtract r' − v over n+1 bits (divisor zero-extended).
        let mut borrow = Bit::Zero;
        let mut trial: Vec<Bit> = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let b = if i < n { vb[i] } else { Bit::Zero };
            let (diff, bout) = subtract_bit(&mut net, shifted[i], b, borrow);
            trial.push(diff);
            borrow = bout;
        }

        // borrow == 0 ⇒ r' ≥ v: keep the difference, set the quotient bit.
        q[step] = Bit::not(&mut net, borrow);
        for i in 0..n {
            r[i] = Bit::mux(&mut net, borrow, shifted[i], trial[i]);
        }
    }

    let anchor = d[0];
    for (i, bit) in q.iter().enumerate() {
        let node = bit.materialize(&mut net, anchor);
        net.output(format!("q{i}"), node);
    }
    for (i, bit) in r.iter().enumerate() {
        let node = bit.materialize(&mut net, anchor);
        net.output(format!("r{i}"), node);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divide(net: &LogicNetwork, n: usize, d: u64, v: u64) -> (u64, u64) {
        let mut inputs = Vec::with_capacity(2 * n);
        for i in 0..n {
            inputs.push((d >> i) & 1 == 1);
        }
        for i in 0..n {
            inputs.push((v >> i) & 1 == 1);
        }
        let outs = net.evaluate(&inputs);
        let mut q = 0u64;
        let mut r = 0u64;
        for (name, value) in outs {
            if !value {
                continue;
            }
            let idx: u64 = name[1..].parse().expect("q#/r# output names");
            if name.starts_with('q') {
                q |= 1 << idx;
            } else {
                r |= 1 << idx;
            }
        }
        (q, r)
    }

    #[test]
    fn id4_divides_exhaustively() {
        let net = restoring_divider(4);
        for d in 0..16u64 {
            for v in 1..16u64 {
                let (q, r) = divide(&net, 4, d, v);
                assert_eq!(q, d / v, "{d}/{v} quotient");
                assert_eq!(r, d % v, "{d}%{v} remainder");
            }
        }
    }

    #[test]
    fn id8_divides_on_a_sample() {
        let net = restoring_divider(8);
        for (d, v) in [(255, 1), (255, 255), (200, 7), (100, 13), (97, 10), (0, 5)] {
            let (q, r) = divide(&net, 8, d, v);
            assert_eq!(q, d / v, "{d}/{v}");
            assert_eq!(r, d % v, "{d}%{v}");
        }
    }

    #[test]
    fn divider_is_the_deepest_circuit() {
        use crate::ksa::kogge_stone_adder;
        let id4 = restoring_divider(4);
        let ksa4 = kogge_stone_adder(4);
        assert!(id4.depth() > 2 * ksa4.depth());
    }

    #[test]
    fn size_grows_superquadratically() {
        let g4 = restoring_divider(4).num_gates();
        let g8 = restoring_divider(8).num_gates();
        assert!(g8 > 3 * g4, "g4={g4} g8={g8}");
    }
}
