//! Calibrated synthetic SFQ netlists standing in for the ISCAS85 circuits.
//!
//! The paper's five ISCAS rows (C432, C499, C1355, C1908, C3540) use the
//! SPORT lab's SFQ-mapped versions of the ISCAS85 benchmarks, which are not
//! redistributable. Since the partitioner consumes only the connection set
//! and the per-gate bias/area vectors, a faithful *statistical* stand-in
//! suffices: this module generates random layered DAGs whose
//!
//! * gate count `G` and gate-to-gate connection count `C` match the paper's
//!   Table I **exactly** (by construction), and
//! * cell-kind mix matches the splitter/DFF/logic proportions of a mapped
//!   SFQ netlist, reproducing the suite's ≈0.86 mA and ≈4 840 µm² per-gate
//!   averages.
//!
//! Wiring uses a recency-biased driver choice (exponential lookback), which
//! yields the mostly-feed-forward locality of technology-mapped logic; the
//! `locality` knob controls how far back a gate may reach.

// Parallel arrays (ids, kinds, next_in) all sized g and indexed by the
// same loop variable.
#![allow(clippy::indexing_slicing)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sfq_cells::{CellKind, CellLibrary};
use sfq_netlist::Netlist;

/// Parameters of a synthetic netlist.
///
/// # Example
///
/// ```
/// use sfq_cells::CellLibrary;
/// use sfq_circuits::synthetic::{synthetic_netlist, SyntheticSpec};
///
/// let spec = SyntheticSpec::new("C432", 1216, 1434, 42);
/// let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
/// let stats = netlist.stats();
/// assert_eq!(stats.num_gates, 1216);
/// assert_eq!(stats.num_connections, 1434);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Design name.
    pub name: String,
    /// Exact number of non-pad gates to generate.
    pub num_gates: usize,
    /// Exact number of gate-to-gate connections to generate.
    pub num_connections: usize,
    /// RNG seed (same seed => identical netlist).
    pub seed: u64,
    /// Mean driver lookback as a fraction of the gate count; smaller values
    /// produce more feed-forward, pipeline-like structure.
    pub locality: f64,
    /// Number of source gates (driven only by input pads).
    pub num_sources: usize,
}

impl SyntheticSpec {
    /// Creates a spec with the default locality (3 %) and source count
    /// (`max(4, G/50)`).
    ///
    /// # Panics
    ///
    /// Panics if the counts are infeasible: fewer than 8 gates, or a
    /// connection count outside what unit-fanout SFQ structure permits
    /// (`G − sources ≤ C ≤ 2·(G − sources)`).
    pub fn new(
        name: impl Into<String>,
        num_gates: usize,
        num_connections: usize,
        seed: u64,
    ) -> Self {
        assert!(num_gates >= 8, "synthetic circuits need at least 8 gates");
        let num_sources = (num_gates / 50).max(4);
        let lo = num_gates - num_sources;
        // Every 2-input gate is paired with a splitter (so the running slot
        // balance never dips), capping connections at 1.5*(G - sources).
        let hi = lo + lo / 2;
        assert!(
            (lo..=hi).contains(&num_connections),
            "connection count {num_connections} infeasible for {num_gates} gates \
             ({num_sources} sources): must be in {lo}..={hi}"
        );
        SyntheticSpec {
            name: name.into(),
            num_gates,
            num_connections,
            seed,
            locality: 0.03,
            num_sources,
        }
    }

    /// Overrides the locality knob.
    ///
    /// # Panics
    ///
    /// Panics if `locality` is not positive.
    pub fn with_locality(mut self, locality: f64) -> Self {
        assert!(locality > 0.0, "locality must be positive");
        self.locality = locality;
        self
    }
}

/// Generates the netlist described by `spec`.
///
/// Gate and connection counts are exact; leftover output slots are tied to
/// output pads so the design has a complete I/O ring.
pub fn synthetic_netlist(spec: &SyntheticSpec, library: CellLibrary) -> Netlist {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let g = spec.num_gates;
    let n_src = spec.num_sources;

    // Count bookkeeping (see module docs):
    //   C = (G − n_src) + n_two  ⇒  n_two 2-input gates, each paired with a
    //   splitter so the running open-slot balance never dips below n_src.
    let n_two = spec.num_connections - (g - n_src);
    let n_split = n_two;
    let n_filler = g - n_src - n_two - n_split;

    // Kind sequence: sources first, then shuffled *blocks* — a block is
    // either [Splitter, 2-input gate] (net slot balance 0, splitter first)
    // or a single 1-in/1-out filler (net 0). Prefix-safety by construction.
    let mut kinds: Vec<CellKind> = Vec::with_capacity(g);
    for _ in 0..n_src {
        kinds.push(CellKind::Dff);
    }
    let mut blocks: Vec<Vec<CellKind>> = Vec::with_capacity(n_two + n_filler);
    for i in 0..n_two {
        let gate = match i % 3 {
            0 => CellKind::And2,
            1 => CellKind::Xor2,
            _ => CellKind::Or2,
        };
        blocks.push(vec![CellKind::Splitter, gate]);
    }
    // Filler mix tuned so the whole netlist averages ~0.86 mA per gate.
    for i in 0..n_filler {
        blocks.push(vec![match i % 20 {
            0..=11 => CellKind::Dff,
            12..=16 => CellKind::Not,
            _ => CellKind::Jtl,
        }]);
    }
    blocks.shuffle(&mut rng);
    for block in blocks {
        kinds.extend(block);
    }

    let mut netlist = Netlist::new(spec.name.clone(), library);
    let ids: Vec<_> = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| netlist.add_cell(format!("g{i}"), k))
        .collect();

    // Input pads feed the sources (pad arcs are excluded from the paper's
    // connection counts).
    #[allow(clippy::needless_range_loop)] // parallel-array indexing
    for s in 0..n_src {
        let pad = netlist.add_cell(format!("in{s}"), CellKind::InputPad);
        netlist
            .connect(format!("pi{s}"), pad, 0, &[(ids[s], 0)])
            .unwrap_or_else(|e| unreachable!("source pin 0 exists: {e}"));
    }

    // Recency-biased wiring: `open[j]` = (node, output pin) slots still free.
    let mean_lookback = (spec.locality * g as f64).max(2.0);
    let mut open: Vec<(usize, usize)> = (0..n_src).map(|s| (s, 0)).collect();
    let mut net_counter = 0usize;
    let mut next_in = vec![0usize; g];
    for i in n_src..g {
        let fanin = kinds[i].num_inputs();
        for _ in 0..fanin {
            debug_assert!(!open.is_empty(), "slot accounting guarantees supply");
            let lookback = (-rng.random::<f64>().max(1e-12).ln() * mean_lookback) as usize;
            let idx = open.len() - 1 - lookback.min(open.len() - 1);
            let (driver, pin) = open.remove(idx);
            netlist
                .connect(
                    format!("n{net_counter}"),
                    ids[driver],
                    pin,
                    &[(ids[i], next_in[i])],
                )
                .unwrap_or_else(|e| unreachable!("pins tracked in range by `open`: {e}"));
            net_counter += 1;
            next_in[i] += 1;
        }
        for pin in 0..kinds[i].num_outputs() {
            open.push((i, pin));
        }
    }

    // Tie leftover slots to output pads.
    for (o, (driver, pin)) in open.into_iter().enumerate() {
        let pad = netlist.add_cell(format!("out{o}"), CellKind::OutputPad);
        netlist
            .connect(format!("po{o}"), ids[driver], pin, &[(pad, 0)])
            .unwrap_or_else(|e| unreachable!("pad pin 0 exists: {e}"));
    }
    debug_assert!(netlist.validate().is_ok());
    netlist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gate_and_connection_counts() {
        for (g, c) in [(100, 120), (500, 610), (1216, 1434), (991, 1318)] {
            let spec = SyntheticSpec::new("t", g, c, 7);
            let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
            let stats = netlist.stats();
            assert_eq!(stats.num_gates, g, "gates for ({g},{c})");
            assert_eq!(stats.num_connections, c, "connections for ({g},{c})");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = SyntheticSpec::new("t", 200, 250, 3);
        let a = synthetic_netlist(&spec, CellLibrary::calibrated());
        let b = synthetic_netlist(&spec, CellLibrary::calibrated());
        assert_eq!(a.stats(), b.stats());
        let spec2 = SyntheticSpec::new("t", 200, 250, 4);
        let c = synthetic_netlist(&spec2, CellLibrary::calibrated());
        // Same aggregate counts, different wiring.
        assert_eq!(a.stats().num_connections, c.stats().num_connections);
    }

    #[test]
    fn validates_cleanly() {
        let spec = SyntheticSpec::new("t", 300, 380, 11);
        let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
        netlist.validate().expect("structurally valid");
    }

    #[test]
    fn mean_bias_lands_near_calibration_target() {
        let spec = SyntheticSpec::new("t", 1216, 1434, 42);
        let stats = synthetic_netlist(&spec, CellLibrary::calibrated()).stats();
        let mean = stats.mean_bias_per_gate().as_milliamps();
        assert!(
            (0.70..=1.00).contains(&mean),
            "per-gate bias {mean} strays from the 0.86 mA target"
        );
    }

    #[test]
    fn locality_controls_structure_depth() {
        let tight = SyntheticSpec::new("t", 400, 500, 5).with_locality(0.01);
        let loose = SyntheticSpec::new("t", 400, 500, 5).with_locality(0.5);
        let nt = synthetic_netlist(&tight, CellLibrary::calibrated());
        let nl = synthetic_netlist(&loose, CellLibrary::calibrated());
        use sfq_netlist::ConnectivityGraph;
        let dt = ConnectivityGraph::of(&nt).levels().depth();
        let dl = ConnectivityGraph::of(&nl).levels().depth();
        assert!(
            dt > dl,
            "tight locality should yield deeper chains ({dt} vs {dl})"
        );
    }

    #[test]
    fn generated_graph_is_a_dag() {
        let spec = SyntheticSpec::new("t", 250, 300, 9);
        let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
        use sfq_netlist::ConnectivityGraph;
        assert!(ConnectivityGraph::of(&netlist)
            .topological_order()
            .is_some());
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_too_many_connections() {
        let _ = SyntheticSpec::new("t", 100, 500, 1);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_too_few_connections() {
        let _ = SyntheticSpec::new("t", 100, 50, 1);
    }
}
