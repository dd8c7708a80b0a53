//! Summary statistics for a netlist, in the units of the paper's Table I.

use std::collections::BTreeMap;
use std::fmt;

use sfq_cells::{CellKind, MilliAmps, SquareMicrons};

use crate::model::Netlist;

/// Aggregated properties of a netlist.
///
/// `num_gates`, `num_connections`, `total_bias` and `total_area` correspond to
/// the `# Gates`, `# Connections`, `B_cir` and `A_cir` columns of Table I.
/// Perimeter pads are excluded from all four, matching the paper's model
/// where pads share the chip's common ground.
///
/// # Example
///
/// ```
/// use sfq_cells::{CellKind, CellLibrary};
/// use sfq_netlist::Netlist;
///
/// let mut nl = Netlist::new("toy", CellLibrary::calibrated());
/// let a = nl.add_cell("a", CellKind::Dff);
/// let b = nl.add_cell("b", CellKind::And2);
/// nl.connect("n", a, 0, &[(b, 0)])?;
/// let stats = nl.stats();
/// assert_eq!(stats.num_gates, 2);
/// assert_eq!(stats.num_connections, 1);
/// # Ok::<(), sfq_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Number of non-pad gates (`# Gates`).
    pub num_gates: usize,
    /// Number of gate-to-gate connections (`# Connections`).
    pub num_connections: usize,
    /// Total bias current of all gates (`B_cir`).
    pub total_bias: MilliAmps,
    /// Total gate area (`A_cir`).
    pub total_area: SquareMicrons,
    /// Number of perimeter pad cells (excluded from the figures above).
    pub num_pads: usize,
    /// Gate count per cell kind (pads included here, keyed by kind).
    pub kind_histogram: BTreeMap<CellKind, usize>,
}

impl NetlistStats {
    /// Computes the statistics of `netlist`.
    pub fn of(netlist: &Netlist) -> Self {
        let mut kind_histogram: BTreeMap<CellKind, usize> = BTreeMap::new();
        let mut num_pads = 0usize;
        let mut num_gates = 0usize;
        let mut total_bias = MilliAmps::ZERO;
        let mut total_area = SquareMicrons::ZERO;
        for (_, cell) in netlist.cells() {
            *kind_histogram.entry(cell.kind).or_insert(0) += 1;
            if cell.kind.is_pad() {
                num_pads += 1;
            } else {
                num_gates += 1;
                total_bias += netlist.library().bias_current(cell.kind);
                total_area += netlist.library().area(cell.kind);
            }
        }
        NetlistStats {
            num_gates,
            num_connections: netlist.connections_between_gates().count(),
            total_bias,
            total_area,
            num_pads,
            kind_histogram,
        }
    }

    /// Mean bias current per gate; zero for an empty netlist.
    pub fn mean_bias_per_gate(&self) -> MilliAmps {
        if self.num_gates == 0 {
            MilliAmps::ZERO
        } else {
            self.total_bias / self.num_gates as f64
        }
    }

    /// Mean area per gate; zero for an empty netlist.
    pub fn mean_area_per_gate(&self) -> SquareMicrons {
        if self.num_gates == 0 {
            SquareMicrons::ZERO
        } else {
            self.total_area / self.num_gates as f64
        }
    }

    /// Connections per gate ratio; zero for an empty netlist.
    pub fn connectivity_ratio(&self) -> f64 {
        if self.num_gates == 0 {
            0.0
        } else {
            self.num_connections as f64 / self.num_gates as f64
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gates: {}  connections: {}  pads: {}",
            self.num_gates, self.num_connections, self.num_pads
        )?;
        writeln!(
            f,
            "B_cir: {:.3}  A_cir: {:.4} mm^2",
            self.total_bias,
            self.total_area.as_square_millimeters()
        )?;
        for (kind, count) in &self.kind_histogram {
            writeln!(f, "  {kind:>6}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::CellLibrary;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("s", CellLibrary::calibrated());
        let p = nl.add_cell("pad", CellKind::InputPad);
        let a = nl.add_cell("a", CellKind::Dff);
        let s = nl.add_cell("s", CellKind::Splitter);
        let g = nl.add_cell("g", CellKind::Xor2);
        nl.connect("n0", p, 0, &[(a, 0)]).unwrap();
        nl.connect("n1", a, 0, &[(s, 0)]).unwrap();
        nl.connect("n2", s, 0, &[(g, 0)]).unwrap();
        nl.connect("n3", s, 1, &[(g, 1)]).unwrap();
        nl
    }

    #[test]
    fn counts_exclude_pads() {
        let st = sample().stats();
        assert_eq!(st.num_gates, 3);
        assert_eq!(st.num_pads, 1);
        // pad->a arc excluded.
        assert_eq!(st.num_connections, 3);
    }

    #[test]
    fn totals_exclude_pads() {
        let nl = sample();
        let st = nl.stats();
        let lib = nl.library();
        let expect = lib.bias_current(CellKind::Dff)
            + lib.bias_current(CellKind::Splitter)
            + lib.bias_current(CellKind::Xor2);
        assert_eq!(st.total_bias, expect);
    }

    #[test]
    fn histogram_counts_everything() {
        let st = sample().stats();
        assert_eq!(st.kind_histogram[&CellKind::InputPad], 1);
        assert_eq!(st.kind_histogram[&CellKind::Splitter], 1);
        assert_eq!(st.kind_histogram.values().sum::<usize>(), 4);
    }

    #[test]
    fn means_and_ratio() {
        let st = sample().stats();
        assert!(st.mean_bias_per_gate() > MilliAmps::ZERO);
        assert!(st.mean_area_per_gate() > SquareMicrons::ZERO);
        assert!((st.connectivity_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_netlist_stats_are_zero() {
        let nl = Netlist::new("e", CellLibrary::calibrated());
        let st = nl.stats();
        assert_eq!(st.num_gates, 0);
        assert_eq!(st.mean_bias_per_gate(), MilliAmps::ZERO);
        assert_eq!(st.connectivity_ratio(), 0.0);
    }

    #[test]
    fn display_contains_headline_numbers() {
        let text = sample().stats().to_string();
        assert!(text.contains("gates: 3"));
        assert!(text.contains("B_cir"));
    }
}
