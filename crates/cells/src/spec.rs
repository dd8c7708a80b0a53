//! Cell kinds and their physical specifications.

use std::fmt;
use std::str::FromStr;

use crate::units::{MilliAmps, SquareMicrons};

/// The catalogue of SFQ cell types understood by the workspace.
///
/// The set mirrors the cells found in typical RSFQ/ERSFQ libraries such as the
/// USC SPORT-lab / MIT-LL families: clocked Boolean gates, storage elements,
/// pulse-routing cells, and the driver/receiver pair used for inductively
/// coupled transfer between ground planes.
///
/// # Example
///
/// ```
/// use sfq_cells::CellKind;
///
/// assert!(CellKind::And2.is_clocked());
/// assert!(!CellKind::Splitter.is_clocked());
/// assert_eq!("XOR2".parse::<CellKind>()?, CellKind::Xor2);
/// # Ok::<(), sfq_cells::ParseCellKindError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // Variant names are the cell names; per-variant docs add nothing.
pub enum CellKind {
    /// Clocked two-input AND gate.
    And2,
    /// Clocked two-input OR gate.
    Or2,
    /// Clocked two-input XOR gate.
    Xor2,
    /// Clocked inverter (NOT).
    Not,
    /// Clocked D flip-flop; also used for path balancing.
    Dff,
    /// Unclocked 1-to-2 pulse splitter (SFQ fanout element).
    Splitter,
    /// Unclocked 2-to-1 confluence buffer (merger).
    Merger,
    /// Josephson transmission line segment (unclocked buffer).
    Jtl,
    /// Toggle flip-flop.
    Tff,
    /// Non-destructive read-out cell.
    Ndro,
    /// Driver half of an inductively coupled inter-plane link.
    PtlTx,
    /// Receiver half of an inductively coupled inter-plane link.
    PtlRx,
    /// Input pad / I/O interface cell (shares the common perimeter ground).
    InputPad,
    /// Output pad / I/O interface cell.
    OutputPad,
    /// Bias-compensation dummy: a shunted JJ stack passing a fixed unit of
    /// excess supply current (paper §III-B1's "dummy circuit structures").
    BiasDummy,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 15] = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Not,
        CellKind::Dff,
        CellKind::Splitter,
        CellKind::Merger,
        CellKind::Jtl,
        CellKind::Tff,
        CellKind::Ndro,
        CellKind::PtlTx,
        CellKind::PtlRx,
        CellKind::InputPad,
        CellKind::OutputPad,
        CellKind::BiasDummy,
    ];

    /// Canonical library name of the cell (uppercase, as it appears in DEF).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Not => "NOT",
            CellKind::Dff => "DFF",
            CellKind::Splitter => "SPLIT",
            CellKind::Merger => "MERGE",
            CellKind::Jtl => "JTL",
            CellKind::Tff => "TFF",
            CellKind::Ndro => "NDRO",
            CellKind::PtlTx => "PTLTX",
            CellKind::PtlRx => "PTLRX",
            CellKind::InputPad => "INPAD",
            CellKind::OutputPad => "OUTPAD",
            CellKind::BiasDummy => "DUMMY",
        }
    }

    /// Whether the cell consumes a clock pulse on every cycle.
    ///
    /// Clocked cells are the reason SFQ circuits are gate-level pipelined and
    /// need a clock-distribution splitter tree.
    pub fn is_clocked(self) -> bool {
        matches!(
            self,
            CellKind::And2
                | CellKind::Or2
                | CellKind::Xor2
                | CellKind::Not
                | CellKind::Dff
                | CellKind::Ndro
        )
    }

    /// Whether the cell is a perimeter I/O pad (excluded from partitioning —
    /// pads share the chip's common perimeter ground in the paper's model).
    pub fn is_pad(self) -> bool {
        matches!(self, CellKind::InputPad | CellKind::OutputPad)
    }

    /// Number of signal (data) input pins, excluding the clock pin.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::And2 | CellKind::Or2 | CellKind::Xor2 | CellKind::Merger => 2,
            CellKind::Not
            | CellKind::Dff
            | CellKind::Splitter
            | CellKind::Jtl
            | CellKind::Tff
            | CellKind::Ndro
            | CellKind::PtlTx
            | CellKind::OutputPad => 1,
            CellKind::PtlRx | CellKind::InputPad | CellKind::BiasDummy => 0,
        }
    }

    /// Number of signal output pins.
    pub fn num_outputs(self) -> usize {
        match self {
            CellKind::Splitter => 2,
            CellKind::OutputPad | CellKind::PtlTx | CellKind::BiasDummy => 0,
            _ => 1,
        }
    }

    /// Typical pulse propagation delay in ps (RSFQ-era cell libraries;
    /// clock-to-Q for clocked cells).
    pub fn default_delay_ps(self) -> f64 {
        match self {
            CellKind::And2 | CellKind::Xor2 => 7.0,
            CellKind::Or2 => 6.0,
            CellKind::Not => 5.5,
            CellKind::Dff => 5.0,
            CellKind::Splitter => 4.0,
            CellKind::Merger => 5.0,
            CellKind::Jtl => 3.0,
            CellKind::Tff => 6.0,
            CellKind::Ndro => 7.0,
            // One inductive boundary crossing: driver + receiver.
            CellKind::PtlTx | CellKind::PtlRx => 12.5,
            CellKind::InputPad | CellKind::OutputPad | CellKind::BiasDummy => 0.0,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown cell name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCellKindError {
    name: String,
}

impl ParseCellKindError {
    /// The unrecognised name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for ParseCellKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown SFQ cell kind `{}`", self.name)
    }
}

impl std::error::Error for ParseCellKindError {}

impl FromStr for CellKind {
    type Err = ParseCellKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        CellKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == upper)
            .ok_or(ParseCellKindError { name: s.to_owned() })
    }
}

/// Physical specification of one cell type.
///
/// # Example
///
/// ```
/// use sfq_cells::{CellLibrary, CellKind};
///
/// let lib = CellLibrary::calibrated();
/// let dff = lib.spec(CellKind::Dff);
/// assert_eq!(dff.num_inputs, 1);
/// assert!(dff.jj_count >= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Which cell this spec describes.
    pub kind: CellKind,
    /// Number of Josephson junctions in the cell.
    pub jj_count: u32,
    /// DC bias current requirement `b_i`.
    pub bias_current: MilliAmps,
    /// Layout footprint `a_i`.
    pub area: SquareMicrons,
    /// Pulse propagation delay through the cell, ps (clock-to-output for
    /// clocked cells, input-to-output for routing cells).
    pub delay_ps: f64,
    /// Number of signal input pins (clock excluded).
    pub num_inputs: usize,
    /// Number of signal output pins.
    pub num_outputs: usize,
    /// Whether the cell consumes a clock pulse.
    pub clocked: bool,
}

impl CellSpec {
    /// Builds a spec with the kind's default delay; pin counts and
    /// clockedness are derived from `kind`.
    pub fn new(
        kind: CellKind,
        jj_count: u32,
        bias_current: MilliAmps,
        area: SquareMicrons,
    ) -> Self {
        CellSpec {
            kind,
            jj_count,
            bias_current,
            area,
            delay_ps: kind.default_delay_ps(),
            num_inputs: kind.num_inputs(),
            num_outputs: kind.num_outputs(),
            clocked: kind.is_clocked(),
        }
    }

    /// Overrides the propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ps` is negative or non-finite.
    pub fn with_delay_ps(mut self, delay_ps: f64) -> Self {
        assert!(
            delay_ps.is_finite() && delay_ps >= 0.0,
            "delay must be a non-negative finite value"
        );
        self.delay_ps = delay_ps;
        self
    }

    /// Whether the cell consumes a clock pulse (mirror of [`CellKind::is_clocked`]).
    pub fn is_clocked(&self) -> bool {
        self.clocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for kind in CellKind::ALL {
            let parsed: CellKind = kind.name().parse().expect("canonical name must parse");
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("split".parse::<CellKind>().unwrap(), CellKind::Splitter);
        assert_eq!("Dff".parse::<CellKind>().unwrap(), CellKind::Dff);
    }

    #[test]
    fn parse_unknown_reports_name() {
        let err = "NAND9".parse::<CellKind>().unwrap_err();
        assert_eq!(err.name(), "NAND9");
        assert!(err.to_string().contains("NAND9"));
    }

    #[test]
    fn clocked_set_matches_sfq_convention() {
        // Boolean gates and storage are clocked; routing cells are not.
        assert!(CellKind::And2.is_clocked());
        assert!(CellKind::Or2.is_clocked());
        assert!(CellKind::Xor2.is_clocked());
        assert!(CellKind::Not.is_clocked());
        assert!(CellKind::Dff.is_clocked());
        assert!(!CellKind::Splitter.is_clocked());
        assert!(!CellKind::Merger.is_clocked());
        assert!(!CellKind::Jtl.is_clocked());
        assert!(!CellKind::PtlTx.is_clocked());
    }

    #[test]
    fn pin_counts() {
        assert_eq!(CellKind::And2.num_inputs(), 2);
        assert_eq!(CellKind::And2.num_outputs(), 1);
        assert_eq!(CellKind::Splitter.num_inputs(), 1);
        assert_eq!(CellKind::Splitter.num_outputs(), 2);
        assert_eq!(CellKind::Merger.num_inputs(), 2);
        assert_eq!(CellKind::InputPad.num_inputs(), 0);
        assert_eq!(CellKind::OutputPad.num_outputs(), 0);
    }

    #[test]
    fn pads_are_pads() {
        assert!(CellKind::InputPad.is_pad());
        assert!(CellKind::OutputPad.is_pad());
        assert!(!CellKind::And2.is_pad());
    }

    #[test]
    fn spec_derives_pins_from_kind() {
        let s = CellSpec::new(
            CellKind::Xor2,
            11,
            MilliAmps::new(1.3),
            SquareMicrons::new(7800.0),
        );
        assert_eq!(s.num_inputs, 2);
        assert_eq!(s.num_outputs, 1);
        assert!(s.is_clocked());
    }

    #[test]
    fn display_uses_canonical_name() {
        assert_eq!(CellKind::PtlRx.to_string(), "PTLRX");
    }

    #[test]
    fn default_delays_are_sane() {
        for kind in CellKind::ALL {
            let d = kind.default_delay_ps();
            assert!(d.is_finite() && d >= 0.0, "{kind}");
            // Pads and dummies carry no signal: zero delay is correct.
            if !kind.is_pad() && kind != CellKind::BiasDummy {
                assert!(d > 0.0, "{kind} must take time");
            }
        }
        // Routing cells are faster than logic.
        assert!(CellKind::Jtl.default_delay_ps() < CellKind::And2.default_delay_ps());
    }

    #[test]
    fn with_delay_overrides() {
        let s = CellSpec::new(
            CellKind::Jtl,
            2,
            MilliAmps::new(0.25),
            SquareMicrons::new(1200.0),
        )
        .with_delay_ps(9.5);
        assert_eq!(s.delay_ps, 9.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn with_delay_rejects_negative() {
        let _ = CellSpec::new(
            CellKind::Jtl,
            2,
            MilliAmps::new(0.25),
            SquareMicrons::new(1200.0),
        )
        .with_delay_ps(-1.0);
    }
}
