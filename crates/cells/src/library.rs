//! The cell library: a catalogue of [`CellSpec`]s.

use std::collections::BTreeMap;

use crate::spec::{CellKind, CellSpec};
use crate::units::{MilliAmps, SquareMicrons};

/// A complete SFQ cell library.
///
/// [`CellLibrary::calibrated`] returns the default library used throughout the
/// workspace. Its bias currents and areas are calibrated so that technology-
/// mapped benchmark circuits reproduce the per-gate averages implied by
/// Table I of the DATE 2020 paper (≈0.86 mA and ≈4 840 µm² per gate across
/// the mapped mix of logic cells, path-balancing DFFs and splitter trees).
///
/// # Example
///
/// ```
/// use sfq_cells::{CellLibrary, CellKind, MilliAmps, SquareMicrons, CellSpec};
///
/// // Query the calibrated library…
/// let lib = CellLibrary::calibrated();
/// assert!(lib.spec(CellKind::Splitter).bias_current < lib.spec(CellKind::And2).bias_current);
///
/// // …or build a custom one.
/// let mut custom = CellLibrary::new("toy");
/// custom.insert(CellSpec::new(
///     CellKind::Jtl, 2, MilliAmps::new(0.2), SquareMicrons::new(900.0),
/// ));
/// assert_eq!(custom.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    specs: BTreeMap<CellKind, CellSpec>,
}

impl CellLibrary {
    /// Creates an empty library with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CellLibrary {
            name: name.into(),
            specs: BTreeMap::new(),
        }
    }

    /// The default calibrated library (see type-level docs).
    ///
    /// JJ counts follow typical RSFQ cell complexities; bias currents assume
    /// ~0.1 mA per biased junction pair at the usual 0.7·Ic operating point.
    pub fn calibrated() -> Self {
        let mut lib = CellLibrary::new("sport-calibrated");
        let rows: [(CellKind, u32, f64, f64); 15] = [
            // kind, JJs, bias (mA), area (µm²)
            (CellKind::And2, 11, 1.40, 8_400.0),
            (CellKind::Or2, 9, 1.20, 7_200.0),
            (CellKind::Xor2, 11, 1.30, 7_800.0),
            (CellKind::Not, 9, 1.05, 6_000.0),
            (CellKind::Dff, 6, 0.80, 4_800.0),
            (CellKind::Splitter, 3, 0.45, 2_400.0),
            (CellKind::Merger, 5, 0.75, 4_200.0),
            (CellKind::Jtl, 2, 0.25, 1_200.0),
            (CellKind::Tff, 7, 0.90, 5_400.0),
            (CellKind::Ndro, 10, 1.10, 6_600.0),
            (CellKind::PtlTx, 4, 0.50, 3_000.0),
            (CellKind::PtlRx, 4, 0.60, 3_000.0),
            (CellKind::InputPad, 0, 0.0, 12_000.0),
            (CellKind::OutputPad, 0, 0.0, 12_000.0),
            // One dummy quantum: 0.5 mA of bypassed supply current.
            (CellKind::BiasDummy, 2, 0.5, 150.0),
        ];
        for (kind, jj, bias, area) in rows {
            lib.insert(CellSpec::new(
                kind,
                jj,
                MilliAmps::new(bias),
                SquareMicrons::new(area),
            ));
        }
        lib
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts (or replaces) a spec, returning the previous one if any.
    pub fn insert(&mut self, spec: CellSpec) -> Option<CellSpec> {
        self.specs.insert(spec.kind, spec)
    }

    /// Looks up the spec for `kind`, if present.
    pub fn get(&self, kind: CellKind) -> Option<&CellSpec> {
        self.specs.get(&kind)
    }

    /// Looks up the spec for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in the library; use [`CellLibrary::get`] for a
    /// fallible lookup.
    pub fn spec(&self, kind: CellKind) -> &CellSpec {
        self.specs
            .get(&kind)
            .unwrap_or_else(|| panic!("cell kind {kind} missing from library `{}`", self.name))
    }

    /// Bias current of `kind` (panicking lookup, convenience).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in the library.
    pub fn bias_current(&self, kind: CellKind) -> MilliAmps {
        self.spec(kind).bias_current
    }

    /// Area of `kind` (panicking lookup, convenience).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in the library.
    pub fn area(&self, kind: CellKind) -> SquareMicrons {
        self.spec(kind).area
    }

    /// Number of specs in the library.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates over the specs in a stable (kind) order.
    pub fn iter(&self) -> impl Iterator<Item = &CellSpec> {
        self.specs.values()
    }

    /// Returns a copy of the library with every bias current and area scaled.
    ///
    /// Useful for what-if studies (e.g. a denser fabrication node).
    pub fn scaled(&self, bias_factor: f64, area_factor: f64) -> Self {
        let mut out = CellLibrary::new(format!("{}-scaled", self.name));
        for spec in self.iter() {
            let mut s = *spec;
            s.bias_current = s.bias_current * bias_factor;
            s.area = s.area * area_factor;
            out.insert(s);
        }
        out
    }
}

impl Default for CellLibrary {
    /// The calibrated library (see [`CellLibrary::calibrated`]).
    fn default() -> Self {
        CellLibrary::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_covers_all_kinds() {
        let lib = CellLibrary::calibrated();
        for kind in CellKind::ALL {
            assert!(lib.get(kind).is_some(), "missing {kind}");
        }
        assert_eq!(lib.len(), CellKind::ALL.len());
    }

    #[test]
    fn calibrated_quantities_are_positive_for_active_cells() {
        let lib = CellLibrary::calibrated();
        for spec in lib.iter() {
            if !spec.kind.is_pad() {
                assert!(
                    spec.bias_current > MilliAmps::ZERO,
                    "{} must draw bias",
                    spec.kind
                );
                assert!(spec.jj_count > 0, "{} must contain JJs", spec.kind);
            }
            assert!(spec.area > SquareMicrons::ZERO);
        }
    }

    #[test]
    fn pads_draw_no_bias() {
        // Pads sit on the perimeter common ground and are biased separately.
        let lib = CellLibrary::calibrated();
        assert_eq!(lib.bias_current(CellKind::InputPad), MilliAmps::ZERO);
        assert_eq!(lib.bias_current(CellKind::OutputPad), MilliAmps::ZERO);
    }

    #[test]
    fn logic_costs_more_than_routing() {
        // Sanity ordering the calibration relies on: splitters/JTLs are the
        // cheap cells, clocked Boolean gates the expensive ones.
        let lib = CellLibrary::calibrated();
        let split = lib.spec(CellKind::Splitter);
        let jtl = lib.spec(CellKind::Jtl);
        for kind in [CellKind::And2, CellKind::Or2, CellKind::Xor2, CellKind::Not] {
            let gate = lib.spec(kind);
            assert!(gate.bias_current > split.bias_current);
            assert!(gate.area > split.area);
            assert!(gate.bias_current > jtl.bias_current);
        }
    }

    #[test]
    fn insert_replaces() {
        let mut lib = CellLibrary::calibrated();
        let replaced = lib.insert(CellSpec::new(
            CellKind::Jtl,
            2,
            MilliAmps::new(0.3),
            SquareMicrons::new(1_000.0),
        ));
        assert!(replaced.is_some());
        assert_eq!(lib.bias_current(CellKind::Jtl), MilliAmps::new(0.3));
    }

    #[test]
    fn scaled_scales_both_axes() {
        let lib = CellLibrary::calibrated().scaled(2.0, 0.5);
        let base = CellLibrary::calibrated();
        let k = CellKind::Dff;
        assert_eq!(
            lib.bias_current(k).as_milliamps(),
            base.bias_current(k).as_milliamps() * 2.0
        );
        assert_eq!(
            lib.area(k).as_square_microns(),
            base.area(k).as_square_microns() * 0.5
        );
    }

    #[test]
    #[should_panic(expected = "missing from library")]
    fn spec_panics_on_missing_kind() {
        let lib = CellLibrary::new("empty");
        let _ = lib.spec(CellKind::And2);
    }

    #[test]
    fn default_is_calibrated() {
        assert_eq!(CellLibrary::default(), CellLibrary::calibrated());
    }
}
