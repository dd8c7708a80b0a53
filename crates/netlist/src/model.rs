//! Core netlist types: ids, cells, nets, and the [`Netlist`] container.

use std::fmt;

use serde::{Deserialize, Serialize};
use sfq_cells::{CellKind, CellLibrary, MilliAmps, SquareMicrons};

use crate::error::NetlistError;
use crate::stats::NetlistStats;

/// Index of a cell instance within a [`Netlist`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct CellId(pub u32);

impl CellId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Index of a net within a [`Netlist`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NetId(pub u32);

impl NetId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A reference to one pin of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PinRef {
    /// The cell owning the pin.
    pub cell: CellId,
    /// Pin index within the cell's input or output pin list (role decided by
    /// context: driver pins index outputs, sink pins index inputs).
    pub pin: usize,
}

impl PinRef {
    /// Creates a pin reference.
    pub fn new(cell: CellId, pin: usize) -> Self {
        PinRef { cell, pin }
    }
}

/// One cell instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name (unique within the netlist).
    pub name: String,
    /// Library cell type.
    pub kind: CellKind,
}

/// One signal net: a single driver pin and any number of sink pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Net name (unique within the netlist).
    pub name: String,
    /// The driving output pin.
    pub driver: PinRef,
    /// The driven input pins.
    pub sinks: Vec<PinRef>,
}

/// An ordered gate-to-gate connection, the paper's element of `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Connection {
    /// Driving gate.
    pub from: CellId,
    /// Driven gate.
    pub to: CellId,
}

impl Connection {
    /// Creates a connection.
    pub fn new(from: CellId, to: CellId) -> Self {
        Connection { from, to }
    }
}

/// A flat gate-level SFQ netlist.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    library: CellLibrary,
    cells: Vec<Cell>,
    nets: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist backed by `library`.
    pub fn new(name: impl Into<String>, library: CellLibrary) -> Self {
        Netlist {
            name: name.into(),
            library,
            cells: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The attached cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Adds a cell instance and returns its id.
    ///
    /// Name uniqueness is *not* checked here (for speed while generating);
    /// [`Netlist::validate`] checks it.
    pub fn add_cell(&mut self, name: impl Into<String>, kind: CellKind) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name: name.into(),
            kind,
        });
        id
    }

    /// Connects `driver`'s output pin `out_pin` to each `(cell, in_pin)` sink,
    /// creating a new net named `net_name`.
    ///
    /// # Errors
    ///
    /// Returns an error if any referenced cell does not exist or a pin index
    /// is out of range for its cell kind.
    pub fn connect(
        &mut self,
        net_name: impl Into<String>,
        driver: CellId,
        out_pin: usize,
        sinks: &[(CellId, usize)],
    ) -> Result<NetId, NetlistError> {
        let driver_kind = self.kind_of(driver)?;
        let available = driver_kind.num_outputs();
        if out_pin >= available {
            return Err(NetlistError::OutputPinOutOfRange {
                cell: driver,
                pin: out_pin,
                available,
            });
        }
        for &(cell, pin) in sinks {
            let kind = self.kind_of(cell)?;
            let available = kind.num_inputs();
            if pin >= available {
                return Err(NetlistError::InputPinOutOfRange {
                    cell,
                    pin,
                    available,
                });
            }
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: net_name.into(),
            driver: PinRef::new(driver, out_pin),
            sinks: sinks
                .iter()
                .map(|&(cell, pin)| PinRef::new(cell, pin))
                .collect(),
        });
        Ok(id)
    }

    /// Appends an extra sink to an existing net.
    ///
    /// # Errors
    ///
    /// Returns an error if the net or cell does not exist or the pin index is
    /// out of range.
    pub fn add_sink(&mut self, net: NetId, cell: CellId, pin: usize) -> Result<(), NetlistError> {
        let kind = self.kind_of(cell)?;
        let available = kind.num_inputs();
        if pin >= available {
            return Err(NetlistError::InputPinOutOfRange {
                cell,
                pin,
                available,
            });
        }
        let n = self
            .nets
            .get_mut(net.index())
            .ok_or(NetlistError::UnknownNet { net })?;
        n.sinks.push(PinRef::new(cell, pin));
        Ok(())
    }

    fn kind_of(&self, cell: CellId) -> Result<CellKind, NetlistError> {
        self.cells
            .get(cell.index())
            .map(|c| c.kind)
            .ok_or(NetlistError::UnknownCell { cell })
    }

    /// The cell with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of cell instances.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Finds a cell by instance name (linear scan; build your own map for
    /// repeated lookups).
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| CellId(i as u32))
    }

    /// Flattens nets to the ordered gate-to-gate connection set `E` of the
    /// paper: one [`Connection`] per driver→sink arc. Self-loops (a cell
    /// feeding itself) are skipped; pads are included — callers that follow
    /// the paper's model exclude them via
    /// [`connections_between_gates`](Netlist::connections_between_gates).
    pub fn connections(&self) -> impl Iterator<Item = Connection> + '_ {
        self.nets.iter().flat_map(|net| {
            net.sinks
                .iter()
                .filter(move |s| s.cell != net.driver.cell)
                .map(move |s| Connection::new(net.driver.cell, s.cell))
        })
    }

    /// Like [`Netlist::connections`] but excluding arcs that touch a
    /// perimeter pad cell (paper §III-B3: pads share the common ground and do
    /// not constrain the partition).
    pub fn connections_between_gates(&self) -> impl Iterator<Item = Connection> + '_ {
        self.connections()
            .filter(move |c| !self.cell(c.from).kind.is_pad() && !self.cell(c.to).kind.is_pad())
    }

    /// Bias current of cell `id` from the attached library.
    ///
    /// # Panics
    ///
    /// Panics if the cell kind is missing from the library.
    pub fn bias_of(&self, id: CellId) -> MilliAmps {
        self.library.bias_current(self.cell(id).kind)
    }

    /// Area of cell `id` from the attached library.
    ///
    /// # Panics
    ///
    /// Panics if the cell kind is missing from the library.
    pub fn area_of(&self, id: CellId) -> SquareMicrons {
        self.library.area(self.cell(id).kind)
    }

    /// Total bias current of all cells (the paper's `B_cir`).
    pub fn total_bias(&self) -> MilliAmps {
        self.cells
            .iter()
            .map(|c| self.library.bias_current(c.kind))
            .sum()
    }

    /// Total cell area (the paper's `A_cir`).
    pub fn total_area(&self) -> SquareMicrons {
        self.cells.iter().map(|c| self.library.area(c.kind)).sum()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Checks structural invariants:
    ///
    /// * all cell kinds are present in the library,
    /// * cell and net names are unique,
    /// * every pin index is within range for its cell kind,
    /// * no input pin is driven by more than one net,
    /// * no output pin drives more than one net.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    #[expect(
        clippy::disallowed_types,
        reason = "the four maps only test membership and are never iterated"
    )]
    pub fn validate(&self) -> Result<(), NetlistError> {
        use std::collections::HashMap;

        for cell in &self.cells {
            if self.library.get(cell.kind).is_none() {
                return Err(NetlistError::MissingSpec {
                    kind: cell.kind.name().to_owned(),
                });
            }
        }
        let mut names: HashMap<&str, ()> = HashMap::with_capacity(self.cells.len());
        for cell in &self.cells {
            if names.insert(&cell.name, ()).is_some() {
                return Err(NetlistError::DuplicateCellName {
                    name: cell.name.clone(),
                });
            }
        }
        let mut net_names: HashMap<&str, ()> = HashMap::with_capacity(self.nets.len());
        for net in &self.nets {
            if net_names.insert(&net.name, ()).is_some() {
                return Err(NetlistError::DuplicateNetName {
                    name: net.name.clone(),
                });
            }
        }
        // Pin-level checks.
        let mut driven: HashMap<(CellId, usize), ()> = HashMap::new();
        let mut driving: HashMap<(CellId, usize), ()> = HashMap::new();
        for net in &self.nets {
            let dkind = self.kind_of(net.driver.cell)?;
            if net.driver.pin >= dkind.num_outputs() {
                return Err(NetlistError::OutputPinOutOfRange {
                    cell: net.driver.cell,
                    pin: net.driver.pin,
                    available: dkind.num_outputs(),
                });
            }
            if driving
                .insert((net.driver.cell, net.driver.pin), ())
                .is_some()
            {
                return Err(NetlistError::OutputPinDoublyUsed {
                    cell: net.driver.cell,
                    pin: net.driver.pin,
                });
            }
            for sink in &net.sinks {
                let skind = self.kind_of(sink.cell)?;
                if sink.pin >= skind.num_inputs() {
                    return Err(NetlistError::InputPinOutOfRange {
                        cell: sink.cell,
                        pin: sink.pin,
                        available: skind.num_inputs(),
                    });
                }
                if driven.insert((sink.cell, sink.pin), ()).is_some() {
                    return Err(NetlistError::InputPinDoublyDriven {
                        cell: sink.cell,
                        pin: sink.pin,
                    });
                }
            }
        }
        Ok(())
    }

    /// Like [`Netlist::validate`], additionally rejecting sink-less nets.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_strict(&self) -> Result<(), NetlistError> {
        self.validate()?;
        for (id, net) in self.nets() {
            if net.sinks.is_empty() {
                return Err(NetlistError::DanglingNet { net: id });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::CellLibrary;

    fn toy() -> Netlist {
        let mut nl = Netlist::new("toy", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        let s = nl.add_cell("s", CellKind::Splitter);
        let g = nl.add_cell("g", CellKind::And2);
        nl.connect("n0", a, 0, &[(s, 0)]).unwrap();
        nl.connect("n1", s, 0, &[(g, 0)]).unwrap();
        nl.connect("n2", s, 1, &[(g, 1)]).unwrap();
        nl
    }

    #[test]
    fn build_and_count() {
        let nl = toy();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.connections().count(), 3);
        nl.validate_strict().unwrap();
    }

    #[test]
    fn connections_are_ordered_pairs() {
        let nl = toy();
        let conns: Vec<Connection> = nl.connections().collect();
        assert!(conns.contains(&Connection::new(CellId(0), CellId(1))));
        assert!(conns.contains(&Connection::new(CellId(1), CellId(2))));
    }

    #[test]
    fn totals_match_library() {
        let nl = toy();
        let lib = CellLibrary::calibrated();
        let expect = lib.bias_current(CellKind::Dff)
            + lib.bias_current(CellKind::Splitter)
            + lib.bias_current(CellKind::And2);
        assert_eq!(nl.total_bias(), expect);
        let expect_area =
            lib.area(CellKind::Dff) + lib.area(CellKind::Splitter) + lib.area(CellKind::And2);
        assert_eq!(nl.total_area(), expect_area);
    }

    #[test]
    fn out_of_range_output_pin_rejected() {
        let mut nl = Netlist::new("bad", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        let b = nl.add_cell("b", CellKind::Dff);
        let err = nl.connect("n", a, 1, &[(b, 0)]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::OutputPinOutOfRange { pin: 1, .. }
        ));
    }

    #[test]
    fn out_of_range_input_pin_rejected() {
        let mut nl = Netlist::new("bad", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        let b = nl.add_cell("b", CellKind::Dff);
        let err = nl.connect("n", a, 0, &[(b, 3)]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::InputPinOutOfRange { pin: 3, .. }
        ));
    }

    #[test]
    fn doubly_driven_input_caught_by_validate() {
        let mut nl = Netlist::new("bad", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Splitter);
        let b = nl.add_cell("b", CellKind::Dff);
        nl.connect("n0", a, 0, &[(b, 0)]).unwrap();
        nl.connect("n1", a, 1, &[(b, 0)]).unwrap();
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::InputPinDoublyDriven { pin: 0, .. })
        ));
    }

    #[test]
    fn doubly_used_output_caught_by_validate() {
        let mut nl = Netlist::new("bad", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        let b = nl.add_cell("b", CellKind::Splitter);
        nl.connect("n0", a, 0, &[(b, 0)]).unwrap();
        // Second net from the same output pin.
        nl.nets.push(Net {
            name: "n1".into(),
            driver: PinRef::new(a, 0),
            sinks: vec![],
        });
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::OutputPinDoublyUsed { pin: 0, .. })
        ));
    }

    #[test]
    fn duplicate_names_caught() {
        let mut nl = Netlist::new("bad", CellLibrary::calibrated());
        nl.add_cell("x", CellKind::Dff);
        nl.add_cell("x", CellKind::Dff);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::DuplicateCellName { .. })
        ));
    }

    #[test]
    fn dangling_net_only_fails_strict() {
        let mut nl = Netlist::new("d", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        nl.connect("n0", a, 0, &[]).unwrap();
        assert!(nl.validate().is_ok());
        assert!(matches!(
            nl.validate_strict(),
            Err(NetlistError::DanglingNet { .. })
        ));
    }

    #[test]
    fn pad_connections_are_filtered() {
        let mut nl = Netlist::new("p", CellLibrary::calibrated());
        let pad = nl.add_cell("in", CellKind::InputPad);
        let g = nl.add_cell("g", CellKind::Dff);
        let h = nl.add_cell("h", CellKind::Jtl);
        nl.connect("n0", pad, 0, &[(g, 0)]).unwrap();
        nl.connect("n1", g, 0, &[(h, 0)]).unwrap();
        assert_eq!(nl.connections().count(), 2);
        assert_eq!(nl.connections_between_gates().count(), 1);
    }

    #[test]
    fn find_cell_by_name() {
        let nl = toy();
        assert_eq!(nl.find_cell("s"), Some(CellId(1)));
        assert_eq!(nl.find_cell("zz"), None);
    }

    #[test]
    fn add_sink_appends() {
        let mut nl = Netlist::new("m", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Splitter);
        let b = nl.add_cell("b", CellKind::Merger);
        let n = nl.connect("n0", a, 0, &[(b, 0)]).unwrap();
        nl.add_sink(n, b, 1).unwrap();
        assert_eq!(nl.net(n).sinks.len(), 2);
    }

    #[test]
    fn self_loop_connections_skipped() {
        let mut nl = Netlist::new("l", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Splitter);
        let b = nl.add_cell("b", CellKind::Dff);
        // a drives itself (pin 0 -> own input) and b.
        nl.connect("n0", a, 0, &[(a, 0), (b, 0)]).unwrap();
        let conns: Vec<_> = nl.connections().collect();
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0], Connection::new(a, b));
    }
}
