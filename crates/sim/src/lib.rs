//! Cycle-accurate pulse-level simulation of gate-level SFQ netlists.
//!
//! SFQ logic computes with the *presence or absence of a flux pulse per
//! clock period*: a clocked gate accumulates the pulses that arrive on its
//! data inputs during a period and, on the clock tick, emits (or suppresses)
//! an output pulse according to its Boolean function. Unclocked cells
//! (splitters, mergers, JTLs) forward pulses within the period.
//!
//! This simulator implements exactly that semantics, which makes it the
//! ground truth for the [`map`](../sfq_circuits/map/index.html) pass: a
//! correctly path-balanced netlist must compute its logic function with
//! every output emerging on the *same* tick (the pipeline latency), and must
//! accept a new input vector on *every* tick (gate-level pipelining — the
//! paper's §II characteristic (i)).
//!
//! # Example
//!
//! ```
//! use sfq_cells::{CellKind, CellLibrary};
//! use sfq_netlist::Netlist;
//! use sfq_sim::Simulator;
//!
//! // in -> DFF -> out: one cycle of latency.
//! let mut nl = Netlist::new("d", CellLibrary::calibrated());
//! let i = nl.add_cell("in", CellKind::InputPad);
//! let d = nl.add_cell("dff", CellKind::Dff);
//! let o = nl.add_cell("out", CellKind::OutputPad);
//! nl.connect("n0", i, 0, &[(d, 0)])?;
//! nl.connect("n1", d, 0, &[(o, 0)])?;
//!
//! let mut sim = Simulator::new(&nl)?;
//! sim.set_input("in", true);
//! let out = sim.step();
//! assert!(out.pulse("out"), "pulse crosses the DFF on the tick");
//! let out = sim.step();
//! assert!(!out.pulse("out"), "no new pulse injected");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures, never abort the process on them;
// tests keep the ergonomic forms. Indexing stays allowed: dense
// CellId-indexed state vectors (pending, sinks, kinds) are sized once at
// build, and their indices come from the same netlist.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;

use sfq_cells::CellKind;
use sfq_netlist::{CellId, ConnectivityGraph, Netlist, PinRef};

/// Errors constructing a [`Simulator`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The netlist contains a combinational cycle.
    Cyclic,
    /// A cell kind has no pulse semantics here (TFF, NDRO, PTL couplers).
    UnsupportedCell {
        /// Name of the offending instance.
        cell: String,
        /// Its kind.
        kind: CellKind,
    },
    /// Referenced input pad does not exist.
    UnknownInput {
        /// The name that failed to resolve.
        name: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cyclic => write!(f, "netlist contains a combinational cycle"),
            SimError::UnsupportedCell { cell, kind } => {
                write!(f, "cell `{cell}` of kind {kind} has no pulse semantics")
            }
            SimError::UnknownInput { name } => write!(f, "unknown input pad `{name}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// Output pulses of one clock tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickOutput {
    // BTreeMap so `iter()` yields pads in name order — fault-report diffs
    // and golden outputs must not depend on hash order (clippy.toml).
    pulses: BTreeMap<String, bool>,
}

impl TickOutput {
    /// Whether output pad `name` received a pulse this tick.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an output pad of the simulated netlist.
    pub fn pulse(&self, name: &str) -> bool {
        *self
            .pulses
            .get(name)
            .unwrap_or_else(|| panic!("`{name}` is not an output pad"))
    }

    /// All `(output name, pulse)` pairs, sorted by pad name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, bool)> {
        self.pulses.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether any output pulsed.
    pub fn any(&self) -> bool {
        self.pulses.values().any(|&v| v)
    }
}

/// The pulse-level simulator (see crate docs).
#[derive(Debug, Clone)]
pub struct Simulator {
    kinds: Vec<CellKind>,
    names: Vec<String>,
    /// Sinks of each cell's output pins: `sinks[cell][pin] = Vec<PinRef>`.
    sinks: Vec<Vec<Vec<PinRef>>>,
    /// Pending input-pulse flags per cell (bit per input pin).
    pending: Vec<u8>,
    /// Merger already fired this cycle (suppresses double pulses).
    merger_fired: Vec<bool>,
    /// Pulses scheduled for injection at the next tick, by input pad.
    injections: Vec<bool>,
    input_pads: Vec<CellId>,
    output_pads: Vec<CellId>,
    /// Output pulse flags for the current tick, indexed like `output_pads`.
    output_pulses: Vec<bool>,
    clocked: Vec<CellId>,
    cycle: u64,
}

impl Simulator {
    /// Builds a simulator over `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Cyclic`] for cyclic netlists and
    /// [`SimError::UnsupportedCell`] for kinds without pulse semantics
    /// (TFF, NDRO, and the non-galvanic PTL coupler halves).
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        let graph = ConnectivityGraph::of(netlist);
        if graph.topological_order().is_none() {
            return Err(SimError::Cyclic);
        }
        let mut kinds = Vec::with_capacity(netlist.num_cells());
        let mut names = Vec::with_capacity(netlist.num_cells());
        for (_, cell) in netlist.cells() {
            match cell.kind {
                CellKind::Tff | CellKind::Ndro | CellKind::PtlTx | CellKind::PtlRx => {
                    return Err(SimError::UnsupportedCell {
                        cell: cell.name.clone(),
                        kind: cell.kind,
                    });
                }
                kind => {
                    kinds.push(kind);
                    names.push(cell.name.clone());
                }
            }
        }

        let mut sinks: Vec<Vec<Vec<PinRef>>> = kinds
            .iter()
            .map(|k| vec![Vec::new(); k.num_outputs().max(1)])
            .collect();
        for (_, net) in netlist.nets() {
            sinks[net.driver.cell.index()][net.driver.pin].extend(net.sinks.iter().copied());
        }

        let input_pads: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind == CellKind::InputPad)
            .map(|(id, _)| id)
            .collect();
        let output_pads: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind == CellKind::OutputPad)
            .map(|(id, _)| id)
            .collect();
        let clocked: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind.is_clocked())
            .map(|(id, _)| id)
            .collect();

        let n = kinds.len();
        Ok(Simulator {
            kinds,
            names,
            sinks,
            pending: vec![0; n],
            merger_fired: vec![false; n],
            injections: vec![false; input_pads.len()],
            input_pads,
            output_pads,
            output_pulses: Vec::new(),
            clocked,
            cycle: 0,
        })
    }

    /// Number of ticks simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Input pad names in injection order (the order expected by
    /// [`Simulator::set_inputs`]).
    pub fn input_names(&self) -> Vec<&str> {
        self.input_pads
            .iter()
            .map(|id| self.names[id.index()].as_str())
            .collect()
    }

    /// Output pad names.
    pub fn output_names(&self) -> Vec<&str> {
        self.output_pads
            .iter()
            .map(|id| self.names[id.index()].as_str())
            .collect()
    }

    /// Schedules a pulse (or its absence) on input pad `name` for the next
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an input pad; use
    /// [`Simulator::try_set_input`] for a fallible version.
    pub fn set_input(&mut self, name: &str, pulse: bool) {
        self.try_set_input(name, pulse)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Simulator::set_input`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInput`] for unknown pads.
    pub fn try_set_input(&mut self, name: &str, pulse: bool) -> Result<(), SimError> {
        let idx = self
            .input_pads
            .iter()
            .position(|id| self.names[id.index()] == name)
            .ok_or_else(|| SimError::UnknownInput {
                name: name.to_owned(),
            })?;
        self.injections[idx] = pulse;
        Ok(())
    }

    /// Schedules all inputs at once, in [`Simulator::input_names`] order.
    ///
    /// # Panics
    ///
    /// Panics if `pulses.len()` differs from the input pad count.
    pub fn set_inputs(&mut self, pulses: &[bool]) {
        assert_eq!(
            pulses.len(),
            self.input_pads.len(),
            "expected {} input pulses",
            self.input_pads.len()
        );
        self.injections.copy_from_slice(pulses);
    }

    /// Advances one clock tick: injects the scheduled input pulses, fires
    /// every clocked cell from its accumulated inputs, and propagates all
    /// pulses through the unclocked network. Returns the output-pad pulses
    /// of this tick.
    pub fn step(&mut self) -> TickOutput {
        self.merger_fired.iter_mut().for_each(|f| *f = false);
        self.output_pulses = vec![false; self.output_pads.len()];

        // 1. Injected pulses reach the first clocked stage's pending flags
        //    (or outputs directly, for pad-to-pad wires).
        let injected: Vec<CellId> = self
            .input_pads
            .iter()
            .zip(&self.injections)
            .filter(|(_, &p)| p)
            .map(|(&id, _)| id)
            .collect();
        self.injections.iter_mut().for_each(|p| *p = false);
        for pad in injected {
            self.emit(pad, 0);
        }

        // 2. Clock tick: every clocked cell evaluates its accumulated
        //    pulses; all fire "simultaneously", so evaluate first, then
        //    propagate.
        let mut fires: Vec<CellId> = Vec::new();
        for &cell in &self.clocked {
            let pending = self.pending[cell.index()];
            self.pending[cell.index()] = 0;
            let fire = match self.kinds[cell.index()] {
                CellKind::And2 => pending == 0b11,
                CellKind::Or2 => pending != 0,
                CellKind::Xor2 => pending == 0b01 || pending == 0b10,
                CellKind::Not => pending == 0,
                CellKind::Dff => pending != 0,
                _ => unreachable!("only clocked kinds collected"),
            };
            if fire {
                fires.push(cell);
            }
        }
        for cell in fires {
            self.emit(cell, 0);
        }

        self.cycle += 1;
        TickOutput {
            pulses: self
                .output_pads
                .iter()
                .zip(&self.output_pulses)
                .map(|(&id, &p)| (self.names[id.index()].clone(), p))
                .collect(),
        }
    }

    /// Emits a pulse from `cell`'s output pin `pin`, propagating through
    /// unclocked cells to pending flags, output pads, and merger fan-ins.
    fn emit(&mut self, cell: CellId, pin: usize) {
        let mut stack: Vec<PinRef> = self.sinks[cell.index()][pin].clone();
        while let Some(dst) = stack.pop() {
            let idx = dst.cell.index();
            match self.kinds[idx] {
                CellKind::Splitter => {
                    stack.extend(self.sinks[idx][0].iter().copied());
                    stack.extend(self.sinks[idx][1].iter().copied());
                }
                CellKind::Jtl => {
                    stack.extend(self.sinks[idx][0].iter().copied());
                }
                CellKind::Merger => {
                    if !self.merger_fired[idx] {
                        self.merger_fired[idx] = true;
                        stack.extend(self.sinks[idx][0].iter().copied());
                    }
                }
                CellKind::OutputPad => {
                    let slot = self
                        .output_pads
                        .iter()
                        .position(|&o| o == dst.cell)
                        .unwrap_or_else(|| {
                            unreachable!("output pad {:?} registered at build time", dst.cell)
                        });
                    self.output_pulses[slot] = true;
                }
                CellKind::InputPad => {
                    // Pad-to-pad wiring: forward.
                    stack.extend(self.sinks[idx][0].iter().copied());
                }
                _ => {
                    // Clocked cell: latch the pulse for the next tick.
                    self.pending[idx] |= 1 << dst.pin;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::CellLibrary;
    use sfq_netlist::Netlist;

    /// in_a, in_b -> AND2 -> out (no balancing needed: both depth 1).
    fn and_gate() -> Netlist {
        let mut nl = Netlist::new("and", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::InputPad);
        let b = nl.add_cell("b", CellKind::InputPad);
        let g = nl.add_cell("g", CellKind::And2);
        let o = nl.add_cell("o", CellKind::OutputPad);
        nl.connect("n0", a, 0, &[(g, 0)]).unwrap();
        nl.connect("n1", b, 0, &[(g, 1)]).unwrap();
        nl.connect("n2", g, 0, &[(o, 0)]).unwrap();
        nl
    }

    fn drive(nl: &Netlist, a: bool, b: bool) -> bool {
        let mut sim = Simulator::new(nl).unwrap();
        sim.set_input("a", a);
        sim.set_input("b", b);
        // Pulse crosses the single gate at the first tick.
        sim.step().pulse("o")
    }

    #[test]
    fn and_truth_table() {
        let nl = and_gate();
        assert!(!drive(&nl, false, false));
        assert!(!drive(&nl, true, false));
        assert!(!drive(&nl, false, true));
        assert!(drive(&nl, true, true));
    }

    #[test]
    fn xor_or_not_semantics() {
        for (kind, table) in [
            (CellKind::Xor2, [false, true, true, false]),
            (CellKind::Or2, [false, true, true, true]),
        ] {
            let mut nl = Netlist::new("g", CellLibrary::calibrated());
            let a = nl.add_cell("a", CellKind::InputPad);
            let b = nl.add_cell("b", CellKind::InputPad);
            let g = nl.add_cell("g", kind);
            let o = nl.add_cell("o", CellKind::OutputPad);
            nl.connect("n0", a, 0, &[(g, 0)]).unwrap();
            nl.connect("n1", b, 0, &[(g, 1)]).unwrap();
            nl.connect("n2", g, 0, &[(o, 0)]).unwrap();
            let got = [
                drive(&nl, false, false),
                drive(&nl, true, false),
                drive(&nl, false, true),
                drive(&nl, true, true),
            ];
            assert_eq!(got, table, "{kind}");
        }
        // NOT: pulse when input absent.
        let mut nl = Netlist::new("not", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::InputPad);
        let g = nl.add_cell("g", CellKind::Not);
        let o = nl.add_cell("o", CellKind::OutputPad);
        nl.connect("n0", a, 0, &[(g, 0)]).unwrap();
        nl.connect("n1", g, 0, &[(o, 0)]).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", false);
        assert!(sim.step().pulse("o"));
        sim.set_input("a", true);
        assert!(!sim.step().pulse("o"));
    }

    #[test]
    fn splitter_duplicates_and_merger_merges() {
        // a -> split -> {merger.a, merger.b} -> out: double pulse merges to one.
        let mut nl = Netlist::new("sm", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::InputPad);
        let s = nl.add_cell("s", CellKind::Splitter);
        let m = nl.add_cell("m", CellKind::Merger);
        let o = nl.add_cell("o", CellKind::OutputPad);
        nl.connect("n0", a, 0, &[(s, 0)]).unwrap();
        nl.connect("n1", s, 0, &[(m, 0)]).unwrap();
        nl.connect("n2", s, 1, &[(m, 1)]).unwrap();
        nl.connect("n3", m, 0, &[(o, 0)]).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", true);
        assert!(sim.step().pulse("o"));
    }

    #[test]
    fn dff_delays_by_one_tick() {
        let mut nl = Netlist::new("pipe", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::InputPad);
        let d1 = nl.add_cell("d1", CellKind::Dff);
        let d2 = nl.add_cell("d2", CellKind::Dff);
        let o = nl.add_cell("o", CellKind::OutputPad);
        nl.connect("n0", a, 0, &[(d1, 0)]).unwrap();
        nl.connect("n1", d1, 0, &[(d2, 0)]).unwrap();
        nl.connect("n2", d2, 0, &[(o, 0)]).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", true);
        assert!(!sim.step().pulse("o"), "pulse still inside d2");
        assert!(sim.step().pulse("o"), "emerges after two ticks");
        assert!(!sim.step().pulse("o"));
    }

    #[test]
    fn pipeline_accepts_a_vector_every_tick() {
        // Stream 0,1,1,0,1 through a 2-DFF pipe: same stream 2 ticks later.
        let mut nl = Netlist::new("pipe", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::InputPad);
        let d1 = nl.add_cell("d1", CellKind::Dff);
        let d2 = nl.add_cell("d2", CellKind::Dff);
        let o = nl.add_cell("o", CellKind::OutputPad);
        nl.connect("n0", a, 0, &[(d1, 0)]).unwrap();
        nl.connect("n1", d1, 0, &[(d2, 0)]).unwrap();
        nl.connect("n2", d2, 0, &[(o, 0)]).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let stream = [false, true, true, false, true];
        let mut got = Vec::new();
        for &bit in &stream {
            sim.set_input("a", bit);
            got.push(sim.step().pulse("o"));
        }
        got.push(sim.step().pulse("o"));
        // Injection is latched by d1 on its own tick, so a 2-DFF pipe shows
        // a visible delay of one tick.
        assert_eq!(&got[1..], &stream, "stream delayed by pipeline latency");
    }

    #[test]
    fn unsupported_kinds_rejected() {
        let mut nl = Netlist::new("t", CellLibrary::calibrated());
        nl.add_cell("t", CellKind::Tff);
        let err = Simulator::new(&nl).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedCell { .. }));
    }

    #[test]
    fn cyclic_netlist_rejected() {
        let mut nl = Netlist::new("c", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Jtl);
        let b = nl.add_cell("b", CellKind::Jtl);
        nl.connect("n0", a, 0, &[(b, 0)]).unwrap();
        nl.connect("n1", b, 0, &[(a, 0)]).unwrap();
        assert_eq!(Simulator::new(&nl).unwrap_err(), SimError::Cyclic);
    }

    #[test]
    fn unknown_input_errors() {
        let nl = and_gate();
        let mut sim = Simulator::new(&nl).unwrap();
        assert!(matches!(
            sim.try_set_input("zz", true),
            Err(SimError::UnknownInput { .. })
        ));
    }

    #[test]
    fn names_are_exposed_in_order() {
        let nl = and_gate();
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.input_names(), vec!["a", "b"]);
        assert_eq!(sim.output_names(), vec!["o"]);
    }
}
