//! Integration tests for the physical-design layer: coupler insertion,
//! strip placement, placed DEF, and the electrical model — plus spectral
//! ordering and the solver's multilevel V-cycle on real circuits.

use current_recycling::cells::CellLibrary;
use current_recycling::circuits::registry::{generate, Benchmark};
use current_recycling::def::{parse_def, write_def_placed};
use current_recycling::netlist::sweep_dangling;
use current_recycling::netlist::ClockAnalysis;
use current_recycling::partition::spectral::{spectral_partition, SpectralOptions};
use current_recycling::partition::{PartitionMetrics, PartitionProblem, Solver, SolverOptions};
use current_recycling::recycle::{
    clock_impact, insert_couplers, insert_dummies, place_in_strips, ElectricalOptions,
    ElectricalReport, PlacementOptions, RecycleOptions, RecyclingPlan,
};
use current_recycling::sim::Simulator;

#[test]
fn coupler_insertion_on_a_real_circuit() {
    let netlist = generate(Benchmark::Ksa8);
    let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
    let result = Solver::new(SolverOptions::default()).solve(&problem);
    let m = PartitionMetrics::evaluate(&problem, &result.partition);

    let coupled = insert_couplers(&netlist, &problem, &result.partition).unwrap();
    coupled.netlist.validate().expect("coupled netlist valid");
    assert_eq!(coupled.pairs_inserted, m.total_coupler_pairs());
    // Cell count grows by exactly 2 per pair.
    assert_eq!(
        coupled.netlist.num_cells(),
        netlist.num_cells() + 2 * coupled.pairs_inserted
    );
    // After insertion every remaining gate-to-gate arc is plane-local or
    // between adjacent planes (TX→RX hops are not galvanic arcs).
    for conn in coupled.netlist.connections() {
        let pa = coupled.planes[conn.from.index()] as i64;
        let pb = coupled.planes[conn.to.index()] as i64;
        let skip = coupled.netlist.cell(conn.from).kind.is_pad()
            || coupled.netlist.cell(conn.to).kind.is_pad();
        if !skip {
            assert!(
                (pa - pb).abs() <= 1,
                "galvanic arc spans {} planes after coupler insertion",
                (pa - pb).abs()
            );
        }
    }
}

#[test]
fn placement_and_placed_def_round_trip() {
    let netlist = generate(Benchmark::Mult4);
    let problem = PartitionProblem::from_netlist(&netlist, 4).unwrap();
    let result = Solver::new(SolverOptions::default()).solve(&problem);
    let placement =
        place_in_strips(&problem, &result.partition, &PlacementOptions::default()).unwrap();

    // Every gate inside the chip outline and its own strip.
    for (gate, &(x, y)) in placement.positions().iter().enumerate() {
        assert!(x >= 0.0 && x <= placement.chip_width_um());
        assert!(y >= 0.0 && y < placement.chip_height_um());
        assert_eq!(placement.strip_of_y(y), result.partition.plane_of(gate));
    }

    // Placed DEF parses back with identical structure.
    let mut positions = vec![None; netlist.num_cells()];
    for (gate, &(x, y)) in placement.positions().iter().enumerate() {
        positions[problem.gate_cell(gate).unwrap().index()] = Some((x, y));
    }
    let text = write_def_placed(&netlist, &positions);
    let parsed = parse_def(&text, CellLibrary::calibrated()).unwrap();
    assert_eq!(parsed.stats(), netlist.stats());
}

#[test]
fn electrical_report_consistent_with_plan() {
    let netlist = generate(Benchmark::Ksa8);
    let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
    let result = Solver::new(SolverOptions::default()).solve(&problem);
    let plan =
        RecyclingPlan::build(&problem, &result.partition, &RecycleOptions::default()).unwrap();
    let e = ElectricalReport::analyze(&plan, &ElectricalOptions::default());

    assert_eq!(e.plane_potentials_mv.len(), 5);
    assert!((e.supply_voltage_mv - 12.5).abs() < 1e-9, "5 × 2.5 mV");
    // Overhead fraction equals I_comp / B_cir.
    let m = PartitionMetrics::evaluate(&problem, &result.partition);
    assert!(
        (e.power_overhead_fraction - m.i_comp_ma / m.b_cir).abs() < 1e-9,
        "power overhead {} vs I_comp fraction {}",
        e.power_overhead_fraction,
        m.i_comp_ma / m.b_cir
    );
    // Lead heat must drop when recycling a multi-line circuit.
    assert!(e.lead_heat_reduction >= 1.0);
}

#[test]
fn spectral_and_multilevel_handle_real_circuits() {
    let netlist = generate(Benchmark::Mult4);
    let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();

    let sp = spectral_partition(&problem, &SpectralOptions::default());
    let ms = PartitionMetrics::evaluate(&problem, &sp);
    assert!(
        ms.cumulative_fraction(1) > 0.8,
        "spectral d<=1 {}",
        ms.cumulative_fraction(1)
    );

    // The default solve coarsens MULT4 and refines at every level.
    let ml = Solver::new(SolverOptions::default()).solve(&problem);
    let mm = PartitionMetrics::evaluate(&problem, &ml.partition);
    assert!(
        mm.cumulative_fraction(1) > 0.9,
        "multilevel d<=1 {}",
        mm.cumulative_fraction(1)
    );
    assert!(mm.i_comp_pct < 10.0);
}

#[test]
fn generated_circuits_have_no_dead_logic() {
    // The generators' outputs must already be swept: path balancing and
    // splitter insertion never create dangling gates.
    for bench in [Benchmark::Ksa4, Benchmark::Mult4, Benchmark::Id4] {
        let netlist = generate(bench);
        let (_, removed) = sweep_dangling(&netlist);
        assert_eq!(removed, 0, "{bench:?} contains dead cells");
    }
}

#[test]
fn dummy_insertion_closes_the_bias_gap() {
    let netlist = generate(Benchmark::Ksa8);
    let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
    let result = Solver::new(SolverOptions::reproduction()).solve(&problem);
    let m = PartitionMetrics::evaluate(&problem, &result.partition);

    let dummied = insert_dummies(&netlist, &problem, &result.partition).unwrap();
    dummied.netlist.validate().expect("valid");
    // Every plane now totals B_max within one 0.5 mA quantum.
    let lib = dummied.netlist.library().clone();
    let mut totals = vec![0.0f64; 5];
    for (id, cell) in dummied.netlist.cells() {
        if !cell.kind.is_pad() {
            totals[dummied.planes[id.index()] as usize] +=
                lib.bias_current(cell.kind).as_milliamps();
        }
    }
    let max = totals.iter().copied().fold(0.0, f64::max);
    assert!((max - m.b_max).abs() < 1e-9, "B_max unchanged by dummies");
    for &t in &totals {
        assert!(max - t < 0.5 + 1e-9, "plane within one quantum: {totals:?}");
    }
    assert!(dummied.residual_ma < 0.5);
}

#[test]
fn clock_impact_on_a_real_circuit_is_bounded_and_directional() {
    let netlist = generate(Benchmark::Ksa8);
    let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
    let base = ClockAnalysis::of(&netlist);
    assert!(base.min_period_ps > 0.0 && base.min_period_ps.is_finite());

    let repro = Solver::new(SolverOptions::reproduction()).solve(&problem);
    let refined = Solver::new(SolverOptions::tuned(4)).solve(&problem);
    let ir = clock_impact(&netlist, &problem, &repro.partition).unwrap();
    let if_ = clock_impact(&netlist, &problem, &refined.partition).unwrap();
    // Crossings can only slow the clock.
    assert!(ir.partitioned_period_ps >= ir.base_period_ps);
    assert!(if_.partitioned_period_ps >= if_.base_period_ps);
    // The refined partition has shorter crossings on the critical stage.
    assert!(if_.partitioned_period_ps <= ir.partitioned_period_ps + 1e-9);
}

#[test]
fn generated_circuits_simulate() {
    // The registry's mapped circuits run under the pulse simulator without
    // errors and settle (no stuck pulses) after the pipeline drains.
    let netlist = generate(Benchmark::Ksa4);
    let mut sim = Simulator::new(&netlist).expect("simulates");
    let n_inputs = sim.input_names().len();
    sim.set_inputs(&vec![true; n_inputs]);
    for _ in 0..64 {
        sim.step();
    }
    // With NOT cells firing on empty inputs the outputs need not be all
    // quiet, but they must be *periodic* (period 1) once drained: two
    // consecutive ticks with identical outputs.
    let mut a: Vec<(String, bool)> = sim.step().iter().map(|(n, v)| (n.to_owned(), v)).collect();
    let mut b: Vec<(String, bool)> = sim.step().iter().map(|(n, v)| (n.to_owned(), v)).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "pipeline settles to a steady state");
}

#[test]
fn coupled_netlist_partition_is_stable() {
    // Re-partitioning the coupler-inserted netlist at the same K keeps the
    // structure partitionable (sanity for iterative flows).
    let netlist = generate(Benchmark::Ksa4);
    let problem = PartitionProblem::from_netlist(&netlist, 3).unwrap();
    let result = Solver::new(SolverOptions::default()).solve(&problem);
    let coupled = insert_couplers(&netlist, &problem, &result.partition).unwrap();
    let problem2 = PartitionProblem::from_netlist(&coupled.netlist, 3).unwrap();
    let result2 = Solver::new(SolverOptions::default()).solve(&problem2);
    let m2 = PartitionMetrics::evaluate(&problem2, &result2.partition);
    assert!(m2.cumulative_fraction(1) > 0.7);
}
