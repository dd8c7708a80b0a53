//! First-order electrical analysis of a recycling plan.
//!
//! Quantifies the paper's §II motivation: feeding a large SFQ chip in
//! parallel needs tens of amperes through the cryostat leads, whose Joule
//! heating loads the cold stages; serial recycling passes `B_max ≈ B_cir/K`
//! once through a stack of `K` planes instead.
//!
//! Model (ERSFQ-style biasing):
//!
//! * every ground plane sits one bias-bus voltage `V_b` (≈2.5 mV) above the
//!   next, so the external supply sees `K·V_b`;
//! * on-chip power is `B_max · K · V_b` — the full supply current crosses
//!   every plane's bias bus, so dummy bypass current burns power too and
//!   the on-chip overhead versus an ideal parallel feed equals `I_comp`;
//! * lead heating is `I²R_lead` per lead; a parallel feed splits `B_cir`
//!   over `N = ⌈B_cir/limit⌉` pads, serial recycling carries `B_max` once.

use sfq_cells::{CellKind, MilliAmps};
use sfq_netlist::{ClockAnalysis, Netlist};
use sfq_partition::{Partition, PartitionProblem};

use crate::plan::{RecycleError, RecyclingPlan};

/// Electrical model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectricalOptions {
    /// Bias-bus voltage per plane, mV (paper: "typically around 2.5 mV").
    pub bias_bus_voltage_mv: f64,
    /// Series resistance of one cryostat lead, Ω (room temperature to 4 K).
    pub lead_resistance_ohm: f64,
}

impl Default for ElectricalOptions {
    fn default() -> Self {
        ElectricalOptions {
            bias_bus_voltage_mv: 2.5,
            lead_resistance_ohm: 1.0,
        }
    }
}

/// Result of [`ElectricalReport::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct ElectricalReport {
    /// Supply voltage across the serial stack, mV (`K·V_b`).
    pub supply_voltage_mv: f64,
    /// Potential of each plane's bias bus above chip ground, mV (plane 0,
    /// fed externally, sits highest).
    pub plane_potentials_mv: Vec<f64>,
    /// On-chip bias power with recycling, µW (`B_max·K·V_b`).
    pub recycled_power_uw: f64,
    /// On-chip bias power of an ideal parallel feed, µW (`B_cir·V_b`).
    pub parallel_power_uw: f64,
    /// On-chip power overhead of recycling (equals `I_comp/B_cir`).
    pub power_overhead_fraction: f64,
    /// Joule heat in the leads with recycling, µW (`B_max²·R`, one lead pair).
    pub recycled_lead_heat_uw: f64,
    /// Joule heat in the leads of the parallel feed, µW
    /// (`N·(B_cir/N)²·R = B_cir²·R/N`).
    pub parallel_lead_heat_uw: f64,
    /// Lead-heat reduction factor (parallel / recycled).
    pub lead_heat_reduction: f64,
}

impl ElectricalReport {
    /// Analyzes `plan` (built by [`RecyclingPlan::build`]); `b_cir_ma` and
    /// the parallel line count come from the plan itself.
    pub fn analyze(plan: &RecyclingPlan, options: &ElectricalOptions) -> Self {
        let k = plan.planes().len();
        let v_b = options.bias_bus_voltage_mv;
        let supply = plan.supply_current();
        let b_cir: MilliAmps = plan.planes().iter().map(|p| p.bias).sum();

        let supply_voltage_mv = k as f64 * v_b;
        // Plane 0 is fed from outside: its bus sits at K·V_b; each
        // subsequent plane one V_b lower.
        let plane_potentials_mv = (0..k).map(|p| (k - p) as f64 * v_b).collect();

        // mA × mV = µW.
        let recycled_power_uw = supply.as_milliamps() * supply_voltage_mv;
        let parallel_power_uw = b_cir.as_milliamps() * v_b;
        let power_overhead_fraction = if parallel_power_uw > 0.0 {
            sfq_partition::float::frac(recycled_power_uw, parallel_power_uw, 1.0) - 1.0
        } else {
            0.0
        };

        let r = options.lead_resistance_ohm;
        let n = plan.bias_lines_parallel().max(1) as f64;
        // (mA)²·Ω = µW.
        let recycled_lead_heat_uw = supply.as_milliamps().powi(2) * r;
        let parallel_lead_heat_uw =
            sfq_partition::float::frac(b_cir.as_milliamps().powi(2) * r, n, 0.0);
        let lead_heat_reduction = if recycled_lead_heat_uw > 0.0 {
            sfq_partition::float::frac(parallel_lead_heat_uw, recycled_lead_heat_uw, 1.0)
        } else {
            1.0
        };

        ElectricalReport {
            supply_voltage_mv,
            plane_potentials_mv,
            recycled_power_uw,
            parallel_power_uw,
            power_overhead_fraction,
            recycled_lead_heat_uw,
            parallel_lead_heat_uw,
            lead_heat_reduction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RecycleOptions, RecyclingPlan};
    use sfq_partition::{Partition, PartitionProblem};

    fn plan(labels: Vec<u32>, k: usize) -> RecyclingPlan {
        let n = labels.len();
        let problem = PartitionProblem::new(
            vec![1.0; n],
            vec![100.0; n],
            (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
            k,
        )
        .unwrap();
        let partition = Partition::from_labels(labels, k).unwrap();
        RecyclingPlan::build(&problem, &partition, &RecycleOptions::default()).unwrap()
    }

    #[test]
    fn balanced_plan_has_no_power_overhead() {
        let p = plan(vec![0, 0, 1, 1, 2, 2], 3);
        let e = ElectricalReport::analyze(&p, &ElectricalOptions::default());
        // B_max = 2, K = 3, V = 2.5: recycled = 2·7.5 = 15 µW;
        // parallel = 6·2.5 = 15 µW.
        assert!((e.recycled_power_uw - 15.0).abs() < 1e-9);
        assert!((e.parallel_power_uw - 15.0).abs() < 1e-9);
        assert!(e.power_overhead_fraction.abs() < 1e-9);
        assert_eq!(e.supply_voltage_mv, 7.5);
    }

    #[test]
    fn unbalanced_plan_overhead_equals_i_comp_fraction() {
        // Planes of bias 3/2/1: B_max = 3, I_comp = 3, B_cir = 6 → 50 %.
        let p = plan(vec![0, 0, 0, 1, 1, 2], 3);
        let e = ElectricalReport::analyze(&p, &ElectricalOptions::default());
        assert!((e.power_overhead_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn plane_potentials_step_down_by_v_b() {
        let p = plan(vec![0, 0, 1, 1, 2, 2], 3);
        let e = ElectricalReport::analyze(&p, &ElectricalOptions::default());
        assert_eq!(e.plane_potentials_mv, vec![7.5, 5.0, 2.5]);
    }

    #[test]
    fn lead_heat_drops_quadratically() {
        // 400 unit gates over 4 planes, balanced: B_cir = 400 mA,
        // B_max = 100 mA, parallel lines = ceil(400/100) = 4.
        let labels: Vec<u32> = (0..400).map(|i| (i / 100) as u32).collect();
        let p = plan(labels, 4);
        let e = ElectricalReport::analyze(&p, &ElectricalOptions::default());
        // parallel: 400²/4 = 40 000 µW; recycled: 100² = 10 000 µW → 4×.
        assert!((e.parallel_lead_heat_uw - 40_000.0).abs() < 1e-6);
        assert!((e.recycled_lead_heat_uw - 10_000.0).abs() < 1e-6);
        assert!((e.lead_heat_reduction - 4.0).abs() < 1e-9);
    }

    #[test]
    fn custom_constants_respected() {
        let p = plan(vec![0, 0, 1, 1], 2);
        let opts = ElectricalOptions {
            bias_bus_voltage_mv: 5.0,
            lead_resistance_ohm: 2.0,
        };
        let e = ElectricalReport::analyze(&p, &opts);
        assert_eq!(e.supply_voltage_mv, 10.0);
        assert!((e.recycled_lead_heat_uw - 2.0 * 2.0 * 2.0).abs() < 1e-9);
    }
}

/// Clock-frequency impact of a partition (the paper's §III-B3 remark that
/// multi-boundary connections "decrease the operating frequency").
#[derive(Debug, Clone, PartialEq)]
pub struct ClockImpact {
    /// Minimum clock period of the unpartitioned netlist, ps.
    pub base_period_ps: f64,
    /// Minimum clock period with every plane crossing paying one inductive
    /// driver/receiver pair per boundary, ps.
    pub partitioned_period_ps: f64,
    /// Fractional frequency loss (`1 − f_after/f_before`).
    pub frequency_loss_fraction: f64,
}

/// Estimates the clock-frequency cost of `partition`: every gate-to-gate
/// arc crossing `d` boundaries is charged `d` driver/receiver pair delays
/// on its stage path (via [`ClockAnalysis::with_edge_delays`]).
///
/// `problem` must carry the netlist mapping
/// ([`PartitionProblem::from_netlist`]).
///
/// # Errors
///
/// Returns [`RecycleError::Mismatch`] if the problem lacks the netlist
/// mapping or disagrees with the partition.
pub fn clock_impact(
    netlist: &Netlist,
    problem: &PartitionProblem,
    partition: &Partition,
) -> Result<ClockImpact, RecycleError> {
    if problem.num_gates() != partition.num_gates() {
        return Err(RecycleError::Mismatch {
            detail: "problem/partition gate counts differ".to_owned(),
        });
    }
    let Some(gate_cells) = problem.gate_cells() else {
        return Err(RecycleError::Mismatch {
            detail: "problem was not built from a netlist (no gate mapping)".to_owned(),
        });
    };
    let mut plane_of_cell = vec![None; netlist.num_cells()];
    for (gate, &cell) in gate_cells.iter().enumerate() {
        plane_of_cell[cell.index()] = Some(partition.plane_of(gate) as i64);
    }
    let pair_delay = {
        let lib = netlist.library();
        let d = |k: CellKind| {
            lib.get(k)
                .map(|s| s.delay_ps)
                .unwrap_or_else(|| k.default_delay_ps())
        };
        d(CellKind::PtlTx) + d(CellKind::PtlRx)
    };

    let base = ClockAnalysis::of(netlist);
    let partitioned = ClockAnalysis::with_edge_delays(netlist, |driver, sink| {
        match (plane_of_cell[driver.index()], plane_of_cell[sink.index()]) {
            (Some(a), Some(b)) => (a - b).unsigned_abs() as f64 * pair_delay,
            _ => 0.0, // pads share the perimeter common ground
        }
    });

    let frequency_loss_fraction = if partitioned.min_period_ps > 0.0 {
        1.0 - sfq_partition::float::frac(base.min_period_ps, partitioned.min_period_ps, 1.0)
    } else {
        0.0
    };
    Ok(ClockImpact {
        base_period_ps: base.min_period_ps,
        partitioned_period_ps: partitioned.min_period_ps,
        frequency_loss_fraction,
    })
}

#[cfg(test)]
mod clock_impact_tests {
    use super::*;
    use sfq_cells::CellLibrary;
    use sfq_partition::Partition;

    fn pipe() -> Netlist {
        let mut nl = Netlist::new("p", CellLibrary::calibrated());
        let a = nl.add_cell("a", CellKind::Dff);
        let b = nl.add_cell("b", CellKind::Dff);
        let c = nl.add_cell("c", CellKind::Dff);
        nl.connect("n0", a, 0, &[(b, 0)]).unwrap();
        nl.connect("n1", b, 0, &[(c, 0)]).unwrap();
        nl
    }

    #[test]
    fn in_plane_partition_costs_nothing() {
        let nl = pipe();
        let problem = PartitionProblem::from_netlist(&nl, 2).unwrap();
        let part = Partition::from_labels(vec![0, 0, 0], 2).unwrap();
        let impact = clock_impact(&nl, &problem, &part).unwrap();
        assert_eq!(impact.base_period_ps, impact.partitioned_period_ps);
        assert_eq!(impact.frequency_loss_fraction, 0.0);
    }

    #[test]
    fn crossing_pays_one_pair_per_boundary() {
        let nl = pipe();
        let problem = PartitionProblem::from_netlist(&nl, 3).unwrap();
        // b->c jumps two boundaries.
        let part = Partition::from_labels(vec![0, 0, 2], 3).unwrap();
        let impact = clock_impact(&nl, &problem, &part).unwrap();
        // Base stage: 10 ps; crossed stage: 10 + 2×25 = 60 ps.
        assert!((impact.base_period_ps - 10.0).abs() < 1e-9);
        assert!((impact.partitioned_period_ps - 60.0).abs() < 1e-9);
        assert!(impact.frequency_loss_fraction > 0.8);
    }

    #[test]
    fn requires_netlist_backed_problem() {
        let nl = pipe();
        let raw = PartitionProblem::new(vec![1.0; 3], vec![1.0; 3], vec![], 2).unwrap();
        let part = Partition::from_labels(vec![0, 0, 0], 2).unwrap();
        assert!(matches!(
            clock_impact(&nl, &raw, &part),
            Err(RecycleError::Mismatch { .. })
        ));
    }
}
