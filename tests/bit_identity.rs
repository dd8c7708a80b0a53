//! Bit-identity pins for the solve path at scale-tier shape.
//!
//! A budgeted solve of the 10⁴-gate `ScaleTier::S10k` circuit at K = 5 is
//! the shape of sfqbench's `s1m_k5` workload at 1% of its size: eight
//! descent iterations, then the polish. Each test folds the winning labels,
//! the discrete cost's bits, the iteration count and the refine move count
//! into one FNV-1a digest and compares it with the value pinned here. A
//! change that alters a single move, a single label or a single bit of the
//! cost fails these tests; a change that only makes the solve faster leaves
//! them green.
//!
//! With refinement on, the solve is a V-cycle: eight descent iterations on
//! the coarsest level of a heavy-edge coarsening, then refine at every
//! level on the way back. That solve is pinned with the default weights
//! and with `c₂ = c₃ = 10`. With refinement off the solve is the paper's
//! flat Algorithm 1 on the whole problem; its digests are pinned too and
//! must never move, since the reproduction columns of the paper's tables
//! run that path.
//!
//! The full-size shape, `ScaleTier::S1m` at K = 5 under the same budget, is
//! pinned both ways. It takes seconds in release and much longer in debug,
//! so those tests are `#[ignore]`d; run them with
//! `cargo test -q --release --test bit_identity -- --ignored`.

use current_recycling::circuits::scale::{scale_problem, ScaleTier};
use current_recycling::partition::{
    CostWeights, PartitionProblem, SolveResult, Solver, SolverOptions,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over the labels (little-endian `u32`s), then
/// `discrete_cost.to_bits()`, `iterations` and `refine_moves` (little-endian
/// `u64`s).
fn digest(result: &SolveResult) -> u64 {
    let mut hash = FNV_OFFSET;
    for &label in result.partition.labels() {
        hash = fnv1a(hash, &label.to_le_bytes());
    }
    hash = fnv1a(hash, &result.discrete_cost.to_bits().to_le_bytes());
    hash = fnv1a(hash, &(result.iterations as u64).to_le_bytes());
    fnv1a(hash, &(result.refine_moves as u64).to_le_bytes())
}

fn solve_s10k_k5(weights: CostWeights) -> SolveResult {
    solve_budgeted(
        ScaleTier::S10k,
        SolverOptions {
            weights,
            ..SolverOptions::default()
        },
    )
}

/// The default solve with refinement off: flat descent, no polish.
fn refine_off() -> SolverOptions {
    SolverOptions {
        refine: false,
        ..SolverOptions::default()
    }
}

fn solve_budgeted(tier: ScaleTier, options: SolverOptions) -> SolveResult {
    let generated = scale_problem(&tier.spec());
    let problem = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5)
        .expect("scale problems are valid");
    Solver::new(SolverOptions {
        iteration_budget: Some(8),
        ..options
    })
    .solve(&problem)
}

fn assert_pinned(result: &SolveResult, expected: u64) {
    let got = digest(result);
    assert_eq!(
        got,
        expected,
        "solve digest {got:#018x} != pinned {expected:#018x} \
         (iterations {}, refine_moves {}, discrete_cost bits {:#018x})",
        result.iterations,
        result.refine_moves,
        result.discrete_cost.to_bits()
    );
}

#[test]
fn s10k_k5_budgeted_solve_is_pinned() {
    let result = solve_s10k_k5(CostWeights::default());
    assert_eq!(result.iterations, 8);
    assert_pinned(&result, 0x20f3_c470_ec12_3e9a);
}

#[test]
fn s10k_k5_heavy_balance_solve_is_pinned() {
    let heavy = CostWeights {
        c2: 10.0,
        c3: 10.0,
        ..CostWeights::default()
    };
    let result = solve_s10k_k5(heavy);
    assert_eq!((result.iterations, result.refine_moves), (8, 708));
    assert_pinned(&result, 0x7fa5_a000_5f34_6a09);
}

#[test]
fn s10k_k5_budgeted_refine_off_solve_is_pinned() {
    let result = solve_budgeted(ScaleTier::S10k, refine_off());
    assert_eq!((result.iterations, result.refine_moves), (8, 0));
    assert_pinned(&result, 0xb1fb_890f_4807_56fe);
}

#[test]
#[ignore = "1M gates: run in release with --ignored"]
fn s1m_k5_budgeted_solve_is_pinned() {
    let result = solve_budgeted(ScaleTier::S1m, SolverOptions::default());
    assert_eq!(result.iterations, 8);
    assert_eq!(result.refine_moves, 43_124);
    assert_pinned(&result, 0x17b3_3b8f_8d80_66d7);
}

#[test]
#[ignore = "1M gates: run in release with --ignored"]
fn s1m_k5_budgeted_refine_off_solve_is_pinned() {
    let result = solve_budgeted(ScaleTier::S1m, refine_off());
    assert_eq!((result.iterations, result.refine_moves), (8, 0));
    assert_pinned(&result, 0xe796_e4df_f3cb_08f5);
}
