//! Fused cost + gradient evaluation engine for the descent inner loop.
//!
//! The reference implementations — [`CostModel::evaluate`] and
//! [`Gradient::compute`](crate::grad::Gradient::compute) — are written for
//! clarity: the cost does one sweep per term and the gradient re-derives the
//! labels and plane sums the cost just computed, allocating fresh buffers
//! along the way. Calling both every iteration of Algorithm 1 would cost
//! roughly three times the necessary `O(G·K)` work plus thousands of
//! short-lived allocations, so they serve only as the oracle the parity
//! tests compare against.
//!
//! [`CostEngine`] — the only evaluation a solve runs — removes that
//! overhead without changing the mathematics:
//!
//! * **Fusion** — one gate sweep accumulates labels, row sums, per-plane
//!   bias/area loads, and the `F₄` pressure together; one edge sweep
//!   accumulates `F₁` and the per-gate interconnect forces; one final gate
//!   sweep writes the gradient. Cost and gradient come out of a single
//!   `O(E + G·K)` pass instead of two interleaved `≈3×` passes.
//! * **Lane kernels on padded rows** — the weight matrix stores rows with
//!   stride [`lanes::padded`]`(K)` and zero padding, and every K-plane loop
//!   runs in fixed `[f64; LANE]` blocks with the canonical striped fold
//!   order (see the [`lanes`](crate::lanes) module).
//! * **CSR edge gather** — the edge list is converted once into a
//!   compressed adjacency (offsets + packed neighbors), so the edge sweep
//!   streams each gate's incident edges contiguously and writes its force
//!   with a single store instead of scattering `+=` updates across the
//!   force buffer. Each undirected edge is visited from both endpoints and
//!   the doubled `F₁` sum is halved (exactly — a multiply by `0.5`).
//! * **Zero allocation** — every buffer is owned by the engine and reused
//!   across iterations; after [`CostEngine::new`] the descent loop does not
//!   allocate.
//! * **Integer-exponent kernels** — label distances go through
//!   [`kernel::pow_abs`]/[`kernel::pow_grad_abs`] (multiply chains for the
//!   paper's `p = 4`) instead of transcendental `powf`.
//! * **One sweep per pass** — each pass runs once over `0..G` on the
//!   calling thread, so the per-plane bias and area loads accumulate in
//!   gate order, as in the reference [`CostModel::evaluate`].
//!
//! Numerical contract: an evaluation is a pure function of the problem, the
//! options and the iterate. Against the sequential-fold *reference*
//! implementations — the oracle the parity tests compare against — the
//! engine matches within `1e-12` relative: the stripes reorder additions
//! and the power kernels differ in the last ulp. `F₂` and `F₃` are
//! bit-equal to the reference's at every problem size: both add the plane
//! loads in gate order and both call the same `cost::variance`.

use crate::cost::{variance, CostBreakdown, CostModel, CostWeights};
use crate::grad::GradientOptions;
use crate::kernel;
use crate::lanes::{self, LANE};
use crate::problem::PartitionProblem;
use crate::weights::WeightMatrix;

/// Configuration of the fused engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Gradient formula selection (exact vs as-printed), shared with the
    /// reference [`Gradient`](crate::grad::Gradient).
    pub gradient: GradientOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            gradient: GradientOptions::exact(),
        }
    }
}

/// High bit of a packed CSR neighbor entry: set when this gate is the
/// *source* of the shared edge (used by the paper's unsigned `F₁` force
/// convention, which signs by edge direction). The construction asserts
/// `G < 2³¹`, so the bit never collides with a gate index.
pub(crate) const SRC_BIT: u32 = 1 << 31;

/// CSR edge adjacency of a problem: every gate's incident edges, stored
/// contiguously. The engine's edge gather and refine's move evaluation both
/// read it.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// `G + 1` prefix sums of gate degree: gate `i`'s entries are
    /// `neighbors[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<u32>,
    /// `2·E` packed words: the neighbor's gate index, plus [`SRC_BIT`] when
    /// this gate is the edge's source. Each undirected edge appears once
    /// from each endpoint; a gate's entries follow edge-list order, so a
    /// parallel edge appears once per copy.
    pub(crate) neighbors: Vec<u32>,
}

impl Csr {
    /// Builds the adjacency: offsets by counting degrees, then packed
    /// neighbors in edge-list order with the source bit on the `u` side.
    ///
    /// # Panics
    ///
    /// Panics on problems beyond the packing range (`G ≥ 2³¹` or
    /// `2·E > u32::MAX`).
    pub(crate) fn new(problem: &PartitionProblem) -> Self {
        let g = problem.num_gates();
        let e = problem.num_edges();
        assert!(g < (1usize << 31), "CSR packing requires G < 2^31");
        assert!(
            2 * e <= u32::MAX as usize,
            "CSR offsets require 2·E ≤ u32::MAX"
        );
        let mut offsets = vec![0u32; g + 1];
        for &(u, v) in problem.edges() {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..g {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..g].to_vec();
        let mut neighbors = vec![0u32; 2 * e];
        for &(u, v) in problem.edges() {
            neighbors[cursor[u as usize] as usize] = v | SRC_BIT;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    /// Gate `gate`'s packed neighbor words (mask [`SRC_BIT`] to get the
    /// gate index).
    #[inline]
    pub(crate) fn neighbors_of(&self, gate: usize) -> &[u32] {
        &self.neighbors[self.offsets[gate] as usize..self.offsets[gate + 1] as usize]
    }
}

/// Fused, allocation-free cost + gradient evaluator over a fixed problem.
///
/// # Example
///
/// ```
/// use sfq_partition::engine::{CostEngine, EngineOptions};
/// use sfq_partition::{CostModel, CostWeights, PartitionProblem, WeightMatrix};
/// use sfq_partition::grad::{Gradient, GradientOptions};
///
/// let p = PartitionProblem::new(vec![1.0; 4], vec![1.0; 4],
///                               vec![(0, 1), (1, 2), (2, 3)], 2)?;
/// let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0,
///                                  EngineOptions::default());
/// let w = WeightMatrix::uniform(4, 2);
/// // Gradient buffers use the matrix's padded lane layout.
/// let mut grad = vec![0.0; w.padded_len()];
/// let cost = engine.evaluate_with_gradient(&w, &mut grad);
///
/// // Same numbers as the reference pair, in one fused pass.
/// let model = CostModel::new(&p, CostWeights::default());
/// assert!((cost.total - model.evaluate(&w).total).abs() < 1e-12);
/// let mut reference = Gradient::new(GradientOptions::exact());
/// let mut expect = vec![0.0; w.padded_len()];
/// reference.compute(&model, &w, &mut expect);
/// for (a, b) in grad.iter().zip(&expect) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CostEngine<'a> {
    model: CostModel<'a>,
    options: EngineOptions,
    /// Padded row stride of the weight matrix (multiple of [`LANE`]).
    stride: usize,
    /// CSR edge adjacency for the edge gather.
    csr: Csr,
    labels: Vec<f64>,
    row_sums: Vec<f64>,
    force: Vec<f64>,
    /// Per-plane bias loads, padded to `stride` (padding stays `+0.0`).
    bias_sums: Vec<f64>,
    /// Per-plane area loads, padded to `stride`.
    area_sums: Vec<f64>,
    /// Per-plane weighted `F₂` gradient coefficients
    /// (`c₂·2·(B_k − B̄)/(K·N₂)`), padded; recomputed each gradient call.
    coeff_bias: Vec<f64>,
    /// Per-plane weighted `F₃` gradient coefficients, analogous to
    /// [`Self::coeff_bias`].
    coeff_area: Vec<f64>,
    /// Plane numbers `k+1` as floats, padded to `stride` — the label/`F₁`
    /// coefficient vector for the lane kernels.
    plane_coeff: Vec<f64>,
    /// `1.0` for real planes, `0.0` for padding: the lane gradient kernel
    /// multiplies each written entry by this to keep padding slots at zero.
    mask: Vec<f64>,
}

/// Gate sweep: fills `labels` and `row_sums`, and adds every gate's
/// weighted row into `bias_sums`/`area_sums` and its raw (unnormalized)
/// `F₄` term into `f4_raw`, in gate order. Fixed `[f64; LANE]` blocks over
/// the padded row, accumulated in the canonical striped fold order; the
/// zero padding adds exact `+0.0` terms to every stripe and padding slot.
///
/// `F₄`'s row variance uses the algebraically equivalent
/// `Σw²/K − (Σw/K)²` so the row is read once; with entries in `[0,1]` the
/// cancellation error is far below the engine's `1e-12` contract.
// All three kernels stay out of line: inlined into their one caller,
// `evaluate_with_gradient`, they made an isolated C1908@K=30 evaluation
// about 15 % slower (median of 120 paired rounds, x86-64-v3). Returning
// `F₄` instead of adding it into `f4_raw` cost about 10 % the same way.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
#[inline(never)]
fn gate_pass(
    w: &WeightMatrix,
    plane_coeff: &[f64],
    bias: &[f64],
    area: &[f64],
    labels: &mut [f64],
    row_sums: &mut [f64],
    bias_sums: &mut [f64],
    area_sums: &mut [f64],
    f4_raw: &mut f64,
) {
    let kf = w.num_planes() as f64;
    debug_assert_eq!(plane_coeff.len(), w.stride());
    for i in 0..w.num_gates() {
        let row = w.padded_row(i);
        let bi = bias[i];
        let ai = area[i];
        let mut label = [0.0f64; LANE];
        let mut row_sum = [0.0f64; LANE];
        let mut sum_sq = [0.0f64; LANE];
        for (((rb, pb), bp), ap) in row
            .chunks_exact(LANE)
            .zip(plane_coeff.chunks_exact(LANE))
            .zip(bias_sums.chunks_exact_mut(LANE))
            .zip(area_sums.chunks_exact_mut(LANE))
        {
            for j in 0..LANE {
                let wk = rb[j];
                label[j] += pb[j] * wk;
                row_sum[j] += wk;
                sum_sq[j] += wk * wk;
                bp[j] += bi * wk;
                ap[j] += ai * wk;
            }
        }
        labels[i] = lanes::fold(label);
        let rs = lanes::fold(row_sum);
        row_sums[i] = rs;
        let mean = rs / kf;
        let var = lanes::fold(sum_sq) / kf - mean * mean;
        let dev = rs - 1.0;
        *f4_raw += dev * dev - var;
    }
}

/// Edge gather: accumulates raw `F₁` into `f1_raw` and writes each gate's
/// interconnect force with a single store (no scatter).
///
/// The CSR visits each undirected edge from both endpoints with identical
/// `|Δ|`, so the doubled `F₁` sum is halved at the end — an exact multiply
/// by `0.5`. There is no K dimension here; the 4-way stripe runs over each
/// gate's incident edges.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
#[inline(never)] // see `gate_pass`
fn edge_gather(
    offsets: &[u32],
    neighbors: &[u32],
    labels: &[f64],
    exponent: f64,
    n1: f64,
    paper_f1_sign: bool,
    f1_raw: &mut f64,
    force: &mut [f64],
) {
    let mut f1_acc = [0.0f64; LANE];
    for u in 0..force.len() {
        let lu = labels[u];
        let lo = offsets[u] as usize;
        let hi = offsets[u + 1] as usize;
        let adj = &neighbors[lo..hi];
        let mut facc = [0.0f64; LANE];
        for (t, &nb) in adj.iter().enumerate() {
            let v = (nb & !SRC_BIT) as usize;
            let delta = lu - labels[v];
            let j = t % LANE;
            f1_acc[j] += kernel::pow_abs(delta, exponent);
            let magnitude = kernel::pow_grad_abs(delta, exponent) / n1;
            let s = if paper_f1_sign {
                // As printed: + for the edge's source, − for its sink,
                // regardless of which label is larger.
                if nb & SRC_BIT != 0 {
                    magnitude
                } else {
                    -magnitude
                }
            } else {
                magnitude * delta.signum()
            };
            facc[j] += s;
        }
        force[u] = lanes::fold(facc);
    }
    *f1_raw += lanes::fold(f1_acc) * 0.5;
}

/// Weighted per-iteration constants for the gradient write sweep; everything
/// that does not depend on the gate is folded in here once per call.
#[derive(Debug, Clone, Copy)]
struct GradConsts {
    /// `c₁` (multiplies the per-gate interconnect force).
    c1: f64,
    /// `c₄·2/N₄` — multiplies `(Σw − 1)` in the exact `F₄` formula.
    f4_lin: f64,
    /// `c₄·2/(N₄·K)` — multiplies `(w − mean)` in the exact `F₄` formula.
    f4_dev: f64,
    /// Use the as-printed `F₄` derivative instead of the exact one.
    paper_f4: bool,
    /// `c₄·2/N₄·(K + 1/K)` — printed-formula slope.
    pf: f64,
    /// `c₄·2/N₄·(K − 1)` — printed-formula constant.
    pc: f64,
    /// `K` as a float.
    kf: f64,
}

impl GradConsts {
    /// The affine `df4 = base − slope·w_ik` coefficients for a row, for
    /// either `F₄` formula.
    #[inline]
    fn f4_affine(&self, row_sum: f64, row_mean: f64) -> (f64, f64) {
        if self.paper_f4 {
            (self.pc + self.pf * row_mean, self.pf)
        } else {
            (
                self.f4_lin * (row_sum - 1.0) + self.f4_dev * row_mean,
                self.f4_dev,
            )
        }
    }
}

/// Gradient write sweep: pure writes, no cross-gate accumulation. Fixed
/// `[f64; LANE]` blocks over the padded row; each written entry is
/// multiplied by the plane mask so padding slots land on `±0.0` (`x·1.0` is
/// bit-exact for the real entries). `coeff_bias`/`coeff_area` carry the
/// per-plane `F₂`/`F₃` coefficients with the term weights already folded
/// in.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
#[inline(never)] // see `gate_pass`
fn grad_pass(
    w: &WeightMatrix,
    plane_coeff: &[f64],
    mask: &[f64],
    bias: &[f64],
    area: &[f64],
    row_sums: &[f64],
    force: &[f64],
    coeff_bias: &[f64],
    coeff_area: &[f64],
    consts: GradConsts,
    out: &mut [f64],
) {
    let stride = w.stride();
    for i in 0..w.num_gates() {
        let row = w.padded_row(i);
        let row_sum = row_sums[i];
        let row_mean = row_sum / consts.kf;
        let fc1 = consts.c1 * force[i];
        let bi = bias[i];
        let ai = area[i];
        let (f4_base, f4_slope) = consts.f4_affine(row_sum, row_mean);
        let base = i * stride;
        let out_row = &mut out[base..base + stride];
        for ((ob, rb), ((pb, mb), (cbb, cab))) in out_row
            .chunks_exact_mut(LANE)
            .zip(row.chunks_exact(LANE))
            .zip(
                plane_coeff
                    .chunks_exact(LANE)
                    .zip(mask.chunks_exact(LANE))
                    .zip(
                        coeff_bias
                            .chunks_exact(LANE)
                            .zip(coeff_area.chunks_exact(LANE)),
                    ),
            )
        {
            for j in 0..LANE {
                ob[j] = (pb[j] * fc1 + bi * cbb[j] + ai * cab[j] + (f4_base - f4_slope * rb[j]))
                    * mb[j];
            }
        }
    }
}

impl<'a> CostEngine<'a> {
    /// Creates an engine over `problem`, building the CSR adjacency and
    /// pre-sizing every scratch buffer so the descent loop runs
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `exponent < 1` (forwarded from [`CostModel`]) or on
    /// problems beyond the CSR index range (`G ≥ 2³¹` or `2·E > u32::MAX`).
    pub fn new(
        problem: &'a PartitionProblem,
        weights: CostWeights,
        exponent: f64,
        options: EngineOptions,
    ) -> Self {
        let model = CostModel::with_exponent(problem, weights, exponent);
        let g = problem.num_gates();
        let k = problem.num_planes();
        let stride = lanes::padded(k);
        debug_assert_eq!(stride % LANE, 0);
        let csr = Csr::new(problem);
        let plane_coeff: Vec<f64> = (0..stride).map(|j| (j + 1) as f64).collect();
        let mask: Vec<f64> = (0..stride).map(|j| if j < k { 1.0 } else { 0.0 }).collect();
        CostEngine {
            model,
            options,
            stride,
            labels: vec![0.0; g],
            row_sums: vec![0.0; g],
            force: vec![0.0; g],
            bias_sums: vec![0.0; stride],
            area_sums: vec![0.0; stride],
            coeff_bias: vec![0.0; stride],
            coeff_area: vec![0.0; stride],
            plane_coeff,
            mask,
            csr,
        }
    }

    /// Consumes the engine, keeping only its CSR adjacency: refine reads the
    /// same one, so the solver hands it over instead of building it again.
    pub(crate) fn into_csr(self) -> Csr {
        self.csr
    }

    /// The underlying cost model (normalizations, means, weights).
    pub fn model(&self) -> &CostModel<'a> {
        &self.model
    }

    /// The engine options in use.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Replaces the term weights (the solver's `c₄` warm-up ramp).
    pub fn set_weights(&mut self, weights: CostWeights) {
        self.model.set_weights(weights);
    }

    /// Assembles the normalized [`CostBreakdown`] from raw term sums.
    fn breakdown(&self, f1_raw: f64, f4_raw: f64) -> CostBreakdown {
        let k = self.model.problem().num_planes();
        let (n1, n2, n3, n4) = self.model.normalizations();
        let weights = self.model.weights();
        let f1 = f1_raw / n1;
        // Only the K real plane slots: `variance` divides by the slice
        // length, so the zero padding must stay out of it.
        let f2 = variance(&self.bias_sums[..k]) / n2;
        let f3 = variance(&self.area_sums[..k]) / n3;
        let f4 = f4_raw / n4;
        CostBreakdown {
            f1,
            f2,
            f3,
            f4,
            total: weights.c1 * f1 + weights.c2 * f2 + weights.c3 * f3 + weights.c4 * f4,
        }
    }

    /// Checks `w` against the problem dimensions.
    fn check_dims(&self, w: &WeightMatrix) {
        let problem = self.model.problem();
        assert_eq!(
            w.num_gates(),
            problem.num_gates(),
            "weight matrix row count mismatch"
        );
        assert_eq!(
            w.num_planes(),
            problem.num_planes(),
            "weight matrix column count mismatch"
        );
    }

    /// Evaluates the cost **and** writes the weighted gradient `∂F/∂w` into
    /// `out` (padded row-major, stride [`WeightMatrix::stride`]) in one
    /// fused `O(E + G·K)` pass.
    ///
    /// This is the only evaluation a solve runs. The reference
    /// [`CostModel::evaluate`] + [`Gradient::compute`](crate::grad::Gradient::compute)
    /// pair computes the same numbers (within the module's `1e-12`
    /// contract) in ≈3× the sweeps and serves as the oracle the parity
    /// tests compare against.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != `[`WeightMatrix::padded_len`] or `w`'s
    /// dimensions mismatch.
    pub fn evaluate_with_gradient(&mut self, w: &WeightMatrix, out: &mut [f64]) -> CostBreakdown {
        self.check_dims(w);
        let problem = self.model.problem();
        let g = problem.num_gates();
        let k = problem.num_planes();
        let stride = self.stride;
        assert_eq!(out.len(), g * stride, "gradient buffer size mismatch");

        let bias = problem.bias();
        let area = problem.area();
        self.bias_sums.fill(0.0);
        self.area_sums.fill(0.0);
        let mut f4_raw = 0.0;
        gate_pass(
            w,
            &self.plane_coeff,
            bias,
            area,
            &mut self.labels,
            &mut self.row_sums,
            &mut self.bias_sums,
            &mut self.area_sums,
            &mut f4_raw,
        );
        let (n1, n2, n3, n4) = self.model.normalizations();
        let mut f1_raw = 0.0;
        edge_gather(
            &self.csr.offsets,
            &self.csr.neighbors,
            &self.labels,
            self.model.exponent(),
            n1,
            self.options.gradient.paper_f1_sign,
            &mut f1_raw,
            &mut self.force,
        );
        let cost = self.breakdown(f1_raw, f4_raw);

        let kf = k as f64;
        let b_mean = self.bias_sums[..k].iter().sum::<f64>() / kf;
        let a_mean = self.area_sums[..k].iter().sum::<f64>() / kf;
        let weights = self.model.weights();

        // Fold the term weights and normalizations into per-plane (F₂/F₃)
        // and scalar (F₁/F₄) coefficients once per call, so the per-entry
        // work below is a handful of fused multiply-adds. Only the K real
        // slots are written; the padding stays at the 0.0 it was built with.
        let cb = weights.c2 * 2.0 / (kf * n2);
        for (c, &s) in self.coeff_bias[..k].iter_mut().zip(&self.bias_sums[..k]) {
            *c = cb * (s - b_mean);
        }
        let ca = weights.c3 * 2.0 / (kf * n3);
        for (c, &s) in self.coeff_area[..k].iter_mut().zip(&self.area_sums[..k]) {
            *c = ca * (s - a_mean);
        }
        let a4 = weights.c4 * 2.0 / n4;
        let consts = GradConsts {
            c1: weights.c1,
            f4_lin: a4,
            f4_dev: a4 / kf,
            paper_f4: self.options.gradient.paper_f4_formula,
            pf: a4 * (kf + 1.0 / kf),
            pc: a4 * (kf - 1.0),
            kf,
        };
        grad_pass(
            w,
            &self.plane_coeff,
            &self.mask,
            bias,
            area,
            &self.row_sums,
            &self.force,
            &self.coeff_bias,
            &self.coeff_area,
            consts,
            out,
        );
        cost
    }
}

/// Maps `f` over `items` on scoped threads, one per item, collecting results
/// in item order. Each item moves onto its worker thread, so the solver can
/// carry owned per-restart state — in particular the per-restart telemetry
/// observers forked by
/// [`SolveObserver::begin_restart`](crate::telemetry::SolveObserver::begin_restart)
/// — into restart workers.
///
/// The workspace `clippy.toml` bans thread creation, and this function
/// carries the solver's one exception, so which work runs on which thread
/// is auditable in one place. Each worker runs one whole restart and no
/// float reduction crosses threads. Restart-level parallelism in the solver
/// goes through this helper instead of opening its own scope. Results are
/// joined in spawn order, so the output is positionally identical to a
/// serial `items.into_iter().map(f)`.
///
/// Panics in a worker are re-raised on the calling thread.
#[expect(
    clippy::disallowed_methods,
    reason = "the solver's one thread scope: one restart per thread, joined in spawn order"
)]
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::Gradient;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(g: usize, k: usize, seed: u64) -> PartitionProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let bias: Vec<f64> = (0..g).map(|_| rng.random_range(0.2..2.0)).collect();
        let area: Vec<f64> = (0..g).map(|_| rng.random_range(1.0..10.0)).collect();
        let mut edges = Vec::new();
        for i in 1..g as u32 {
            let j = rng.random_range(0..i);
            edges.push((j, i));
            if rng.random_bool(0.4) {
                edges.push((rng.random_range(0..i), i));
            }
        }
        PartitionProblem::new(bias, area, edges, k).unwrap()
    }

    fn reference_pair(
        problem: &PartitionProblem,
        w: &WeightMatrix,
        grad_options: GradientOptions,
    ) -> (CostBreakdown, Vec<f64>) {
        let model = CostModel::new(problem, CostWeights::default());
        let cost = model.evaluate(w);
        let mut gradient = Gradient::new(grad_options);
        let mut out = vec![0.0; w.padded_len()];
        gradient.compute(&model, w, &mut out);
        (cost, out)
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() / scale < 1e-12, "{what}: {a} vs {b}");
    }

    #[test]
    fn fused_matches_reference() {
        // Includes the smallest legal K, K below, at, and above the lane
        // width, and a single-gate problem, so the padding lanes are
        // checked against the oracle. (K = 1 is rejected by
        // `PartitionProblem`.)
        for (seed, (g, k)) in [(30, 4), (40, 5), (25, 3), (30, 2), (1, 6), (17, 8)]
            .into_iter()
            .enumerate()
        {
            let p = random_problem(g, k, seed as u64);
            let mut rng = StdRng::seed_from_u64(seed as u64 + 100);
            let w = WeightMatrix::random(g, k, &mut rng);
            let mut engine =
                CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
            let mut grad = vec![0.0; w.padded_len()];
            let cost = engine.evaluate_with_gradient(&w, &mut grad);
            let (expect_cost, expect_grad) = reference_pair(&p, &w, GradientOptions::exact());
            let at = format!("g={g} k={k}");
            assert_close(cost.f1, expect_cost.f1, &format!("{at} f1"));
            assert_close(cost.f2, expect_cost.f2, &format!("{at} f2"));
            assert_close(cost.f3, expect_cost.f3, &format!("{at} f3"));
            assert_close(cost.f4, expect_cost.f4, &format!("{at} f4"));
            assert_close(cost.total, expect_cost.total, &format!("{at} total"));
            for (i, (&a, &b)) in grad.iter().zip(&expect_grad).enumerate() {
                assert_close(a, b, &format!("{at} grad[{i}]"));
            }
        }
    }

    #[test]
    fn fused_matches_reference_with_paper_gradients() {
        let p = random_problem(24, 3, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let w = WeightMatrix::random(24, 3, &mut rng);
        let options = EngineOptions {
            gradient: GradientOptions::as_printed(),
        };
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, options);
        let mut grad = vec![0.0; w.padded_len()];
        engine.evaluate_with_gradient(&w, &mut grad);
        let (_, expect_grad) = reference_pair(&p, &w, GradientOptions::as_printed());
        for (&a, &b) in grad.iter().zip(&expect_grad) {
            assert_close(a, b, "printed-formula gradient entry");
        }
    }

    #[test]
    fn repeated_evaluations_are_stable() {
        // Scratch reuse must not leak state between calls.
        let p = random_problem(25, 4, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let w1 = WeightMatrix::random(25, 4, &mut rng);
        let w2 = WeightMatrix::random(25, 4, &mut rng);
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        let mut g1 = vec![0.0; w1.padded_len()];
        let first = engine.evaluate_with_gradient(&w1, &mut g1);
        let mut scratch = vec![0.0; w1.padded_len()];
        engine.evaluate_with_gradient(&w2, &mut scratch);
        let mut g1_again = vec![0.0; w1.padded_len()];
        let again = engine.evaluate_with_gradient(&w1, &mut g1_again);
        assert_eq!(first, again);
        assert_eq!(g1, g1_again);
    }

    #[test]
    fn set_weights_tracks_ramp() {
        let p = random_problem(10, 3, 41);
        let w = WeightMatrix::uniform(10, 3);
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        let mut grad = vec![0.0; w.padded_len()];
        let base = engine.evaluate_with_gradient(&w, &mut grad);
        engine.set_weights(CostWeights {
            c1: 2.0,
            ..CostWeights::default()
        });
        let doubled = engine.evaluate_with_gradient(&w, &mut grad);
        assert_close(
            doubled.total - base.total,
            base.f1,
            "total responds to weight change",
        );
    }

    #[test]
    fn exponent_two_matches_reference() {
        let p = random_problem(20, 4, 51);
        let mut rng = StdRng::seed_from_u64(52);
        let w = WeightMatrix::random(20, 4, &mut rng);
        let mut engine = CostEngine::new(&p, CostWeights::default(), 2.0, EngineOptions::default());
        let model = CostModel::with_exponent(&p, CostWeights::default(), 2.0);
        let mut grad = vec![0.0; w.padded_len()];
        let fused = engine.evaluate_with_gradient(&w, &mut grad);
        let reference = model.evaluate(&w);
        assert_close(fused.total, reference.total, "p=2 total");
        assert_close(fused.f1, reference.f1, "p=2 f1");
    }

    #[test]
    #[should_panic(expected = "gradient buffer size mismatch")]
    fn wrong_gradient_buffer_panics() {
        let p = random_problem(6, 2, 61);
        let w = WeightMatrix::uniform(6, 2);
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        let mut out = vec![0.0; 5];
        engine.evaluate_with_gradient(&w, &mut out);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn wrong_matrix_dims_panic() {
        let p = random_problem(6, 2, 62);
        let w = WeightMatrix::uniform(5, 2);
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        let mut out = vec![0.0; w.padded_len()];
        engine.evaluate_with_gradient(&w, &mut out);
    }
}
