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
//! * **Fixed chunk layout** — on problems at or above
//!   [`EngineOptions::chunk_min_items`], sweeps are split into
//!   [`EngineOptions::num_chunks`] fixed ranges whose partial sums are
//!   folded in chunk order. Gate-sweep chunks split on gate boundaries, so
//!   their flat offsets (`start · stride`) stay lane-aligned by
//!   construction; edge-gather chunks are contiguous gate ranges balanced
//!   by incident-edge count. Every chunk runs on the calling thread. The
//!   layout depends only on the problem and is part of the numerical
//!   contract: it fixes the fold order, and with it every bit, of each
//!   problem at or above the threshold, so changing either constant moves
//!   those solves and their goldens.
//!
//! Numerical contract: an evaluation is a pure function of the problem, the
//! options and the iterate. Against the sequential-fold *reference*
//! implementations — the oracle the parity tests compare against — the
//! engine matches within `1e-12` relative: the stripes and the per-chunk
//! fold reorder additions, and the power kernels differ in the last ulp.

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
    /// Minimum work-item count (`G·K` for gate sweeps, `|E|` for the edge
    /// sweep) before a sweep is split into chunks.
    pub chunk_min_items: usize,
    /// Number of fixed chunks a gated sweep is split into. Part of the
    /// numerical contract: changing it changes fold order, so it is a
    /// configuration constant, never derived from the machine.
    pub num_chunks: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            gradient: GradientOptions::exact(),
            chunk_min_items: 8192,
            num_chunks: 8,
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
    /// Fixed gate-sweep chunk boundaries (contiguous, covering `0..G`).
    gate_bounds: Vec<(usize, usize)>,
    /// Fixed edge-gather chunk boundaries: contiguous *gate* ranges covering
    /// `0..G`, balanced by incident half-edge count.
    edge_bounds: Vec<(usize, usize)>,
    /// CSR edge adjacency for the edge gather.
    csr: Csr,
    labels: Vec<f64>,
    row_sums: Vec<f64>,
    force: Vec<f64>,
    /// Per-plane bias loads, padded to `stride` (padding stays `+0.0`).
    bias_sums: Vec<f64>,
    /// Per-plane area loads, padded to `stride`.
    area_sums: Vec<f64>,
    /// Per-chunk partial accumulators for the gate sweep, laid out per chunk
    /// as `[bias stride | area stride | f4]`.
    gate_partials: Vec<f64>,
    /// Per-chunk `F₁` partials for the edge gather.
    f1_partials: Vec<f64>,
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

/// Splits `0..len` into `chunks` contiguous ranges of near-equal size.
fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    (0..chunks)
        .map(|c| (c * len / chunks, (c + 1) * len / chunks))
        .collect()
}

/// Splits `0..G` into `chunks` contiguous gate ranges of near-equal incident
/// half-edge count, so the CSR edge gather balances work by degree rather
/// than by gate count. Deterministic in the offsets alone; ranges may be
/// empty on degenerate degree distributions.
fn degree_balanced_bounds(offsets: &[u32], chunks: usize) -> Vec<(usize, usize)> {
    let g = offsets.len() - 1;
    let chunks = chunks.max(1);
    let total = offsets[g] as usize;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        let end = if c == chunks {
            g
        } else {
            let target = c * total / chunks;
            let mut e = start;
            while e < g && (offsets[e] as usize) < target {
                e += 1;
            }
            e
        };
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// Gate sweep over one chunk: fixed `[f64; LANE]` blocks over the padded
/// row, accumulated in the canonical striped fold order. The zero padding
/// adds exact `+0.0` terms to every stripe and partial slot.
///
/// `F₄`'s row variance uses the algebraically equivalent
/// `Σw²/K − (Σw/K)²` so the row is read once; with entries in `[0,1]` the
/// cancellation error is far below the engine's `1e-12` contract.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
fn gate_pass_chunk(
    w: &WeightMatrix,
    plane_coeff: &[f64],
    bias: &[f64],
    area: &[f64],
    start: usize,
    end: usize,
    labels: &mut [f64],
    row_sums: &mut [f64],
    bias_part: &mut [f64],
    area_part: &mut [f64],
    f4_part: &mut f64,
) {
    let kf = w.num_planes() as f64;
    debug_assert_eq!(plane_coeff.len(), w.stride());
    for i in start..end {
        let row = w.padded_row(i);
        let bi = bias[i];
        let ai = area[i];
        let mut label = [0.0f64; LANE];
        let mut row_sum = [0.0f64; LANE];
        let mut sum_sq = [0.0f64; LANE];
        for (((rb, pb), bp), ap) in row
            .chunks_exact(LANE)
            .zip(plane_coeff.chunks_exact(LANE))
            .zip(bias_part.chunks_exact_mut(LANE))
            .zip(area_part.chunks_exact_mut(LANE))
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
        labels[i - start] = lanes::fold(label);
        let rs = lanes::fold(row_sum);
        row_sums[i - start] = rs;
        let mean = rs / kf;
        let var = lanes::fold(sum_sq) / kf - mean * mean;
        let dev = rs - 1.0;
        *f4_part += dev * dev - var;
    }
}

/// Edge gather over one chunk of gates (`start..end`): accumulates raw `F₁`
/// and writes each gate's interconnect force with a single store (no
/// scatter).
///
/// The CSR visits each undirected edge from both endpoints with identical
/// `|Δ|`, so the doubled `F₁` sum is halved at the end — an exact multiply
/// by `0.5`. There is no K dimension here; the 4-way stripe runs over each
/// gate's incident edges.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
fn edge_gather_chunk(
    offsets: &[u32],
    neighbors: &[u32],
    labels: &[f64],
    exponent: f64,
    n1: f64,
    paper_f1_sign: bool,
    start: usize,
    end: usize,
    f1_part: &mut f64,
    force: &mut [f64],
) {
    let mut f1_acc = [0.0f64; LANE];
    for u in start..end {
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
        force[u - start] = lanes::fold(facc);
    }
    *f1_part += lanes::fold(f1_acc) * 0.5;
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

/// Gradient write sweep over one chunk of gates: pure writes, no
/// cross-gate accumulation. Fixed `[f64; LANE]` blocks over the padded row;
/// each written entry is multiplied by the plane mask so padding slots land
/// on `±0.0` (`x·1.0` is bit-exact for the real entries). `coeff_bias`/
/// `coeff_area` carry the per-plane `F₂`/`F₃` coefficients with the term
/// weights already folded in.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
fn grad_pass_chunk(
    w: &WeightMatrix,
    plane_coeff: &[f64],
    mask: &[f64],
    bias: &[f64],
    area: &[f64],
    start: usize,
    end: usize,
    row_sums: &[f64],
    force: &[f64],
    coeff_bias: &[f64],
    coeff_area: &[f64],
    consts: GradConsts,
    out: &mut [f64],
) {
    let stride = w.stride();
    for i in start..end {
        let row = w.padded_row(i);
        let row_sum = row_sums[i - start];
        let row_mean = row_sum / consts.kf;
        let fc1 = consts.c1 * force[i];
        let bi = bias[i];
        let ai = area[i];
        let (f4_base, f4_slope) = consts.f4_affine(row_sum, row_mean);
        let base = (i - start) * stride;
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
        let e = problem.num_edges();
        let stride = lanes::padded(k);
        debug_assert_eq!(stride % LANE, 0);
        let csr = Csr::new(problem);

        let gate_chunks = if g * k >= options.chunk_min_items {
            options.num_chunks.max(1)
        } else {
            1
        };
        let edge_chunks = if e >= options.chunk_min_items {
            options.num_chunks.max(1)
        } else {
            1
        };
        let gate_bounds = chunk_bounds(g, gate_chunks);
        let edge_bounds = degree_balanced_bounds(&csr.offsets, edge_chunks);
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
            gate_partials: vec![0.0; gate_chunks * (2 * stride + 1)],
            f1_partials: vec![0.0; edge_chunks],
            coeff_bias: vec![0.0; stride],
            coeff_area: vec![0.0; stride],
            plane_coeff,
            mask,
            csr,
            gate_bounds,
            edge_bounds,
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

    /// True when at least one sweep is split into multiple chunks.
    pub fn is_chunked(&self) -> bool {
        self.gate_bounds.len() > 1 || self.edge_bounds.len() > 1
    }

    /// Fused gate sweep: fills `labels`, `row_sums`, `bias_sums`,
    /// `area_sums` and returns the raw (unnormalized) `F₄`.
    fn gate_pass(&mut self, w: &WeightMatrix) -> f64 {
        let problem = self.model.problem();
        let bias = problem.bias();
        let area = problem.area();
        let g = problem.num_gates();
        let pstride = 2 * self.stride + 1;

        self.bias_sums.fill(0.0);
        self.area_sums.fill(0.0);
        if self.gate_bounds.len() == 1 {
            // Fast path: accumulate straight into the engine buffers. Same
            // addition sequence as a one-chunk fold, minus the partial
            // buffers, slice splitting, and copies.
            let mut f4_raw = 0.0;
            gate_pass_chunk(
                w,
                &self.plane_coeff,
                bias,
                area,
                0,
                g,
                &mut self.labels,
                &mut self.row_sums,
                &mut self.bias_sums,
                &mut self.area_sums,
                &mut f4_raw,
            );
            return f4_raw;
        }

        self.gate_partials.fill(0.0);
        for (idx, &(start, end)) in self.gate_bounds.iter().enumerate() {
            let base = idx * pstride;
            let partial = &mut self.gate_partials[base..base + pstride];
            let (bias_part, rest) = partial.split_at_mut(self.stride);
            let (area_part, f4_part) = rest.split_at_mut(self.stride);
            gate_pass_chunk(
                w,
                &self.plane_coeff,
                bias,
                area,
                start,
                end,
                &mut self.labels[start..end],
                &mut self.row_sums[start..end],
                bias_part,
                area_part,
                &mut f4_part[0],
            );
        }

        // Fold partials in fixed chunk order.
        let mut f4_raw = 0.0;
        for partial in self.gate_partials.chunks(pstride) {
            for (s, &p) in self.bias_sums.iter_mut().zip(&partial[..self.stride]) {
                *s += p;
            }
            for (s, &p) in self
                .area_sums
                .iter_mut()
                .zip(&partial[self.stride..2 * self.stride])
            {
                *s += p;
            }
            f4_raw += partial[2 * self.stride];
        }
        f4_raw
    }

    /// Fused edge gather: returns raw `F₁` (double-counted, pre-halved per
    /// chunk) and writes `self.force` — one store per gate, no scatter, so
    /// forces are identical for any chunk layout.
    fn edge_pass(&mut self) -> f64 {
        let g = self.model.problem().num_gates();
        let exponent = self.model.exponent();
        let (n1, ..) = self.model.normalizations();
        let paper_sign = self.options.gradient.paper_f1_sign;

        if self.edge_bounds.len() == 1 {
            let mut f1_raw = 0.0;
            edge_gather_chunk(
                &self.csr.offsets,
                &self.csr.neighbors,
                &self.labels,
                exponent,
                n1,
                paper_sign,
                0,
                g,
                &mut f1_raw,
                &mut self.force,
            );
            return f1_raw;
        }

        self.f1_partials.fill(0.0);
        for (idx, &(start, end)) in self.edge_bounds.iter().enumerate() {
            edge_gather_chunk(
                &self.csr.offsets,
                &self.csr.neighbors,
                &self.labels,
                exponent,
                n1,
                paper_sign,
                start,
                end,
                &mut self.f1_partials[idx],
                &mut self.force[start..end],
            );
        }
        self.f1_partials.iter().sum()
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

        let f4_raw = self.gate_pass(w);
        let f1_raw = self.edge_pass();
        let cost = self.breakdown(f1_raw, f4_raw);

        let kf = k as f64;
        let b_mean = self.bias_sums[..k].iter().sum::<f64>() / kf;
        let a_mean = self.area_sums[..k].iter().sum::<f64>() / kf;
        let bias = problem.bias();
        let area = problem.area();
        let weights = self.model.weights();
        let (_, n2, n3, n4) = self.model.normalizations();

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
        let row_sums = &self.row_sums[..];
        let force = &self.force[..];
        let coeff_bias = &self.coeff_bias[..];
        let coeff_area = &self.coeff_area[..];

        if self.gate_bounds.len() == 1 {
            // Fast path: one write sweep over the whole matrix.
            grad_pass_chunk(
                w,
                &self.plane_coeff,
                &self.mask,
                bias,
                area,
                0,
                g,
                row_sums,
                force,
                coeff_bias,
                coeff_area,
                consts,
                out,
            );
            return cost;
        }

        for &(start, end) in &self.gate_bounds {
            // Chunk offsets stay lane-aligned because the stride is a
            // multiple of LANE — the alignment rule the lanes module
            // documents.
            debug_assert_eq!((start * stride) % LANE, 0);
            grad_pass_chunk(
                w,
                &self.plane_coeff,
                &self.mask,
                bias,
                area,
                start,
                end,
                &row_sums[start..end],
                force,
                coeff_bias,
                coeff_area,
                consts,
                &mut out[start * stride..end * stride],
            );
        }
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
/// Thread-confinement rule D3 (enforced by `sfqlint`) restricts thread
/// creation to this module so that chunking and fold order — the two things
/// that can silently reorder float accumulation — are auditable in one
/// place. Restart-level parallelism in the solver goes through this helper
/// instead of opening its own scope. Results are joined in spawn order, so
/// the output is positionally identical to a serial `items.into_iter().map(f)`.
///
/// Panics in a worker are re-raised on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let f = &f;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move |_| f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
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
    fn fused_matches_reference_unchunked() {
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
            ..EngineOptions::default()
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
    fn chunked_matches_unchunked_within_tolerance() {
        let p = random_problem(60, 5, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let w = WeightMatrix::random(60, 5, &mut rng);
        let mut plain = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        // Force chunking on a small problem.
        let chunked_options = EngineOptions {
            chunk_min_items: 1,
            num_chunks: 7,
            ..EngineOptions::default()
        };
        let mut chunked = CostEngine::new(&p, CostWeights::default(), 4.0, chunked_options);
        assert!(chunked.is_chunked());
        assert!(!plain.is_chunked());
        let mut ga = vec![0.0; w.padded_len()];
        let mut gb = vec![0.0; w.padded_len()];
        let ca = plain.evaluate_with_gradient(&w, &mut ga);
        let cb = chunked.evaluate_with_gradient(&w, &mut gb);
        assert_close(ca.total, cb.total, "total");
        for (&a, &b) in ga.iter().zip(&gb) {
            assert_close(a, b, "gradient entry");
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
    fn degree_balanced_bounds_partition_all_gates() {
        // Skewed degrees: gate 0 touches everything.
        let g = 20u32;
        let edges: Vec<(u32, u32)> = (1..g).map(|i| (0, i)).collect();
        let p =
            PartitionProblem::new(vec![1.0; g as usize], vec![1.0; g as usize], edges, 2).unwrap();
        let options = EngineOptions {
            chunk_min_items: 1,
            num_chunks: 4,
            ..EngineOptions::default()
        };
        let engine = CostEngine::new(&p, CostWeights::default(), 4.0, options);
        let bounds = &engine.edge_bounds;
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds[bounds.len() - 1].1, g as usize);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges are contiguous");
            assert!(w[0].0 <= w[0].1);
        }
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
