//! Dynamic cross-check of sfqlint's A1 rule: a counting global allocator
//! proves that one full fused descent iteration — `evaluate_with_gradient`
//! plus the weight update, in the swapped-buffer shape `Solver` runs —
//! performs **zero** allocations after warm-up, on the roadmap benchmarks.
//! It also proves that a refine pass allocates nothing: `refine::refine`
//! allocates the same number of times whether it may run one pass or
//! forty, which is the runtime side of the `MoveState::*` A1 roots.
//!
//! A1 establishes allocation-freedom statically through the workspace call
//! graph; this test is the runtime tripwire if the graph approximation ever
//! misses a path (a closure, a trait object, a macro expansion). The two
//! must agree: if this test starts failing, either a hot-path allocation
//! slipped in (fix the code) or A1's known-safe list grew a hole (fix the
//! lint).
//!
//! Last, it pins the peak memory of a V-cycle solve: the most bytes live
//! at once while `Solver::solve` runs on a budgeted 10⁵-gate scale
//! circuit at K = 5 (the path sfqbench's `s1m_k5` takes, at a tenth of its
//! size), above what was live before the call. The allocation sequence of
//! a one-restart serial solve is deterministic, so the figure repeats
//! exactly; a change that holds more while solving fails it. It read
//! 10 888 364 B when every level kept its edge list and each polish copied
//! its labels and settled set, and reads [`SOLVE_PEAK_BYTES`] now: the
//! hierarchy (7.15 MB) and the level-0 polish's labels, floors and bitsets.
//!
//! This test runs **without the libtest harness** (`harness = false` in
//! `Cargo.toml`): the harness's main thread lazily allocates its
//! channel-blocking context the first time it parks waiting for a test,
//! and whether that one-off allocation lands inside the measured window is
//! a scheduling race. Harness-free, the process owns every thread it
//! measures — just `main`. The counting
//! wrapper defers to the system allocator. The allocation checks count
//! calls, not bytes, so arena reuse cannot mask a regression; the peak
//! check counts the bytes requested, not the pages the system allocator
//! maps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfq_circuits::registry::{generate, Benchmark};
use sfq_circuits::scale::{scale_problem, ScaleSpec};
use sfq_partition::engine::{CostEngine, EngineOptions};
use sfq_partition::refine::{refine, RefineOptions};
use sfq_partition::{CostWeights, PartitionProblem, Solver, SolverOptions, WeightMatrix};

/// Counts every allocator entry point, then defers to [`System`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most of them live at once
/// since [`reset_peak`].
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::SeqCst) + bytes as u64;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::SeqCst);
}

// SAFETY: every method forwards verbatim to `System` after bumping an
// atomic counter, so the allocator contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed straight to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same layout handed straight to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    // A realloc is a fresh acquisition from the hot loop's perspective.
    // SAFETY: pointer/layout/new_size forwarded untouched to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: pointer/layout forwarded untouched to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn checkpoint() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

/// The most bytes live at once during the budgeted S100K solve, above its
/// input (see the module docs).
const SOLVE_PEAK_BYTES: u64 = 8_393_012;

/// Restarts the peak at the bytes live now, and returns them.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

fn problem(bench: Benchmark, k: usize) -> PartitionProblem {
    let netlist = generate(bench);
    PartitionProblem::from_netlist(&netlist, k).expect("suite circuits are valid")
}

fn main() {
    // Positive control: prove the wrapper is actually installed and
    // counting before trusting any zero below.
    let (control_allocs, _) = checkpoint();
    let probe = vec![0u8; 64];
    drop(probe);
    let (after_control, _) = checkpoint();
    assert!(
        after_control > control_allocs,
        "counting allocator is not intercepting allocations"
    );

    // KSA16@K=5 (G·K = 2 745) and C1908@K=30 (G·K = 50 850).
    for (bench, k, iters) in [(Benchmark::Ksa16, 5, 50), (Benchmark::C1908, 30, 20)] {
        let p = problem(bench, k);
        let g = p.num_gates();
        let tag = format!("{} k={k}", bench.name());
        let mut engine = CostEngine::new(&p, CostWeights::default(), 4.0, EngineOptions::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut w = WeightMatrix::random(g, k, &mut rng);
        let mut w_prev = w.clone();
        let mut step = vec![0.0; w.padded_len()];
        let mut prev_step = vec![0.0; w.padded_len()];
        // One iteration as `Solver` runs it: evaluate at `w`, swap the
        // iterate and its step into the rollback buffers, then step from
        // them into the stale pair.
        let mut iterate = |w: &mut WeightMatrix, w_prev: &mut WeightMatrix| {
            let cost = engine.evaluate_with_gradient(w, &mut step);
            std::mem::swap(w, w_prev);
            std::mem::swap(&mut step, &mut prev_step);
            w.descend_from(w_prev, &prev_step, 0.05);
            cost.total
        };

        // Warm-up: any lazy first-touch work (allocator arenas) happens
        // here, outside the measured window.
        for _ in 0..3 {
            iterate(&mut w, &mut w_prev);
        }

        let (a0, d0) = checkpoint();
        let mut total = 0.0;
        for _ in 0..iters {
            total += iterate(&mut w, &mut w_prev);
        }
        let (a1, d1) = checkpoint();

        assert!(total.is_finite());
        assert_eq!(
            a1 - a0,
            0,
            "{tag}: descent iterations allocated after warm-up"
        );
        assert_eq!(
            d1 - d0,
            0,
            "{tag}: descent iterations deallocated after warm-up"
        );
        println!("alloc sanitizer: {tag}: 0 allocations over {iters} iterations");
    }

    // Refine: set-up (adjacency, move state, the per-gate skip state,
    // output partition) allocates a fixed number of times; the passes
    // allocate nothing, so a refine that may run forty passes allocates
    // exactly as often as one that may run one. The start is a short
    // descent's snap, far enough from a local optimum that the second and
    // later passes still move gates.
    let p = problem(Benchmark::C1908, 30);
    let snapped = Solver::new(SolverOptions {
        max_iterations: 20,
        refine: false,
        ..SolverOptions::default()
    })
    .solve(&p)
    .partition;
    let refine_allocs = |max_passes: usize| {
        let options = RefineOptions {
            max_passes,
            ..RefineOptions::default()
        };
        let (a0, _) = checkpoint();
        let (refined, moves) = refine(&p, &snapped, &options);
        let (a1, _) = checkpoint();
        drop(refined);
        (a1 - a0, moves)
    };
    let (one_pass, one_pass_moves) = refine_allocs(1);
    let (many_passes, many_passes_moves) = refine_allocs(40);
    assert!(
        many_passes_moves > one_pass_moves,
        "later passes must move gates for this check to cover them \
         ({one_pass_moves} vs {many_passes_moves} moves)"
    );
    assert_eq!(
        one_pass, many_passes,
        "C1908 k=30 refine: {one_pass} allocations with max_passes 1, \
         {many_passes} with max_passes 40 ({many_passes_moves} moves)"
    );
    println!(
        "alloc sanitizer: C1908 k=30 refine: {one_pass} allocations for 1 pass \
         ({one_pass_moves} moves) and for up to 40 passes ({many_passes_moves} moves)"
    );

    // Peak memory of a budgeted V-cycle solve, above its input.
    let generated = scale_problem(&ScaleSpec::new("S100K", 100_000, 7));
    let p = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5)
        .expect("scale problems are valid");
    let solver = Solver::new(SolverOptions {
        seed: 7,
        iteration_budget: Some(8),
        ..SolverOptions::default()
    });
    let before = reset_peak();
    let solved = solver.solve(&p);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    drop(solved);
    assert!(
        peak <= SOLVE_PEAK_BYTES,
        "S100K k=5 budgeted solve peaked {peak} B above its input, over the \
         {SOLVE_PEAK_BYTES} B pinned"
    );
    println!("alloc sanitizer: S100K k=5 budgeted solve peaks {peak} B above its input");
    println!("alloc sanitizer: ok");
}
