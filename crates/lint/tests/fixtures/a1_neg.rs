// sfqlint fixture: rule A1 negative — the hot path only touches
// preallocated buffers; the allocating resize is off the hot path.

pub struct CostEngine {
    scratch: Vec<f64>,
}

impl CostEngine {
    pub fn evaluate_with_gradient(&mut self, x: f64) -> f64 {
        self.scratch.fill(x);
        self.scratch.iter().sum()
    }

    pub fn resize_scratch(&mut self, n: usize) {
        self.scratch.resize(n, 0.0);
    }
}
