// sfqlint fixture: rule A1 positive — allocation reachable from a hot-path
// root, two hops deep, plus an unresolvable (⊤) call.

pub struct CostEngine {
    scratch: Vec<f64>,
}

impl CostEngine {
    pub fn evaluate_with_gradient(&mut self, x: f64) -> f64 {
        self.accumulate(x);
        self.label(x)
    }

    fn accumulate(&mut self, x: f64) {
        self.scratch.push(x);
    }

    fn label(&self, x: f64) -> f64 {
        let s = format!("{x}");
        s.len() as f64 + mystery_helper(x)
    }
}
