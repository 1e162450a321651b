//! Fixture: every precision-leak form inside a generic kernel body.

fn run<F: FloatExt>(&self, hook: &mut dyn FaultHook) -> Vec<f64> {
    let scale = 0.5;
    let x = self.input as f64;
    let y = f64::sqrt(x);
    let z: f64 = scale * y * 2.;
    vec![z]
}
