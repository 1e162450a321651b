//! Fixture: trait-object hook dispatch inside kernel or network code — FS002.

/// Bare trait-object hook parameter: a virtual call per touched value.
fn run_slow(hook: &mut dyn FaultHook) -> f64 {
    let mut acc = 0.0;
    acc = hook.touch(acc);
    acc
}

/// Qualified path form — the lint matches the final path segment.
fn dispatch_slow(hook: &mut dyn mpr_fault::hook::FaultHook) -> f64 {
    hook.touch(0.0)
}

/// Boxed form is still a trait object.
struct Slow {
    hook: Box<dyn FaultHook>,
}

/// `dyn` over some *other* trait is fine — only the hook is hot.
fn unrelated(w: &dyn Workload) -> &str {
    w.name()
}

// mpr-allow: fault-site -- sanctioned boundary pragma suppresses FS002 on the next line
fn boundary(hook: &mut dyn FaultHook) -> f64 {
    hook.touch(1.0)
}

#[cfg(test)]
mod tests {
    /// Test helpers may hold trait objects freely.
    fn helper(hook: &mut dyn FaultHook) {}
}
