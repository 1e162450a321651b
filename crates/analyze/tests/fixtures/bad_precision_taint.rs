//! Known-bad fixture for PL005 precision-taint: every fn below moves a
//! value across a precision boundary without a blessed conversion, in
//! a shape rustc's type checker accepts. None of the fns are
//! `FloatExt`-generic, so the line-scoped token lints (PL001-PL004)
//! stay quiet — only the flow-sensitive pass that follows values
//! through `let` bindings sees the leaks.

/// Cross-line narrowing: the f64 taint is acquired one statement
/// before the lossy `as` cast.
fn narrow_later(golden: &[f64], i: usize) -> f32 {
    let master = golden[i];
    let out = master as f32;
    out
}

/// Cross-width bit reinterpretation: binary16 bits read as f32.
fn reinterpret(h: Half) -> f32 {
    let bits = h;
    f32::from_bits(u32::from(bits.to_bits()))
}

/// Bit truncation toward binary16 without round-to-nearest-even.
fn truncate_bits(x: f32) -> u16 {
    let val = x;
    val as u16
}

/// Narrowing judged on the cast's whole operand: an indexed element,
/// a parenthesised group, and a call to an f64-returning fn.
fn narrow_operands(golden: &[f64], i: usize, x: f64, out: &mut Vec<f32>) {
    out.push(golden[i] as f32);
    out.push((x * 2.0) as f32);
    out.push(twice(x) as f32);
}

fn twice(x: f64) -> f64 {
    x * 2.0
}
