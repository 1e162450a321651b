//! Clean twin of `bad_precision_taint.rs`: the same value movements,
//! each routed through a blessed conversion fn so the precision change
//! happens at an audited boundary, plus shapes that change no
//! precision lossily. Must produce zero findings.

/// Narrowing through the blessed conversion instead of a raw cast.
fn narrow_later(golden: &[f64], i: usize) -> f32 {
    let master = golden[i];
    to_f32(master)
}

/// Value conversion instead of bit reinterpretation.
fn reinterpret(h: Half) -> f32 {
    to_f32(h)
}

/// Binary16 bits through the rounding constructor.
fn truncate_bits(x: f32) -> u16 {
    Half::from_f32(x).to_bits()
}

/// Widening is lossless, and a tuple of an f32 and an f64 mixes
/// nothing.
fn widen_and_pair(a: f32, b: f64, out: &mut Vec<(f32, f64)>) -> f64 {
    out.push((a * 2.0f32, b * 3.0));
    a as f64 * b
}
