//! Known-bad fixture for the file-wide arm of AH003: a
//! `mpr-allow-file` pragma whose lint family produces zero findings in
//! this file. The allow is dead weight and must be called out.
//! mpr-allow-file: determinism-taint -- kept from before the seeds went through the avalanche mixer; nothing here derives a seed anymore

fn quiet(x: u64) -> u64 {
    x.wrapping_add(1)
}
