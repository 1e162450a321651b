//! Known-bad fixture for the file-wide arm of AH003: a
//! `mpr-allow-file` pragma whose lint family produces zero findings in
//! this file. The allow is dead weight and must be called out.
//! mpr-allow-file: vfs-bypass -- kept from before the store moved onto the Vfs seam; nothing here touches the filesystem anymore

fn quiet(x: u64) -> u64 {
    x.wrapping_add(1)
}
