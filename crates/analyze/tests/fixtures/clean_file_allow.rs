//! Clean twin of `bad_stale_file_allow.rs`: the same file-wide allow,
//! justified and load-bearing — it suppresses the real FS003 findings
//! below, so allow-hygiene stays quiet.
//! mpr-allow-file: vfs-bypass -- this is the `Vfs` passthrough itself; every other persistence path routes through it

use std::path::Path;

fn read(path: &Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::rename(from, to)
}
