//! Every pattern the workspace's stock-lint policy rejects, once each:
//! undocumented panics (`unwrap`, `expect`, and the panic-family
//! macros), indexing in a crate that opts into `indexing_slicing` (as
//! the campaign crates do), clock, hash-ordered collection and
//! random-keyed hasher types, an `#[allow]` without a reason, and an
//! `#[expect]` that suppresses nothing. Checked against
//! `crates/exp/clippy.toml` instead of the root file, every `std::fs`
//! call below is a disallowed method too.
#![warn(clippy::indexing_slicing)]

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, RandomState};
use std::path::Path;
use std::time::{Instant, SystemTime};

fn lookup(table: &HashMap<u64, Vec<f64>>, key: u64) -> f64 {
    let row = table.get(&key).unwrap();
    let cell = row.first().expect("nonempty row");
    match cell.partial_cmp(&0.0) {
        Some(_) => *cell,
        None => panic!("NaN cell"),
    }
}

fn precision_bits(bits: u32) -> u32 {
    match bits {
        64 | 32 | 16 => bits,
        8 => todo!("binary8"),
        128 => unimplemented!("binary128"),
        _ => unreachable!("no such precision"),
    }
}

fn stratum_of(bounds: &[usize], slot: usize) -> usize {
    bounds[slot]
}

#[expect(deprecated, reason = "`soft_link` is banned like every other `std::fs` function")]
fn bypass_vfs(dir: &Path) -> std::io::Result<u64> {
    let entry = dir.join("entry.json");
    fs::create_dir(dir)?;
    fs::create_dir_all(dir)?;
    fs::write(&entry, b"{}")?;
    fs::copy(&entry, dir.join("copy.json"))?;
    fs::hard_link(&entry, dir.join("hard.json"))?;
    fs::soft_link(&entry, dir.join("soft.json"))?;
    fs::rename(dir.join("copy.json"), dir.join("moved.json"))?;
    fs::set_permissions(&entry, fs::metadata(&entry)?.permissions())?;
    let linked = fs::read_link(dir.join("soft.json"))?;
    let canonical = fs::canonicalize(linked)?;
    let listed = fs::read_dir(dir)?.count() as u64;
    let bytes = fs::read(&canonical)?.len() as u64 + fs::read_to_string(&entry)?.len() as u64;
    let known = fs::exists(&entry)? && fs::symlink_metadata(&entry)?.is_file();
    File::open(&entry)?.sync_all()?;
    File::create(dir.join("created.json"))?;
    File::create_new(dir.join("fresh.json"))?;
    File::options().append(true).open(&entry)?;
    OpenOptions::new().read(true).open(&entry)?;
    fs::remove_file(dir.join("moved.json"))?;
    fs::remove_dir(dir.join("empty"))?;
    fs::remove_dir_all(dir)?;
    Ok(listed + bytes + u64::from(known))
}

fn seen(keys: &[u64]) -> usize {
    keys.iter().collect::<HashSet<_>>().len()
}

fn hashed_seed(seed: u64) -> u64 {
    RandomState::new().hash_one(seed)
}

#[allow(clippy::cast_possible_truncation)]
fn timestamp_us(origin: Instant) -> u64 {
    origin.elapsed().as_micros() as u64
}

#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")]
fn wall_clock() -> SystemTime {
    SystemTime::now()
}

fn main() {
    let table = HashMap::from([(1, vec![0.5])]);
    println!(
        "{} {} {} {} {} {} {:?} {:?}",
        lookup(&table, 1),
        precision_bits(32),
        stratum_of(&[0, 8, 16], 1),
        seen(&[1, 1, 2]),
        hashed_seed(7),
        timestamp_us(Instant::now()),
        wall_clock(),
        bypass_vfs(Path::new("cache")).ok()
    );
}
