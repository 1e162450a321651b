//! Every pattern the workspace's stock-lint policy rejects, once each:
//! undocumented panics (`unwrap`, `expect`, and the panic-family
//! macros), clock, hash-ordered collection and random-keyed hasher
//! types, an `#[allow]` without a reason, and an `#[expect]` that
//! suppresses nothing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, RandomState};
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
        "{} {} {} {} {} {:?}",
        lookup(&table, 1),
        precision_bits(32),
        seen(&[1, 1, 2]),
        hashed_seed(7),
        timestamp_us(Instant::now()),
        wall_clock()
    );
}
