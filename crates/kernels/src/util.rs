//! Per-precision caching, checked index conversions, and the strike
//! loop shared by the kernels.

use mpr_fault::ValueFault;
use mpr_softfloat::Precision;
use std::sync::OnceLock;

/// The strike-at-a-time loop behind the kernels'
/// `Workload::run_strike_batch` overrides: for each index in `order`
/// (a permutation of `0..strikes.len()`), `strike(site, fault, out)`
/// refills one reused output buffer and `each(index, out)` receives it;
/// the loop stops as soon as `each` returns `false`.
pub(crate) fn strike_each(
    strikes: &[(u64, ValueFault)],
    order: impl IntoIterator<Item = usize>,
    each: &mut dyn FnMut(usize, &[f64]) -> bool,
    mut strike: impl FnMut(u64, ValueFault, &mut Vec<f64>),
) {
    let mut out = Vec::new();
    for index in order {
        let (site, fault) = strikes[index];
        strike(site, fault, &mut out);
        if !each(index, &out) {
            return;
        }
    }
}

/// Checked `usize -> u64` conversion for site and input indices:
/// replaces the silent `as u64` cast pattern the kernels used to carry.
///
/// # Panics
///
/// Panics if `count` does not fit in `u64` — impossible on the 64-bit
/// (and smaller) targets the workspace supports, but checked rather
/// than silently truncated.
#[inline]
#[expect(clippy::expect_used, reason = "documented under `# Panics`")]
pub(crate) fn to_u64(count: usize) -> u64 {
    u64::try_from(count).expect("index space exceeds u64")
}

/// Checked iterator over the `u64` indices `0..count`.
#[inline]
pub(crate) fn index_range(count: usize) -> std::ops::Range<u64> {
    0..to_u64(count)
}

/// One lazily-initialized slot per [`Precision`]: the kernels cache
/// their generated inputs (and replay snapshots) here so a campaign's
/// strike batch stops re-running `gen_value` on every strike.
///
/// The cached value is a pure function of the owning kernel's
/// configuration, so `Clone` intentionally produces a fresh *empty*
/// cache (re-derivable, and it keeps the kernels `Clone` without a
/// `T: Clone` bound).
pub(crate) struct PrecisionCache<T> {
    slots: [OnceLock<T>; 3],
}

impl<T> PrecisionCache<T> {
    /// An empty cache.
    pub(crate) const fn new() -> PrecisionCache<T> {
        PrecisionCache {
            slots: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    }

    /// The cached value for `precision`, computing it on first use.
    pub(crate) fn get_or_init(&self, precision: Precision, init: impl FnOnce() -> T) -> &T {
        let slot = match precision {
            Precision::Double => &self.slots[0],
            Precision::Single => &self.slots[1],
            Precision::Half => &self.slots[2],
        };
        slot.get_or_init(init)
    }
}

impl<T> Clone for PrecisionCache<T> {
    fn clone(&self) -> PrecisionCache<T> {
        PrecisionCache::new()
    }
}

impl<T> std::fmt::Debug for PrecisionCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "PrecisionCache({filled}/3 filled)")
    }
}

/// Runs `strikes` through `w`'s fast path as one batch and checks every
/// result against the naive injected run, bit for bit. Returns
/// how many strikes left the output bit-identical to golden.
#[cfg(test)]
pub(crate) fn assert_batch_matches_naive(
    w: &dyn mpr_fault::Workload,
    p: Precision,
    strikes: &[(u64, ValueFault)],
) -> usize {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let golden = w.run_golden(p);
    let mut got = vec![None; strikes.len()];
    w.run_strike_batch(p, strikes, &golden, &mut |idx, out| {
        assert!(
            got[idx].replace(bits(out)).is_none(),
            "strike {idx} reported twice"
        );
        true
    });
    let mut masked = 0;
    for (idx, &(site, fault)) in strikes.iter().enumerate() {
        let got = got[idx].as_ref().expect("callback ran for every strike");
        assert_eq!(
            *got,
            bits(&w.run_with_fault(p, site, fault)),
            "{} {p}: strike {idx} site {site} fault {fault:?}",
            w.name()
        );
        masked += usize::from(*got == bits(&golden));
    }
    masked
}
