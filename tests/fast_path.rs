//! The fast-path contract: `run_strike_batch` — monomorphized
//! hooks, golden-prefix replay, batch grouping — must be byte-identical
//! to the naive full rerun through `dispatch`, and must not move any
//! previously observable bit.
//!
//! Three layers of evidence:
//!
//! 1. a differential sweep — every workload x supported precision x a
//!    deterministic spread of fault sites (region boundaries included)
//!    x every fault shape, batched fast path vs naive oracle, compared
//!    bit-for-bit — and the hook-free spans (`FaultHook::skip`) of
//!    GEMM and the networks against the same run with every skip
//!    refused;
//! 2. pinned fingerprints — golden outputs, campaign severity vectors
//!    (threads 1/2/5), beam cross-section counts and accumulation
//!    outcomes hashed against values captured from the
//!    touch-by-touch implementation;
//! 3. the experiment engine's on-disk cache bytes, hashed against the
//!    pre-fast-path bytes under the unchanged `KEY_VERSION` ("v2") —
//!    the fast path earns zero cache invalidation.
#![expect(
    clippy::panic,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::arch::{Fpga, VoltaGpu};
use mixed_precision_reliability::beam::{expose, BeamSession};
use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ResultStore, SamplingPlan, WorkloadId,
    KEY_VERSION,
};
use mixed_precision_reliability::fault::hook::{
    FaultHook, GoldenHook, InjectHook, MultiStrikeHook, NullHook,
};
use mixed_precision_reliability::fault::{
    accumulate, inject, FaultModel, InjectionReport, StrikeRunner, ValueFault, Workload,
};
use mixed_precision_reliability::kernels::{profiles, Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mixed_precision_reliability::nn::{Mnist, TinyYolo};
use mixed_precision_reliability::obs::fnv1a64;
use mixed_precision_reliability::softfloat::Precision;
use std::collections::BTreeSet;
use std::sync::Arc;

/// FNV-1a over the little-endian bit patterns — bit-exact, NaN-safe.
fn hash_f64s(v: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Forwards every touch to `hook`, and every skip unless
/// `refuse_skips`; counts the sites a run passes, touched or skipped.
/// Refusing, it makes `dispatch` the scalar, touch-by-touch oracle: no
/// span of sites runs hook-free.
struct Relay<'h> {
    hook: &'h mut dyn FaultHook,
    refuse_skips: bool,
    sites: u64,
}

impl<'h> Relay<'h> {
    fn scalar(hook: &'h mut dyn FaultHook) -> Relay<'h> {
        Relay {
            hook,
            refuse_skips: true,
            sites: 0,
        }
    }
}

impl FaultHook for Relay<'_> {
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64 {
        self.sites += 1;
        self.hook.touch_bits(bits, width)
    }

    fn skip(&mut self, n: u64) -> bool {
        let taken = !self.refuse_skips && self.hook.skip(n);
        if taken {
            self.sites += n;
        }
        taken
    }
}

/// Strips a workload back to the oracle: only `name`, `dispatch` and
/// `supports` are forwarded, so every other provided default (full
/// rerun through the `dyn` hook, no golden reuse) executes as if the
/// fast path did not exist, and the hook refuses every skip, so no
/// span of sites runs hook-free either.
struct ForceNaive<'a>(&'a dyn Workload);

impl Workload for ForceNaive<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
        self.0.dispatch(precision, &mut Relay::scalar(hook))
    }

    fn supports(&self, precision: Precision) -> bool {
        self.0.supports(precision)
    }
}

/// A deterministic spread of sites: both ends, every 1/13th of the site
/// space (crossing each kernel's input/compute region boundaries), and
/// two past-the-end sites where the fault never fires.
fn site_sample(site_count: u64) -> Vec<u64> {
    let mut sites = BTreeSet::new();
    sites.insert(0);
    sites.insert(1);
    sites.insert(site_count - 1);
    for k in 1..13 {
        sites.insert(k * site_count / 13);
    }
    sites.insert(site_count); // first unreachable site
    sites.insert(site_count + 17);
    sites.into_iter().collect()
}

fn fault_shapes(width: u32) -> Vec<ValueFault> {
    vec![
        ValueFault::BitFlip(0),
        ValueFault::BitFlip(width - 1),
        ValueFault::DoubleBitFlip(1, width - 2),
        ValueFault::ByteCorrupt { byte: 1, xor: 0xA5 },
        ValueFault::XorMask(0xDEAD_BEEF),
        ValueFault::StuckHigh(width - 2),
        ValueFault::StuckLow(0),
    ]
}

#[test]
fn fast_path_is_bit_identical_to_naive_everywhere() {
    let gemm = Gemm::new(8);
    let lud = Lud::new(8);
    let lava = LavaMd::new(2, 2);
    let lava_knc = LavaMd::new(2, 2).for_knc();
    // A 3x3x3 grid gives the center box the full 27-box neighborhood
    // and two particles per box, so input strikes reach every shape of
    // partner walk.
    let lava3 = LavaMd::new(3, 2);
    let lava3_knc = LavaMd::new(3, 2).for_knc();
    let [micro_add, micro_mul, micro_fma] = MicroKernelOp::ALL.map(|op| Micro::new(op, 4, 64));
    let workloads: [&dyn Workload; 9] = [
        &gemm, &lud, &lava, &lava_knc, &lava3, &lava3_knc, &micro_add, &micro_mul, &micro_fma,
    ];

    for w in workloads {
        let naive = ForceNaive(w);
        for p in Precision::ALL {
            if !w.supports(p) {
                continue;
            }
            // Golden and site counts agree between the monomorphized
            // and dyn paths before any strike runs.
            let golden = w.run_golden(p);
            assert_eq!(
                bits(&golden),
                bits(&naive.run_golden(p)),
                "{} {p}: golden diverged",
                w.name()
            );
            let sc = w.site_count(p);
            assert_eq!(sc, naive.site_count(p), "{} {p}: site count", w.name());

            let mut strikes = Vec::new();
            for site in site_sample(sc) {
                for fault in fault_shapes(p.total_bits()) {
                    strikes.push((site, fault));
                }
            }
            let want: Vec<Vec<u64>> = strikes
                .iter()
                .map(|&(site, fault)| bits(&naive.run_with_fault(p, site, fault)))
                .collect();

            // Pass 1: one-strike batches, the strike-at-a-time replay.
            for (i, strike) in strikes.iter().enumerate() {
                let got = run_batch(w, p, std::slice::from_ref(strike), &golden);
                assert_eq!(
                    got[0],
                    want[i],
                    "{} {p} {strike:?} (of {sc} sites): one-strike batch diverged",
                    w.name()
                );
            }
            // Pass 2: the whole sample as one batch in reverse order, so
            // region grouping, wide lanes, row sorting, and buffer reuse
            // all run across every site region and fault shape at once.
            strikes.reverse();
            let got = run_batch(w, p, &strikes, &golden);
            for (i, strike) in strikes.iter().enumerate() {
                assert_eq!(
                    got[i],
                    want[strikes.len() - 1 - i],
                    "{} {p} {strike:?} (of {sc} sites): whole-sample batch diverged",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn networks_match_the_naive_oracle() {
    // The networks run the same generic `run<F, H>` through the `dyn`
    // oracle and through the monomorphized overrides. Their strikes cost
    // a whole forward pass, so the sample is trimmed to both ends and
    // two interior sites, with a low mantissa and a high exponent flip.
    let mnist = Mnist::new();
    let yolo = TinyYolo::new();
    let workloads: [&dyn Workload; 2] = [&mnist, &yolo];
    for w in workloads {
        let naive = ForceNaive(w);
        for p in Precision::ALL {
            let golden = w.run_golden(p);
            assert_eq!(
                bits(&golden),
                bits(&naive.run_golden(p)),
                "{} {p}: golden diverged",
                w.name()
            );
            let sc = w.site_count(p);
            assert_eq!(sc, naive.site_count(p), "{} {p}: site count", w.name());
            let width = p.total_bits();
            let strikes: Vec<(u64, ValueFault)> = [0, sc / 3, 2 * sc / 3, sc - 1]
                .into_iter()
                .flat_map(|site| {
                    [ValueFault::BitFlip(0), ValueFault::BitFlip(width - 2)]
                        .map(|fault| (site, fault))
                })
                .collect();
            let got = run_batch(w, p, &strikes, &golden);
            for (i, &(site, fault)) in strikes.iter().enumerate() {
                assert_eq!(
                    got[i],
                    bits(&naive.run_with_fault(p, site, fault)),
                    "{} {p} site {site} {fault:?} (of {sc} sites): strike diverged",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn gemm_skips_match_the_touched_oracle() {
    // Every hook that answers `skip`, through GEMM's hook-free spans
    // (input loads at once, chains from row lanes) and through the
    // same dispatch with every skip refused: output bits, sites passed
    // and strikes fired must match.
    for n in [5u64, 24] {
        let gemm = Gemm::new(n as usize);
        let inputs = 2 * n * n;
        let sites = inputs + n * n * n;
        let chain = |e: u64, k: u64| inputs + e * n + k;
        for p in Precision::ALL {
            let width = p.total_bits();
            let what = |label: &str| format!("GEMM-{n} {p} {label}");
            both_ways(&gemm, p, Some(sites), &what("null"), || NullHook);
            both_ways(&gemm, p, Some(sites), &what("golden"), GoldenHook::new);
            for site in (0..sites).step_by(97) {
                let fault = match site % 3 {
                    0 => ValueFault::BitFlip(width - 2),
                    1 => ValueFault::StuckHigh(width - 3),
                    _ => ValueFault::BitFlip(0),
                };
                let label = what(&format!("inject {site}"));
                let [taken, refused] = both_ways(&gemm, p, Some(sites), &label, || {
                    InjectHook::new(site, fault)
                });
                assert!(taken.fired() && refused.fired(), "{label}: fired");
            }
            let high = ValueFault::StuckHigh(width - 2);
            let low = ValueFault::StuckLow(1);
            let flip = ValueFault::BitFlip(width - 1);
            let cases: [(&str, Vec<(u64, ValueFault)>); 6] = [
                (
                    "input sites",
                    vec![(3, high), (n * n, flip), (inputs - 1, low)],
                ),
                (
                    "chain sites",
                    vec![
                        (chain(0, 0), high),
                        (chain(n + 1, 2), flip),
                        (sites - 1, low),
                    ],
                ),
                (
                    "two strikes on one input",
                    vec![(n + 2, flip), (n + 2, high)],
                ),
                (
                    "two strikes on one chain",
                    vec![(chain(3, 1), high), (chain(3, 1), low)],
                ),
                (
                    "every strike in one row",
                    (0..n).map(|j| (chain(n + j, j), high)).collect(),
                ),
                (
                    "one site past the end",
                    vec![(chain(2, 0), flip), (sites, high)],
                ),
            ];
            for (label, strikes) in cases {
                let live = strikes.iter().filter(|&&(s, _)| s < sites).count();
                let [taken, refused] = both_ways(&gemm, p, Some(sites), &what(label), || {
                    MultiStrikeHook::new(strikes.clone())
                });
                assert_eq!((taken.fired(), refused.fired()), (live, live), "{label}");
            }
        }
    }
}

#[test]
fn network_skips_match_the_touched_oracle() {
    // Every hook that answers `skip`, through the networks' conv rows
    // and through the same dispatch with every skip refused: output
    // bits, sites passed and strikes fired must match. Each conv layer
    // is `(first site, output rows, sites per row)`; a row is `ow`
    // chains of `in_ch * k^2` FMAs.
    type Conv = (u64, u64, u64);
    let mnist = Mnist::new();
    let yolo = TinyYolo::new();
    let nets: [(&dyn Workload, [Conv; 2]); 2] = [
        (&mnist, [(0, 4 * 12, 12 * 25), (15_120, 8 * 4, 4 * 36)]),
        (&yolo, [(0, 8 * 12, 12 * 27), (32_544, 16 * 4, 4 * 72)]),
    ];
    for (w, convs) in nets {
        for p in Precision::ALL {
            let sites = w.site_count(p);
            let width = p.total_bits();
            let what = |label: &str| format!("{} {p} {label}", w.name());
            both_ways(w, p, Some(sites), &what("null"), || NullHook);
            both_ways(w, p, Some(sites), &what("golden"), GoldenHook::new);
            let mut targets: BTreeSet<u64> = (0..sites).step_by(1_999).collect();
            for &(base, rows, row) in &convs {
                for r in [0, rows / 2, rows - 1] {
                    targets.insert(base + r * row);
                    targets.insert(base + (r + 1) * row - 1);
                }
            }
            for site in targets {
                let fault = match site % 3 {
                    0 => ValueFault::BitFlip(width - 2),
                    1 => ValueFault::StuckHigh(width - 3),
                    _ => ValueFault::BitFlip(0),
                };
                let label = what(&format!("inject {site}"));
                let [taken, refused] =
                    both_ways(w, p, None, &label, || InjectHook::new(site, fault));
                assert!(taken.fired() && refused.fired(), "{label}: fired");
            }
            let high = ValueFault::StuckHigh(width - 2);
            let flip = ValueFault::BitFlip(width - 1);
            for &(base, rows, row) in &convs {
                let mid = base + rows / 2 * row;
                let cases = [
                    (
                        "two strikes in one row",
                        [(mid + 3, high), (mid + row - 2, flip)],
                    ),
                    (
                        "two strikes in adjacent rows",
                        [(mid - 1, flip), (mid, high)],
                    ),
                ];
                for (label, strikes) in cases {
                    let label = what(&format!("{label} from site {mid}"));
                    let [taken, refused] = both_ways(w, p, None, &label, || {
                        MultiStrikeHook::new(strikes.to_vec())
                    });
                    assert_eq!((taken.fired(), refused.fired()), (2, 2), "{label}");
                }
            }
        }
    }
}

/// Runs `w` at `p` on two fresh hooks from `make`, the first taking
/// the skips it is granted and the second refusing every one, asserts
/// that both give the same output bits and pass the same number of
/// sites — `sites`, where given — and hands back the two spent hooks.
/// A network strike can move a later sigmoid's site count, so a
/// network run is held to `sites` only when fault-free.
fn both_ways<H: FaultHook>(
    w: &dyn Workload,
    p: Precision,
    sites: Option<u64>,
    what: &str,
    make: impl Fn() -> H,
) -> [H; 2] {
    let [(taken, taken_bits, taken_sites), (refused, refused_bits, refused_sites)] = [false, true]
        .map(|refuse_skips| {
            let mut hook = make();
            let mut relay = Relay {
                hook: &mut hook,
                refuse_skips,
                sites: 0,
            };
            let out = bits(&w.dispatch(p, &mut relay));
            let passed = relay.sites;
            (hook, out, passed)
        });
    assert_eq!(taken_bits, refused_bits, "{what}: output bits");
    assert_eq!(taken_sites, refused_sites, "{what}: sites");
    if let Some(sites) = sites {
        assert_eq!(taken_sites, sites, "{what}: site count");
    }
    [taken, refused]
}

/// Runs `strikes` through `run_strike_batch` and returns each strike's
/// output bits by index, asserting every index is reported exactly once.
fn run_batch(
    w: &dyn Workload,
    p: Precision,
    strikes: &[(u64, ValueFault)],
    golden: &[f64],
) -> Vec<Vec<u64>> {
    let mut got: Vec<Option<Vec<u64>>> = vec![None; strikes.len()];
    w.run_strike_batch(p, strikes, golden, &mut |index, out| {
        assert!(
            got[index].replace(bits(out)).is_none(),
            "{} {p}: strike {index} reported twice",
            w.name()
        );
        true
    });
    got.into_iter()
        .enumerate()
        .map(|(index, out)| {
            out.unwrap_or_else(|| panic!("{} {p}: strike {index} never reported", w.name()))
        })
        .collect()
}

#[test]
fn golden_fingerprints_match_the_pre_fast_path_implementation() {
    // (workload, precision, site_count, fnv1a64 of the golden bits) —
    // captured by running the naive implementation before this PR's
    // kernel rewrite. Any drift here is an output change, not a perf
    // regression.
    let gemm8 = Gemm::new(8);
    let gemm32 = Gemm::new(32);
    let lud8 = Lud::new(8);
    let lava22 = LavaMd::new(2, 2);
    let lava_knc = LavaMd::new(2, 2).for_knc();
    let micro = Micro::new(MicroKernelOp::Fma, 4, 64);
    let yolo = TinyYolo::new();
    let mnist = Mnist::new();
    let pins: [(&dyn Workload, Precision, u64, u64); 22] = [
        (&gemm8, Precision::Double, 640, 0x68eb9f5d04bed2f4),
        (&gemm8, Precision::Single, 640, 0xd9e725cdcb33a068),
        (&gemm8, Precision::Half, 640, 0x0538f3fa9738660d),
        (&gemm32, Precision::Double, 34816, 0x7ecd6174de7f8a13),
        (&gemm32, Precision::Single, 34816, 0xf4430c818cf99183),
        (&gemm32, Precision::Half, 34816, 0x0fa9bd80ae88be39),
        (&lud8, Precision::Double, 232, 0x66f5013e056944c4),
        (&lud8, Precision::Single, 232, 0xa799f783821f0512),
        (&lava22, Precision::Double, 4384, 0x8a82bd3e99774359),
        (&lava22, Precision::Single, 2944, 0xea8b4f548428814c),
        (&lava22, Precision::Half, 2224, 0x65db4c428c8fab58),
        // The KNC transcendental unit changes the *site* population but
        // is fault-free exact: goldens match the Taylor path.
        (&lava_knc, Precision::Double, 6544, 0x8a82bd3e99774359),
        (&lava_knc, Precision::Single, 2704, 0xea8b4f548428814c),
        (&lava_knc, Precision::Half, 2224, 0x65db4c428c8fab58),
        (&micro, Precision::Double, 256, 0x455e00df70df99df),
        (&micro, Precision::Single, 256, 0xe28c0925a65abe3b),
        // The networks, captured before their layers took the hook
        // generically (still through the `dyn` dispatch at the time).
        (&yolo, Precision::Double, 59732, 0x37af0853b89e84ac),
        (&yolo, Precision::Single, 58382, 0x825aba7f61216798),
        (&yolo, Precision::Half, 57707, 0xa6aa157ef9b823f7),
        (&mnist, Precision::Double, 20208, 0x39bcdd32a0bb9229),
        (&mnist, Precision::Single, 20208, 0x43342cb75c0bfbdd),
        (&mnist, Precision::Half, 20208, 0xb6cdbbcc4dcffce1),
    ];
    for (w, p, sites, hash) in pins {
        assert_eq!(w.site_count(p), sites, "{} {p} site count moved", w.name());
        assert_eq!(
            hash_f64s(&w.run_golden(p)),
            hash,
            "{} {p} golden bits moved",
            w.name()
        );
    }
    assert_eq!(
        hash_f64s(&micro.run_golden(Precision::Half)),
        0x73ab71fc17a6aff6
    );
}

#[test]
fn injection_campaigns_reproduce_pinned_results_across_threads() {
    let campaign =
        |workload: &dyn Workload, precision, n, seed, model, threads| -> InjectionReport {
            let golden = workload.run_golden(precision);
            let ctx = StrikeRunner {
                seed,
                threads,
                ..StrikeRunner::new(workload, precision, &golden)
            };
            inject(&ctx, n, model, 1.0).expect("clean run")
        };
    let gemm8 = Gemm::new(8);
    for threads in [1usize, 2, 5] {
        let r = campaign(
            &gemm8,
            Precision::Single,
            300,
            42,
            FaultModel::SingleBit,
            threads,
        );
        assert_eq!(
            (r.counts.masked, r.counts.sdc, r.counts.due),
            (7, 293, 0),
            "threads={threads}"
        );
        assert_eq!(
            hash_f64s(&r.severities),
            0x956ad637fbb2021f,
            "severity bits moved at threads={threads}"
        );
    }

    let lavamd = LavaMd::new(2, 2);
    let r = campaign(&lavamd, Precision::Half, 200, 7, FaultModel::RandomByte, 3);
    assert_eq!((r.counts.masked, r.counts.sdc), (87, 113));
    assert_eq!(hash_f64s(&r.severities), 0x4c1685803a1d8676);

    let r = campaign(
        &Lud::new(8),
        Precision::Double,
        200,
        9,
        FaultModel::SingleBit,
        2,
    );
    assert_eq!((r.counts.masked, r.counts.sdc), (0, 200));
    assert_eq!(hash_f64s(&r.severities), 0x1797c5f0e286734b);
}

#[test]
fn beam_campaigns_reproduce_pinned_results_across_threads() {
    let gemm8 = Gemm::new(8);
    let session = BeamSession::quick().with_target_candidates(150);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    let golden = gemm8.run_golden(Precision::Half);
    for threads in [1usize, 2, 5] {
        let ctx = StrikeRunner {
            seed: 11,
            threads,
            ..StrikeRunner::new(&gemm8, Precision::Half, &golden)
        };
        let r = expose(&ctx, &fpga, &profile, session, None).expect("clean run");
        assert_eq!(
            (r.candidates, r.sdc.events()),
            (140, 57),
            "threads={threads}"
        );
        assert_eq!(
            hash_f64s(&r.severities),
            0xd45db3cac3cc6f2f,
            "severity bits moved at threads={threads}"
        );
    }

    let gpu = VoltaGpu::titan_v();
    let profile = profiles::mxm_gpu();
    let golden = gemm8.run_golden(Precision::Single);
    let ctx = StrikeRunner {
        seed: 13,
        ..StrikeRunner::new(&gemm8, Precision::Single, &golden)
    };
    let r = expose(&ctx, &gpu, &profile, session, None).expect("clean run");
    assert_eq!((r.candidates, r.sdc.events()), (141, 140));
    assert_eq!(hash_f64s(&r.severities), 0x6082250a062807dd);
}

#[test]
fn engine_cache_bytes_unchanged_with_no_key_version_bump() {
    // The fast path must not invalidate a single cached cell: same key
    // version, same bytes as the pre-fast-path engine wrote.
    assert_eq!(KEY_VERSION, "v2", "fast path must not bump the cache key");

    let dir = std::env::temp_dir().join(format!("mpr_fastpath_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(ResultStore::with_cache_dir(&dir));
    let engine = Engine::new(99).with_threads(3).with_store(store);
    let cells = [
        CellKey {
            device: DeviceId::Knc3120a,
            workload: WorkloadId::Gemm { dim: 10 },
            precision: Precision::Single,
            kind: CellKind::Inject {
                injections: 200,
                model: FaultModel::SingleBit,
                live_fraction: 1.0,
                sampling: SamplingPlan::Fixed,
            },
        },
        CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Yolo,
            precision: Precision::Half,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 160,
                classifier: ClassifierId::YoloDetections,
                sampling: SamplingPlan::Fixed,
            },
        },
    ];
    for cell in &cells {
        let _ = engine.run_one(cell);
    }

    // Hash every result file (manifest.json is run bookkeeping) in
    // sorted relative-path order, null-separated.
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "manifest.json") {
                let rel = path
                    .strip_prefix(&dir)
                    .expect("under cache dir")
                    .to_string_lossy()
                    .into_owned();
                files.push((rel, std::fs::read(&path).expect("cache file")));
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for (rel, content) in &files {
        bytes.extend_from_slice(rel.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(content);
        bytes.push(0);
    }
    assert_eq!(files.len(), 2, "both cells must persist");
    assert_eq!(
        fnv1a64(&bytes),
        0xe2050c6ea3c141e4,
        "cached campaign bytes moved — the fast path changed an output"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn accumulation_outcomes_match_the_scalar_pins() {
    // GEMM-24, the paper-scale accumulation workload, at every
    // precision with one and sixteen piled-up faults per trial:
    // `(precision, faults, sdc_probability bits, corruption_extent
    // bits, trials)`, captured from the touch-by-touch scalar run.
    let gemm = Gemm::new(24);
    let pins: [(Precision, u32, u64, u64, u32); 6] = [
        (
            Precision::Double,
            1,
            0x3fd199999999999a,
            0x3f5c71c71c71c71f,
            40,
        ),
        (
            Precision::Double,
            16,
            0x3ff0000000000000,
            0x3fa24fa4fa4fa4fa,
            40,
        ),
        (
            Precision::Single,
            1,
            0x3fe0cccccccccccd,
            0x3f6dcc877321dcc3,
            40,
        ),
        (
            Precision::Single,
            16,
            0x3ff0000000000000,
            0x3f9d3e93e93e93ea,
            40,
        ),
        (
            Precision::Half,
            1,
            0x3fdb333333333333,
            0x3f71267bd1267bcf,
            40,
        ),
        (
            Precision::Half,
            16,
            0x3ff0000000000000,
            0x3fa14fa4fa4fa4fa,
            40,
        ),
    ];
    let mut got = Vec::new();
    for (p, faults, _, _, trials) in pins {
        let golden = gemm.run_golden(p);
        let ctx = StrikeRunner {
            seed: 0xACC ^ u64::from(faults),
            ..StrikeRunner::new(&gemm, p, &golden)
        };
        let o = accumulate(&ctx, faults, trials).expect("no watchdog");
        got.push((
            p,
            faults,
            o.sdc_probability.to_bits(),
            o.corruption_extent.to_bits(),
            o.trials,
        ));
    }
    assert_eq!(got, pins, "accumulation outcomes moved");
}
