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
//!    bit-for-bit;
//! 2. pinned fingerprints — golden outputs, campaign severity vectors
//!    (threads 1/2/5), and beam cross-section counts hashed against
//!    values captured from the pre-fast-path implementation;
//! 3. the experiment engine's on-disk cache bytes, hashed against the
//!    pre-fast-path bytes under the unchanged `KEY_VERSION` ("v2") —
//!    the fast path earns zero cache invalidation.
#![expect(
    clippy::panic,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::arch::{Fpga, VoltaGpu};
use mixed_precision_reliability::beam::{BeamCampaign, BeamSession};
use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ResultStore, SamplingPlan, WorkloadId,
    KEY_VERSION,
};
use mixed_precision_reliability::fault::hook::FaultHook;
use mixed_precision_reliability::fault::{FaultModel, InjectionCampaign, ValueFault, Workload};
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

/// Strips a workload back to the oracle: only `name`, `dispatch` and
/// `supports` are forwarded, so every other provided default (full
/// rerun through the `dyn` hook, no golden reuse) executes as if the
/// fast path did not exist.
struct ForceNaive<'a>(&'a dyn Workload);

impl Workload for ForceNaive<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
        self.0.dispatch(precision, hook)
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
    let gemm8 = Gemm::new(8);
    for threads in [1usize, 2, 5] {
        let r = InjectionCampaign::new(&gemm8, Precision::Single)
            .injections(300)
            .seed(42)
            .threads(threads)
            .run();
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

    let r = InjectionCampaign::new(&LavaMd::new(2, 2), Precision::Half)
        .injections(200)
        .seed(7)
        .model(FaultModel::RandomByte)
        .threads(3)
        .run();
    assert_eq!((r.counts.masked, r.counts.sdc), (87, 113));
    assert_eq!(hash_f64s(&r.severities), 0x4c1685803a1d8676);

    let r = InjectionCampaign::new(&Lud::new(8), Precision::Double)
        .injections(200)
        .seed(9)
        .threads(2)
        .run();
    assert_eq!((r.counts.masked, r.counts.sdc), (0, 200));
    assert_eq!(hash_f64s(&r.severities), 0x1797c5f0e286734b);
}

#[test]
fn beam_campaigns_reproduce_pinned_results_across_threads() {
    let gemm8 = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    for threads in [1usize, 2, 5] {
        let mut session = BeamSession::quick(11).with_target_candidates(150);
        session.threads = threads;
        let r = BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
            .session(session)
            .run();
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
    let r = BeamCampaign::new(&gpu, &gemm8, &profile, Precision::Single)
        .session(BeamSession::quick(13).with_target_candidates(150))
        .run();
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
