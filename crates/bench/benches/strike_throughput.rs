//! Strike-execution throughput: the fast path
//! (`Workload::run_strike_batch`, what the campaign drivers run)
//! against the naive full-rerun oracle (`Workload::run_with_fault`),
//! over the exact strike stream the campaign drivers draw
//! (`mix_seed`-derived per-strike RNG, site then fault sample).
//!
//! The naive lap is *conservative*: it already benefits from the
//! per-precision input cache, so the reported speedups understate the
//! win over the original code, which also regenerated every input
//! through `gen_value` on each strike.
//!
//! Headline numbers land in `BENCH_strikes.json` at the repo root so
//! the perf trajectory has a baseline CI can smoke-check.
//!
//! Gates (the old gate only watched the GEMM beam proxy, which let the
//! LUD snapshot blow-up and the half-precision softfloat tax regress
//! unseen):
//! - every workload has its own speedup floor (`Config::floor`), so no
//!   workload can regress behind the headline;
//! - GEMM half must run within 2x of GEMM single on the batched path —
//!   lanes of `Half` values (`wide::row_fma` rows and SoA chain groups)
//!   over the branch-free binary16 kernels (the same ones every scalar
//!   `Half` op runs on) close the softfloat gap, and
//!   this ratio is the regression tripwire for them. The LavaMD and
//!   Micro half-vs-single ratios are recorded beside it, ungated.
//!
//! Modes (args after `cargo bench --bench strike_throughput -- ...`):
//! - `--test`:  tiny sizes, byte-identity check only, no file written
//! - `--quick`: small sizes, asserts batched >= naive on every
//!   workload, writes and re-parses `BENCH_strikes.json`
//! - default:   paper proxy sizes, asserts the per-workload floors
//!   (GEMM beam proxy >= 5x, LUD >= 10x, ...) and the half-vs-single
//!   ratio, writes and re-parses `BENCH_strikes.json`
#![expect(
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "a bench harness reports a failed run by panicking; its stopwatch is the measurement, and no timing reaches a campaign result"
)]

use mpr_fault::{FaultModel, ValueFault, Workload};
use mpr_kernels::{Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mpr_obs::json::{self, Value};
use mpr_obs::mix_seed;
use mpr_softfloat::Precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Strikes handed to one `run_strike_batch` call — the campaign
/// drivers' default batch size.
const BATCH: usize = 64;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Test,
    Quick,
    Full,
}

struct Config {
    label: &'static str,
    workload: Box<dyn Workload>,
    model: FaultModel,
    /// Part of the >= 5x acceptance gate (the paper-proxy GEMM beam
    /// campaign's workload/model pairing).
    headline: bool,
    /// Full-mode speedup floor for the batched path, across every
    /// supported precision. Calibrated at roughly half the measured
    /// speedup so noise does not trip the gate but a real regression
    /// (like the old O(n^3)-bit LUD snapshots) does.
    floor: f64,
}

struct Measurement {
    label: &'static str,
    name: String,
    precision: Precision,
    strikes: u64,
    sites: u64,
    naive_per_s: f64,
    batched_per_s: f64,
    headline: bool,
    floor: f64,
}

impl Measurement {
    /// The gated number: batched path vs naive full rerun.
    fn speedup(&self) -> f64 {
        self.batched_per_s / self.naive_per_s
    }
}

fn configs(mode: Mode) -> Vec<Config> {
    // The beam proxy mirrors the paper's signature MxM beam campaigns
    // (FPGA configuration upsets => persistent stuck bits); the rest use
    // the CAROL-FI single-bit model the PVF campaigns sample.
    match mode {
        Mode::Test => vec![
            Config {
                label: "gemm8_beam_proxy",
                workload: Box::new(Gemm::new(8)),
                model: FaultModel::StuckBit,
                headline: true,
                floor: 1.0,
            },
            Config {
                label: "lud8",
                workload: Box::new(Lud::new(8)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
            Config {
                label: "lavamd_2x2",
                workload: Box::new(LavaMd::new(2, 2)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
            Config {
                label: "micro_fma_4x64",
                workload: Box::new(Micro::new(MicroKernelOp::Fma, 4, 64)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
        ],
        Mode::Quick => vec![
            Config {
                label: "gemm16_beam_proxy",
                workload: Box::new(Gemm::new(16)),
                model: FaultModel::StuckBit,
                headline: true,
                floor: 1.0,
            },
            Config {
                label: "lud16",
                workload: Box::new(Lud::new(16)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
            Config {
                label: "lavamd_2x3",
                workload: Box::new(LavaMd::new(2, 3)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
            Config {
                label: "micro_fma_8x256",
                workload: Box::new(Micro::new(MicroKernelOp::Fma, 8, 256)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 1.0,
            },
        ],
        Mode::Full => vec![
            Config {
                label: "gemm32_beam_proxy",
                workload: Box::new(Gemm::new(32)),
                model: FaultModel::StuckBit,
                headline: true,
                floor: 5.0,
            },
            Config {
                label: "lud64",
                workload: Box::new(Lud::new(64)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 10.0,
            },
            Config {
                label: "lavamd_3x3",
                workload: Box::new(LavaMd::new(3, 3)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 20.0,
            },
            Config {
                label: "micro_fma_16x512",
                workload: Box::new(Micro::new(MicroKernelOp::Fma, 16, 512)),
                model: FaultModel::SingleBit,
                headline: false,
                floor: 7.0,
            },
        ],
    }
}

/// The campaign drivers' strike stream: per-strike `StdRng` derived via
/// `mix_seed(seed, i)`, site drawn before the fault.
fn strike_stream(
    seed: u64,
    strikes: u64,
    sites: u64,
    width: u32,
    model: FaultModel,
) -> Vec<(u64, ValueFault)> {
    (0..strikes)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, i));
            let site = rng.gen_range(0..sites);
            (site, model.sample(width, &mut rng))
        })
        .collect()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn measure(config: &Config, precision: Precision, strikes: u64, seed: u64) -> Measurement {
    let w: &dyn Workload = config.workload.as_ref();
    let golden = w.run_golden(precision);
    let sites = w.site_count(precision);
    let width = precision.total_bits();
    let stream = strike_stream(seed, strikes, sites, width, config.model);

    // Differential check (untimed): the batched path must be
    // byte-identical to the full rerun on every strike it is about to
    // be timed on. Batched results arrive in region order, so they are
    // keyed back by index before comparing.
    let naives: Vec<Vec<f64>> = stream
        .iter()
        .map(|&(site, fault)| w.run_with_fault(precision, site, fault))
        .collect();
    for (c, chunk) in stream.chunks(BATCH).enumerate() {
        w.run_strike_batch(precision, chunk, &golden, &mut |b, out| {
            let (site, fault) = chunk[b];
            assert!(
                bits_equal(out, &naives[c * BATCH + b]),
                "{} {} site {site} {fault:?}: batched replay diverged from naive",
                config.label,
                precision
            );
            true
        });
    }
    drop(naives);

    // Best of three laps per phase: the gates compare phase ratios, and
    // a single descheduling event inside one lap would skew them.
    let lap = |f: &mut dyn FnMut()| -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    let naive_secs = lap(&mut || {
        for &(site, fault) in &stream {
            black_box(w.run_with_fault(precision, site, fault));
        }
    });

    let batched_secs = lap(&mut || {
        for chunk in stream.chunks(BATCH) {
            w.run_strike_batch(precision, chunk, &golden, &mut |_, out| {
                black_box(out);
                true
            });
        }
    });

    Measurement {
        label: config.label,
        name: w.name().to_string(),
        precision,
        strikes,
        sites,
        naive_per_s: strikes as f64 / naive_secs.max(1e-9),
        batched_per_s: strikes as f64 / batched_secs.max(1e-9),
        headline: config.headline,
        floor: config.floor,
    }
}

/// Half-vs-single throughput ratio of one workload on the batched path:
/// `single strikes/s / half strikes/s`, 1.0 = parity. GEMM's is gated at
/// <= 2.0 in full mode; LavaMD's and Micro's are recorded only.
fn half_vs_single_ratio(results: &[Measurement], workload: &str) -> Option<f64> {
    let per_s = |p: Precision| {
        results
            .iter()
            .find(|m| m.name == workload && m.precision == p)
            .map(|m| m.batched_per_s)
    };
    Some(per_s(Precision::Single)? / per_s(Precision::Half)?)
}

/// The recorded half-vs-single ratios: `(JSON key, workload name)`.
const RATIOS: [(&str, &str); 3] = [
    ("gemm_half_vs_single_ratio", "MxM"),
    ("lavamd_half_vs_single_ratio", "LavaMD"),
    ("micro_half_vs_single_ratio", "Micro-FMA"),
];

fn report_json(
    mode: Mode,
    results: &[Measurement],
    headline: f64,
    ratios: &[(&str, f64)],
) -> String {
    let configs: Vec<Value> = results
        .iter()
        .map(|m| {
            let mut o = BTreeMap::new();
            o.insert("label".to_string(), Value::Str(m.label.to_string()));
            o.insert("workload".to_string(), Value::Str(m.name.clone()));
            o.insert("precision".to_string(), Value::Str(m.precision.to_string()));
            o.insert("strikes".to_string(), Value::Num(m.strikes.to_string()));
            o.insert("sites".to_string(), Value::Num(m.sites.to_string()));
            o.insert("naive_strikes_per_s".to_string(), round2(m.naive_per_s));
            o.insert("batched_strikes_per_s".to_string(), round2(m.batched_per_s));
            o.insert("speedup".to_string(), round2(m.speedup()));
            o.insert("floor".to_string(), Value::Num(m.floor.to_string()));
            Value::Obj(o)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert(
        "bench".to_string(),
        Value::Str("strike_throughput".to_string()),
    );
    root.insert(
        "mode".to_string(),
        Value::Str(
            match mode {
                Mode::Test => "test",
                Mode::Quick => "quick",
                Mode::Full => "full",
            }
            .to_string(),
        ),
    );
    root.insert("strike_batch".to_string(), Value::Num(BATCH.to_string()));
    root.insert("gemm_beam_proxy_min_speedup".to_string(), round2(headline));
    for &(key, r) in ratios {
        root.insert(key.to_string(), round2(r));
    }
    root.insert("configs".to_string(), Value::Arr(configs));
    Value::Obj(root).to_string()
}

fn round2(x: f64) -> Value {
    Value::Num(((x * 100.0).round() / 100.0).to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = if args.iter().any(|a| a == "--test") {
        Mode::Test
    } else if args.iter().any(|a| a == "--quick") {
        Mode::Quick
    } else {
        Mode::Full
    };
    let strikes = match mode {
        Mode::Test => 8,
        Mode::Quick => 60,
        Mode::Full => 300,
    };
    let seed = 0x57_81_4E;

    let mut results = Vec::new();
    for config in configs(mode) {
        for precision in Precision::ALL {
            if !config.workload.supports(precision) {
                continue;
            }
            let m = measure(&config, precision, strikes, seed);
            println!(
                "{:<22} {:<6}  {:>12.0} naive/s  {:>12.0} batched/s  {:>7.1}x",
                m.label,
                m.precision.to_string(),
                m.naive_per_s,
                m.batched_per_s,
                m.speedup()
            );
            results.push(m);
        }
    }

    let headline = results
        .iter()
        .filter(|m| m.headline)
        .map(Measurement::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("gemm beam proxy min speedup: {headline:.1}x over {strikes} strikes");
    let ratios: Vec<(&str, f64)> = RATIOS
        .iter()
        .filter_map(|&(key, workload)| Some((key, half_vs_single_ratio(&results, workload)?)))
        .collect();
    for (key, r) in &ratios {
        println!("{key}: {r:.2}x (1.0 = parity)");
    }

    match mode {
        Mode::Test => {}
        Mode::Quick | Mode::Full => {
            for m in &results {
                assert!(
                    m.speedup() >= m.floor,
                    "{} {}: batched speedup {:.2}x is below its {:.1}x floor",
                    m.label,
                    m.precision,
                    m.speedup(),
                    m.floor
                );
            }
            if mode == Mode::Full {
                let r = half_vs_single_ratio(&results, "MxM")
                    .expect("full mode measures GEMM half and single");
                assert!(
                    r <= 2.0,
                    "GEMM half runs {r:.2}x slower than single — wide binary16 lanes regressed \
                     past the 2x gate"
                );
            }
        }
    }

    let text = report_json(mode, &results, headline, &ratios);
    // The report must round-trip through the workspace JSON parser so
    // downstream tooling can consume it.
    let parsed = json::parse(&text).expect("report is valid JSON");
    assert!(
        parsed
            .get("configs")
            .and_then(Value::as_arr)
            .is_some_and(|c| !c.is_empty()),
        "report lost its configs"
    );

    if mode != Mode::Test {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_strikes.json");
        std::fs::write(&path, format!("{text}\n")).expect("write BENCH_strikes.json");
        let back = std::fs::read_to_string(&path).expect("read BENCH_strikes.json back");
        json::parse(&back).expect("BENCH_strikes.json parses");
        println!("wrote {}", path.display());
    }
}
