//! Adaptive-sampling budget gate: stratified allocation with
//! sequential early stopping must cut campaign strike budgets by at
//! least 5x at the pinned CI-width targets, without moving the
//! cross-section estimates off the fixed-path reference.
//!
//! Both campaign drivers are exercised — the FPGA beam proxy (stuck
//! bits, the paper's MxM configuration-upset campaigns) and the
//! CAROL-FI style injection campaign — each run twice with the same
//! seed: once fixed (the reference oracle, every budgeted strike
//! executed) and once adaptive. The gated number is the *worst*
//! per-config budget reduction, so no campaign can hide behind the
//! headline. Every gated quantity is a deterministic function of the
//! seed: reruns reproduce `BENCH_sampling.json` byte-for-byte.
//!
//! Gates:
//! - `strikes_saved_ratio` (min over configs of budget / executed)
//!   >= 5x in quick and full modes;
//! - every adaptive cell lands at or under its CI-width target;
//! - every adaptive SDC-rate estimate stays within the CI-width
//!   target of the fixed-path estimate (relative).
//!
//! Modes (args after `cargo bench --bench adaptive_sampling -- ...`):
//! - `--test`:  tiny budgets, invariants only, no file written
//! - `--quick`: quick CI target (0.8), writes `BENCH_sampling.json`
//! - default:   paper CI target (0.25), larger budgets, same gates
#![expect(
    clippy::expect_used,
    reason = "a bench harness reports a failed run by panicking"
)]

use mpr_arch::Fpga;
use mpr_beam::{BeamCampaign, BeamSession};
use mpr_fault::InjectionCampaign;
use mpr_kernels::{profiles, Gemm};
use mpr_metrics::{SamplingConfig, SamplingPlan};
use mpr_obs::json::{self, Value};
use mpr_softfloat::Precision;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Test,
    Quick,
    Full,
}

struct Measurement {
    label: &'static str,
    budget: u64,
    executed: u64,
    ci_target: f64,
    ci_width: f64,
    fixed_rate: f64,
    adaptive_rate: f64,
}

impl Measurement {
    /// The gated number: budgeted strikes per executed strike.
    fn saved_ratio(&self) -> f64 {
        self.budget as f64 / self.executed.max(1) as f64
    }

    /// Relative drift of the adaptive SDC-rate estimate off the
    /// fixed-path reference.
    fn rate_drift(&self) -> f64 {
        (self.adaptive_rate - self.fixed_rate).abs() / self.fixed_rate.max(1e-12)
    }
}

/// The paper's FPGA MxM beam campaign, fixed vs adaptive at one seed.
fn measure_beam(budget: u64, config: SamplingConfig) -> Measurement {
    let gemm8 = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    let run = |plan: SamplingPlan| {
        let mut session = BeamSession::quick(11).with_target_candidates(budget);
        session.threads = 2;
        BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
            .session(session)
            .sampling(plan)
            .run()
    };
    let fixed = run(SamplingPlan::Fixed);
    let adaptive = run(SamplingPlan::Adaptive(config));
    Measurement {
        label: "fpga_gemm8_half_beam",
        budget: fixed.candidates,
        executed: adaptive.executed,
        ci_target: config.ci_width,
        ci_width: adaptive.ci_width(),
        fixed_rate: fixed.sdc.events() as f64 / fixed.candidates.max(1) as f64,
        adaptive_rate: adaptive.sdc.events() as f64 / adaptive.executed.max(1) as f64,
    }
}

/// The CAROL-FI style GEMM injection campaign, fixed vs adaptive.
fn measure_inject(budget: u64, config: SamplingConfig) -> Measurement {
    let gemm10 = Gemm::new(10);
    let run = |plan: SamplingPlan| {
        InjectionCampaign::new(&gemm10, Precision::Single)
            .injections(budget)
            .seed(42)
            .threads(2)
            .sampling(plan)
            .run()
    };
    let fixed = run(SamplingPlan::Fixed);
    let adaptive = run(SamplingPlan::Adaptive(config));
    let executed = adaptive.counts.total();
    Measurement {
        label: "gemm10_single_inject",
        budget,
        executed,
        ci_target: config.ci_width,
        ci_width: mpr_metrics::sampling::rel_ci_width(adaptive.counts.sdc),
        fixed_rate: fixed.counts.sdc as f64 / budget.max(1) as f64,
        adaptive_rate: adaptive.counts.sdc as f64 / executed.max(1) as f64,
    }
}

fn report_json(mode: Mode, results: &[Measurement], headline: f64) -> String {
    let configs: Vec<Value> = results
        .iter()
        .map(|m| {
            let mut o = BTreeMap::new();
            o.insert("label".to_string(), Value::Str(m.label.to_string()));
            o.insert("budget".to_string(), Value::Num(m.budget.to_string()));
            o.insert("executed".to_string(), Value::Num(m.executed.to_string()));
            o.insert("ci_target".to_string(), Value::Num(m.ci_target.to_string()));
            o.insert("ci_width".to_string(), round3(m.ci_width));
            o.insert("saved_ratio".to_string(), round3(m.saved_ratio()));
            o.insert("fixed_sdc_rate".to_string(), round3(m.fixed_rate));
            o.insert("adaptive_sdc_rate".to_string(), round3(m.adaptive_rate));
            Value::Obj(o)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert(
        "bench".to_string(),
        Value::Str("adaptive_sampling".to_string()),
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
    root.insert("strikes_saved_ratio".to_string(), round3(headline));
    root.insert("floor".to_string(), Value::Num("5".to_string()));
    root.insert("configs".to_string(), Value::Arr(configs));
    Value::Obj(root).to_string()
}

fn round3(x: f64) -> Value {
    Value::Num(((x * 1000.0).round() / 1000.0).to_string())
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
    // Budgets sized like the paper's campaigns relative to the CI
    // target: a fixed run burns the whole budget, an adaptive run
    // stops a few rounds after the target is met.
    let (budget, config) = match mode {
        Mode::Test => (512, SamplingConfig::quick()),
        Mode::Quick => (1024, SamplingConfig::quick()),
        Mode::Full => (4096, SamplingConfig::paper()),
    };

    let results = [measure_beam(budget, config), measure_inject(budget, config)];
    for m in &results {
        println!(
            "{:<22} {:>6} budgeted  {:>6} executed  {:>6.2}x saved  ci {:.3} (target {:.2})  \
             sdc rate {:.3} fixed / {:.3} adaptive",
            m.label,
            m.budget,
            m.executed,
            m.saved_ratio(),
            m.ci_width,
            m.ci_target,
            m.fixed_rate,
            m.adaptive_rate,
        );
    }

    let headline = results
        .iter()
        .map(Measurement::saved_ratio)
        .fold(f64::INFINITY, f64::min);
    println!("strikes saved ratio (worst config): {headline:.2}x");

    for m in &results {
        assert!(
            m.ci_width <= m.ci_target,
            "{}: adaptive stopped at CI width {:.3}, above its {:.2} target",
            m.label,
            m.ci_width,
            m.ci_target
        );
        assert!(
            m.rate_drift() <= m.ci_target,
            "{}: adaptive SDC rate {:.3} drifted {:.1}% off the fixed-path {:.3}",
            m.label,
            m.adaptive_rate,
            m.rate_drift() * 100.0,
            m.fixed_rate
        );
    }
    if mode != Mode::Test {
        assert!(
            headline >= 5.0,
            "adaptive sampling saved only {headline:.2}x strikes — below the 5x gate"
        );
    }

    let text = report_json(mode, &results, headline);
    // The report must round-trip through the workspace JSON parser so
    // CI's smoke grep and downstream tooling can consume it.
    let parsed = json::parse(&text).expect("report is valid JSON");
    assert!(
        parsed
            .get("strikes_saved_ratio")
            .and_then(Value::as_num)
            .is_some(),
        "report lost its headline ratio"
    );

    if mode != Mode::Test {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sampling.json");
        std::fs::write(&path, format!("{text}\n")).expect("write BENCH_sampling.json");
        let back = std::fs::read_to_string(&path).expect("read BENCH_sampling.json back");
        json::parse(&back).expect("BENCH_sampling.json parses");
        println!("wrote {}", path.display());
    }
}
