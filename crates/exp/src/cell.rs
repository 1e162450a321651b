//! Experiment cells: the unit of execution, deduplication, and caching.
//!
//! A [`CellKey`] names one campaign completely — device, workload,
//! precision, and the session/injection parameters — so that two
//! requests for the same key are provably the same experiment. Keys
//! have a canonical string encoding (versioned, byte-stable) whose
//! FNV-1a hash doubles as the cache file name and the salt from which
//! the cell's RNG seed is derived.

use mpr_arch::{Device, Fpga, VoltaGpu, WorkloadProfile, XeonPhiKnc};
use mpr_beam::{BeamSession, SdcClassifier};
use mpr_fault::hostile::{HostileMode, HostileWorkload};
use mpr_fault::{FaultModel, Workload};
use mpr_kernels::{profiles as kprofiles, Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mpr_metrics::sampling::{SamplingPlan, DEFAULT_STRATA, ROUND_STRIKES};
use mpr_nn::{profiles as nprofiles, ClassificationImpact, DetectionImpact, Mnist, TinyYolo};
use mpr_obs::{fnv1a64, mix_seed};
use mpr_softfloat::Precision;
use std::fmt;

/// Version tag prefixed to every canonical key; bump it to invalidate
/// every existing cache entry when the execution semantics change.
/// v2: per-strike seed derivation moved to the splitmix64 avalanche and
/// campaign observation order became thread-invariant, so v1 cache
/// entries no longer reproduce what an execution would produce.
pub const KEY_VERSION: &str = "v2";

/// One of the study's device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceId {
    /// NVIDIA Titan V (no ECC).
    TitanV,
    /// Tesla V100: the same GV100 silicon with SECDED ECC.
    TeslaV100,
    /// Intel Xeon Phi 3120A (Knights Corner).
    Knc3120a,
    /// Xilinx Zynq-7000 FPGA.
    Zynq7000,
}

impl DeviceId {
    /// Canonical token used in keys and accepted by [`DeviceId::parse`].
    pub fn token(&self) -> &'static str {
        match self {
            DeviceId::TitanV => "titan-v",
            DeviceId::TeslaV100 => "tesla-v100",
            DeviceId::Knc3120a => "knc-3120a",
            DeviceId::Zynq7000 => "zynq-7000",
        }
    }

    /// Parses a device token (the CLI aliases included).
    pub fn parse(s: &str) -> Option<DeviceId> {
        match s {
            "titan-v" | "gpu" => Some(DeviceId::TitanV),
            "tesla-v100" | "gpu-ecc" | "v100" => Some(DeviceId::TeslaV100),
            "knc-3120a" | "knc" | "xeon-phi" => Some(DeviceId::Knc3120a),
            "zynq-7000" | "fpga" | "zynq" => Some(DeviceId::Zynq7000),
            _ => None,
        }
    }

    /// Instantiates the device model.
    pub fn build(&self) -> Box<dyn Device> {
        match self {
            DeviceId::TitanV => Box::new(VoltaGpu::titan_v()),
            DeviceId::TeslaV100 => Box::new(VoltaGpu::tesla_v100()),
            DeviceId::Knc3120a => Box::new(XeonPhiKnc::coprocessor_3120a()),
            DeviceId::Zynq7000 => Box::new(Fpga::zynq7000()),
        }
    }
}

/// One of the study's workloads, with its size parameters.
///
/// The parameters are part of the identity: a 12x12 GEMM and a 24x24
/// GEMM are different experiments and never share cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadId {
    /// Dense matrix multiplication, `dim` x `dim`.
    Gemm {
        /// Matrix dimension.
        dim: usize,
    },
    /// LavaMD particle potentials.
    LavaMd {
        /// Boxes per dimension.
        boxes: usize,
        /// Particles per box.
        particles: usize,
        /// Use the KNC dedicated-transcendental-unit exp model.
        knc_unit: bool,
    },
    /// LU decomposition, `dim` x `dim`.
    Lud {
        /// Matrix dimension.
        dim: usize,
    },
    /// One arithmetic microbenchmark.
    Micro {
        /// The operation under test.
        op: MicroKernelOp,
        /// Simulated thread count.
        threads: usize,
        /// Iterations per thread.
        iters: usize,
    },
    /// The MNIST classifier proxy.
    Mnist {
        /// Weight/data seed.
        seed: u64,
    },
    /// The YOLO-style detector proxy.
    Yolo,
    /// A hostile harness-test workload ([`mpr_fault::hostile`]): an
    /// ordinary deterministic kernel with scripted misbehavior, used by
    /// the fault-tolerance tests, the hostile-harness example, and CI's
    /// recovery smoke test. Never part of a paper figure.
    Hostile {
        /// Kernel/registry tag; distinct tags are distinct experiments
        /// with independent failure schedules.
        tag: u64,
        /// The scripted misbehavior.
        mode: HostileMode,
    },
}

impl WorkloadId {
    /// Canonical token used in keys.
    pub fn token(&self) -> String {
        match self {
            WorkloadId::Gemm { dim } => format!("gemm:{dim}"),
            WorkloadId::LavaMd {
                boxes,
                particles,
                knc_unit,
            } => format!(
                "lavamd:{boxes}x{particles}{}",
                if *knc_unit { ":knc" } else { "" }
            ),
            WorkloadId::Lud { dim } => format!("lud:{dim}"),
            WorkloadId::Micro { op, threads, iters } => {
                format!("micro-{}:{threads}x{iters}", op_token(*op))
            }
            WorkloadId::Mnist { seed } => format!("mnist:{seed:016x}"),
            WorkloadId::Yolo => "yolo".to_string(),
            WorkloadId::Hostile { tag, mode } => {
                let mode = match mode {
                    HostileMode::FlakyGolden { panics } => format!("flaky={panics}"),
                    HostileMode::SlowStrike { millis } => format!("slow={millis}ms"),
                    HostileMode::WellBehaved => "ok".to_string(),
                };
                format!("hostile:{tag:016x}:{mode}")
            }
        }
    }

    /// Instantiates the workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadId::Gemm { dim } => Box::new(Gemm::new(dim)),
            WorkloadId::LavaMd {
                boxes,
                particles,
                knc_unit,
            } => {
                let w = LavaMd::new(boxes, particles);
                Box::new(if knc_unit { w.for_knc() } else { w })
            }
            WorkloadId::Lud { dim } => Box::new(Lud::new(dim)),
            WorkloadId::Micro { op, threads, iters } => Box::new(Micro::new(op, threads, iters)),
            WorkloadId::Mnist { seed } => Box::new(Mnist::new().with_seed(seed)),
            WorkloadId::Yolo => Box::new(TinyYolo::new()),
            WorkloadId::Hostile { tag, mode } => Box::new(HostileWorkload::new(tag, mode)),
        }
    }

    /// The full-scale characterization profile for this workload on a
    /// device — the same mapping the figure runners and the CLI used to
    /// duplicate by hand.
    pub fn profile(&self, device: DeviceId) -> WorkloadProfile {
        match self {
            WorkloadId::Gemm { .. } => match device {
                DeviceId::Knc3120a => kprofiles::mxm_knc(),
                DeviceId::Zynq7000 => kprofiles::mxm_fpga(),
                _ => kprofiles::mxm_gpu(),
            },
            WorkloadId::LavaMd { .. } => match device {
                DeviceId::Knc3120a => kprofiles::lavamd_knc(),
                _ => kprofiles::lavamd_gpu(),
            },
            WorkloadId::Lud { .. } => kprofiles::lud_knc(),
            WorkloadId::Micro { op, .. } => kprofiles::micro(*op),
            WorkloadId::Mnist { .. } => nprofiles::mnist_fpga(),
            WorkloadId::Yolo => nprofiles::yolo_gpu(),
            // Hostile cells reuse the microbenchmark profile: their
            // kernel is a micro-scale fold and their purpose is harness
            // testing, not device characterization.
            WorkloadId::Hostile { .. } => kprofiles::micro(MicroKernelOp::Add),
        }
    }

    /// Key used for golden-output memoization: the golden run depends
    /// only on the workload and the precision, never on the device or
    /// session, so every cell sharing this pair shares one golden run.
    pub fn golden_key(&self, precision: Precision) -> String {
        format!("{}@{}", self.token(), precision.name())
    }
}

fn op_token(op: MicroKernelOp) -> &'static str {
    match op {
        MicroKernelOp::Add => "add",
        MicroKernelOp::Mul => "mul",
        MicroKernelOp::Fma => "fma",
    }
}

/// A domain SDC classifier, named so it can live inside a cache key.
///
/// Classifiers must be pure functions of `(golden, corrupted)`; naming
/// them (rather than carrying closures) is what makes beam cells
/// replayable from their key alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClassifierId {
    /// No labelling: every SDC is just an SDC.
    None,
    /// MNIST logits: `critical` (misclassification) vs `tolerable`.
    MnistLogits,
    /// YOLO detections: `tolerable` / `detection` / `classification`.
    YoloDetections,
}

fn classify_mnist(golden: &[f64], out: &[f64]) -> &'static str {
    match mpr_nn::classify_logits(golden, out) {
        ClassificationImpact::Critical => "critical",
        ClassificationImpact::Tolerable => "tolerable",
    }
}

fn classify_yolo(golden: &[f64], out: &[f64]) -> &'static str {
    let g = TinyYolo::decode(golden);
    let o = TinyYolo::decode(out);
    match mpr_nn::classify_detections(&g, &o) {
        DetectionImpact::Tolerable => "tolerable",
        DetectionImpact::DetectionChanged => "detection",
        DetectionImpact::ClassificationChanged => "classification",
    }
}

static MNIST_CLASSIFIER: fn(&[f64], &[f64]) -> &'static str = classify_mnist;
static YOLO_CLASSIFIER: fn(&[f64], &[f64]) -> &'static str = classify_yolo;

impl ClassifierId {
    /// Canonical token used in keys.
    pub fn token(&self) -> &'static str {
        match self {
            ClassifierId::None => "none",
            ClassifierId::MnistLogits => "mnist",
            ClassifierId::YoloDetections => "yolo",
        }
    }

    /// The classifier function, if any.
    pub fn classifier(&self) -> Option<&'static SdcClassifier> {
        match self {
            ClassifierId::None => None,
            ClassifierId::MnistLogits => Some(&MNIST_CLASSIFIER),
            ClassifierId::YoloDetections => Some(&YOLO_CLASSIFIER),
        }
    }
}

/// What kind of campaign a cell runs, with its statistical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// A beam campaign (`mpr-beam`).
    Beam {
        /// Beam hours (sets the fluence denominator).
        hours: f64,
        /// Expected compute strikes to simulate.
        target_candidates: u64,
        /// Domain classifier attached to the campaign.
        classifier: ClassifierId,
        /// How the strike budget is spent (fixed reference or adaptive
        /// stratified sampling with early stopping).
        sampling: SamplingPlan,
    },
    /// A fault-injection campaign (`mpr-fault`).
    Inject {
        /// Number of injections.
        injections: u64,
        /// Fault model sampled per injection.
        model: FaultModel,
        /// Fraction of register flips landing in live state.
        live_fraction: f64,
        /// How the injection budget is spent.
        sampling: SamplingPlan,
    },
    /// An accumulation trial set: `faults` stuck-at configuration
    /// upsets piled up per run, over `trials` runs (the FPGA
    /// no-reprogramming ablation).
    Accumulate {
        /// Accumulated faults per trial.
        faults: u32,
        /// Number of trials.
        trials: u32,
    },
}

/// Canonical token suffix for a sampling plan. The fixed plan encodes
/// as the *empty string*, so every pre-adaptive key — and every cache
/// entry filed under it — stays byte-identical with no KEY_VERSION
/// bump. Adaptive plans append every decision parameter, since each of
/// them changes results.
fn sampling_token(plan: SamplingPlan) -> String {
    match plan {
        SamplingPlan::Fixed => String::new(),
        SamplingPlan::Adaptive(c) => {
            let budget = match c.budget {
                Some(b) => b.to_string(),
                None => "-".to_string(),
            };
            format!(
                ",a=w:{:016x};b:{budget};s:{DEFAULT_STRATA};r:{ROUND_STRIKES}",
                c.ci_width.to_bits()
            )
        }
    }
}

fn model_token(model: FaultModel) -> String {
    match model {
        FaultModel::SingleBit => "sb".to_string(),
        FaultModel::DoubleBit => "db".to_string(),
        FaultModel::RandomByte => "rb".to_string(),
        FaultModel::StuckBit => "stuck".to_string(),
        FaultModel::Pipeline { pipeline_fraction } => {
            format!("pipe:{:016x}", pipeline_fraction.to_bits())
        }
    }
}

impl CellKind {
    /// Canonical token used in keys. Floats are encoded by their IEEE
    /// bits so the key is byte-stable across formatting changes.
    pub fn token(&self) -> String {
        match self {
            CellKind::Beam {
                hours,
                target_candidates,
                classifier,
                sampling,
            } => format!(
                "beam:h={:016x},n={target_candidates},c={}{}",
                hours.to_bits(),
                classifier.token(),
                sampling_token(*sampling)
            ),
            CellKind::Inject {
                injections,
                model,
                live_fraction,
                sampling,
            } => format!(
                "inj:n={injections},m={},lf={:016x}{}",
                model_token(*model),
                live_fraction.to_bits(),
                sampling_token(*sampling)
            ),
            CellKind::Accumulate { faults, trials } => format!("acc:k={faults},t={trials}"),
        }
    }

    /// The cell's sampling plan (accumulation cells are always fixed).
    pub fn sampling(&self) -> SamplingPlan {
        match self {
            CellKind::Beam { sampling, .. } | CellKind::Inject { sampling, .. } => *sampling,
            CellKind::Accumulate { .. } => SamplingPlan::Fixed,
        }
    }

    /// A copy of this cell with its adaptive strike budget replaced —
    /// the identity of a reallocation-boosted rerun. Fixed cells (and
    /// accumulation cells) come back unchanged.
    pub fn with_sampling_budget(&self, budget: u64) -> CellKind {
        let mut kind = *self;
        match &mut kind {
            CellKind::Beam { sampling, .. } | CellKind::Inject { sampling, .. } => {
                if let SamplingPlan::Adaptive(config) = sampling {
                    config.budget = Some(budget);
                }
            }
            CellKind::Accumulate { .. } => {}
        }
        kind
    }
}

/// The identity of one experiment cell.
///
/// Everything the engine needs to execute the cell is in the key; two
/// equal keys are the same experiment and are executed at most once per
/// study (and at most once *ever* under a shared disk cache).
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Device model the campaign targets.
    pub device: DeviceId,
    /// Workload under test.
    pub workload: WorkloadId,
    /// Data precision.
    pub precision: Precision,
    /// Campaign kind and statistical parameters.
    pub kind: CellKind,
}

impl CellKey {
    /// A beam cell. Workloads with a domain classifier (MNIST, YOLO)
    /// always carry it, so label-consuming and label-free figures share
    /// one campaign; every other workload runs unlabelled.
    pub fn beam(
        device: DeviceId,
        workload: WorkloadId,
        precision: Precision,
        hours: f64,
        target_candidates: u64,
        sampling: SamplingPlan,
    ) -> CellKey {
        let classifier = match workload {
            WorkloadId::Mnist { .. } => ClassifierId::MnistLogits,
            WorkloadId::Yolo => ClassifierId::YoloDetections,
            _ => ClassifierId::None,
        };
        CellKey {
            device,
            workload,
            precision,
            kind: CellKind::Beam {
                hours,
                target_candidates,
                classifier,
                sampling,
            },
        }
    }

    /// An injection cell. Injection bypasses the device's execution
    /// units, so the device slot only namespaces the cell: it names the
    /// device whose methodology the injection mimics (the Titan V for
    /// the micros and YOLO, the Zynq for MNIST, the Xeon Phi for the
    /// rest), which keeps keys self-describing.
    pub fn inject(
        workload: WorkloadId,
        precision: Precision,
        injections: u64,
        model: FaultModel,
        live_fraction: f64,
        sampling: SamplingPlan,
    ) -> CellKey {
        let device = match workload {
            WorkloadId::Micro { .. } | WorkloadId::Yolo => DeviceId::TitanV,
            WorkloadId::Mnist { .. } => DeviceId::Zynq7000,
            _ => DeviceId::Knc3120a,
        };
        CellKey {
            device,
            workload,
            precision,
            kind: CellKind::Inject {
                injections,
                model,
                live_fraction,
                sampling,
            },
        }
    }

    /// The canonical, versioned string encoding of this key.
    pub fn canonical(&self) -> String {
        format!(
            "{KEY_VERSION};dev={};wl={};p={};k={}",
            self.device.token(),
            self.workload.token(),
            self.precision.name(),
            self.kind.token()
        )
    }

    /// FNV-1a hash of the canonical encoding.
    pub fn hash64(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The RNG seed for this cell under a study base seed: the base
    /// seed and the key hash are mixed through splitmix64, so every
    /// cell draws an unrelated stream and identical cells requested by
    /// different figures draw the *same* stream by construction.
    pub fn cell_seed(&self, base_seed: u64) -> u64 {
        mix_seed(base_seed, self.hash64())
    }

    /// Whether the device and workload both support the precision.
    pub fn supported(&self) -> bool {
        let dev_ok = match self.kind {
            // Injection and accumulation campaigns bypass the device's
            // execution units; only beam cells need device support.
            CellKind::Beam { .. } => self.device.build().supports(self.precision),
            _ => true,
        };
        dev_ok && self.workload.build().supports(self.precision)
    }

    /// Whether a beam cell's session can run on its device
    /// ([`BeamSession::runs_on`]): hours near the ends of the `f64`
    /// range leave no finite fluence or strike count. Other kinds, and
    /// beam cells the device has no hardware for, pass.
    pub fn session_runs(&self) -> bool {
        let CellKind::Beam {
            hours,
            target_candidates,
            ..
        } = self.kind
        else {
            return true;
        };
        let device = self.device.build();
        let session = BeamSession {
            hours,
            target_candidates,
        };
        !device.supports(self.precision)
            || session
                .runs_on(&device.exposure(&self.workload.profile(self.device), self.precision))
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam_key() -> CellKey {
        CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Gemm { dim: 12 },
            precision: Precision::Single,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 400,
                classifier: ClassifierId::None,
                sampling: SamplingPlan::Fixed,
            },
        }
    }

    #[test]
    fn canonical_encoding_is_pinned() {
        // The cache file format depends on this string: changing it
        // must be a deliberate KEY_VERSION bump.
        assert_eq!(
            beam_key().canonical(),
            "v2;dev=titan-v;wl=gemm:12;p=single;k=beam:h=4024000000000000,n=400,c=none"
        );
    }

    #[test]
    fn distinct_parameters_produce_distinct_keys() {
        let a = beam_key();
        let mut b = a.clone();
        b.precision = Precision::Half;
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.hash64(), b.hash64());
        let mut c = a.clone();
        c.kind = CellKind::Beam {
            hours: 10.0,
            target_candidates: 401,
            classifier: ClassifierId::None,
            sampling: SamplingPlan::Fixed,
        };
        assert_ne!(a.hash64(), c.hash64());
    }

    #[test]
    fn sampling_plans_key_separately_and_fixed_keys_are_untouched() {
        use mpr_metrics::SamplingConfig;
        let fixed = beam_key();
        let mut adaptive = fixed.clone();
        adaptive.kind = CellKind::Beam {
            hours: 10.0,
            target_candidates: 400,
            classifier: ClassifierId::None,
            sampling: SamplingPlan::Adaptive(SamplingConfig::quick()),
        };
        // Adaptive and fixed results must never share a cache entry.
        assert_ne!(fixed.canonical(), adaptive.canonical());
        // The adaptive token pins every decision parameter.
        assert_eq!(
            adaptive.canonical(),
            "v2;dev=titan-v;wl=gemm:12;p=single;\
             k=beam:h=4024000000000000,n=400,c=none,a=w:3fe999999999999a;b:-;s:4;r:32"
        );
        // A boosted budget is a different experiment.
        let boosted = adaptive.kind.with_sampling_budget(512);
        assert_ne!(boosted.token(), adaptive.kind.token());
        assert!(boosted.token().contains(";b:512;"));
        // Boosting a fixed cell is a no-op.
        assert_eq!(fixed.kind.with_sampling_budget(512), fixed.kind);
        assert_eq!(fixed.kind.sampling(), SamplingPlan::Fixed);
    }

    #[test]
    fn cell_seeds_differ_across_cells_and_base_seeds() {
        let a = beam_key();
        let mut b = a.clone();
        b.precision = Precision::Double;
        assert_ne!(a.cell_seed(1), b.cell_seed(1));
        assert_ne!(a.cell_seed(1), a.cell_seed(2));
        // Same key + same base seed = same stream, always.
        assert_eq!(a.cell_seed(9), a.cell_seed(9));
    }

    #[test]
    fn device_and_workload_round_trip_tokens() {
        for d in [
            DeviceId::TitanV,
            DeviceId::TeslaV100,
            DeviceId::Knc3120a,
            DeviceId::Zynq7000,
        ] {
            assert_eq!(DeviceId::parse(d.token()), Some(d));
        }
        assert_eq!(DeviceId::parse("gpu"), Some(DeviceId::TitanV));
        assert_eq!(DeviceId::parse("tpu"), None);
        let w = WorkloadId::LavaMd {
            boxes: 2,
            particles: 3,
            knc_unit: true,
        };
        assert_eq!(w.token(), "lavamd:2x3:knc");
        assert_eq!(w.golden_key(Precision::Double), "lavamd:2x3:knc@double");
    }

    #[test]
    fn hostile_tokens_pin_tag_and_mode() {
        let flaky = WorkloadId::Hostile {
            tag: 0xAB,
            mode: HostileMode::FlakyGolden { panics: 2 },
        };
        assert_eq!(flaky.token(), "hostile:00000000000000ab:flaky=2");
        let slow = WorkloadId::Hostile {
            tag: 0xAB,
            mode: HostileMode::SlowStrike { millis: 50 },
        };
        assert_eq!(slow.token(), "hostile:00000000000000ab:slow=50ms");
        let ok = WorkloadId::Hostile {
            tag: 0xAB,
            mode: HostileMode::WellBehaved,
        };
        assert_eq!(ok.token(), "hostile:00000000000000ab:ok");
        // Mode and tag are part of the identity: no shared cache
        // entries, no shared golden runs.
        assert_ne!(
            flaky.golden_key(Precision::Single),
            ok.golden_key(Precision::Single)
        );
    }

    #[test]
    fn knc_rejects_half_beam_cells() {
        let key = CellKey {
            device: DeviceId::Knc3120a,
            workload: WorkloadId::Lud { dim: 12 },
            precision: Precision::Half,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 100,
                classifier: ClassifierId::None,
                sampling: SamplingPlan::Fixed,
            },
        };
        assert!(!key.supported());
    }

    #[test]
    fn constructors_pick_classifier_and_namespace_device() {
        use MicroKernelOp::{Add, Fma, Mul};
        let micro = |op| WorkloadId::Micro {
            op,
            threads: 4,
            iters: 8,
        };
        let lavamd = |knc_unit| WorkloadId::LavaMd {
            boxes: 2,
            particles: 3,
            knc_unit,
        };
        let hostile = WorkloadId::Hostile {
            tag: 1,
            mode: HostileMode::WellBehaved,
        };
        let cases = [
            (
                WorkloadId::Gemm { dim: 12 },
                ClassifierId::None,
                DeviceId::Knc3120a,
            ),
            (lavamd(false), ClassifierId::None, DeviceId::Knc3120a),
            (lavamd(true), ClassifierId::None, DeviceId::Knc3120a),
            (
                WorkloadId::Lud { dim: 12 },
                ClassifierId::None,
                DeviceId::Knc3120a,
            ),
            (micro(Add), ClassifierId::None, DeviceId::TitanV),
            (micro(Mul), ClassifierId::None, DeviceId::TitanV),
            (micro(Fma), ClassifierId::None, DeviceId::TitanV),
            (
                WorkloadId::Mnist { seed: 7 },
                ClassifierId::MnistLogits,
                DeviceId::Zynq7000,
            ),
            (
                WorkloadId::Yolo,
                ClassifierId::YoloDetections,
                DeviceId::TitanV,
            ),
            (hostile, ClassifierId::None, DeviceId::Knc3120a),
        ];
        for (workload, classifier, inject_device) in cases {
            let p = Precision::Single;
            let beam = CellKey::beam(
                DeviceId::TeslaV100,
                workload,
                p,
                1.0,
                8,
                SamplingPlan::Fixed,
            );
            assert_eq!(beam.device, DeviceId::TeslaV100, "{workload:?}");
            assert!(
                matches!(beam.kind, CellKind::Beam { classifier: c, .. } if c == classifier),
                "{workload:?}"
            );
            let inject = CellKey::inject(
                workload,
                p,
                8,
                FaultModel::SingleBit,
                1.0,
                SamplingPlan::Fixed,
            );
            assert_eq!(inject.device, inject_device, "{workload:?}");
        }
        // The constructors build exactly the keys the struct literals
        // built before them: same canonical string, same cache entry.
        let beam = CellKey::beam(
            DeviceId::Zynq7000,
            WorkloadId::Mnist { seed: 0x313 },
            Precision::Half,
            100.0,
            200,
            SamplingPlan::Fixed,
        );
        assert_eq!(
            beam.canonical(),
            "v2;dev=zynq-7000;wl=mnist:0000000000000313;p=half;\
             k=beam:h=4059000000000000,n=200,c=mnist"
        );
        let inject = CellKey::inject(
            micro(Fma),
            Precision::Half,
            300,
            FaultModel::RandomByte,
            1.0,
            SamplingPlan::Fixed,
        );
        assert_eq!(
            inject.canonical(),
            "v2;dev=titan-v;wl=micro-fma:4x8;p=half;k=inj:n=300,m=rb,lf=3ff0000000000000"
        );
    }

    #[test]
    fn classifiers_label_by_name() {
        assert!(ClassifierId::None.classifier().is_none());
        let mnist = ClassifierId::MnistLogits
            .classifier()
            .map(|c| c(&[0.1, 0.8], &[0.9, 0.2]));
        assert_eq!(mnist, Some("critical"));
        let same = ClassifierId::MnistLogits
            .classifier()
            .map(|c| c(&[0.1, 0.8], &[0.2, 0.7]));
        assert_eq!(same, Some("tolerable"));
    }
}
