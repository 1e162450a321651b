//! The study configuration: scale, seed, and the experiment engine.

use mpr_arch::{Fpga, VoltaGpu, WorkloadProfile, XeonPhiKnc};
use mpr_exp::{
    mix_seed, CellKey, CellKind, CellResult, ClassifierId, DeviceId, Engine, ExperimentPlan,
    ResultStore, SamplingPlan, WorkloadId,
};
use mpr_fault::FaultModel;
use mpr_kernels::{profiles as kprofiles, MicroKernelOp};
use mpr_nn::profiles as nprofiles;
use mpr_obs::{Recorder, Timer};
use mpr_softfloat::Precision;
use std::path::Path;
use std::sync::Arc;

/// How much statistical weight to put behind each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyScale {
    /// Small proxies and short sessions: seconds per figure. Used by
    /// tests and the quickstart example.
    Quick,
    /// Paper-scale statistics (thousands of strikes/injections per
    /// configuration): tens of seconds per figure. Used by the benches
    /// and EXPERIMENTS.md.
    Paper,
}

/// One reproduction of the paper's evaluation.
///
/// Construct with [`Study::quick`] or [`Study::paper`], then call the
/// per-table/figure runners. Every figure obtains its campaigns
/// through the study's [`Engine`]: identical experiment cells are
/// executed once and shared across figures, cells run one at a time
/// with each campaign's strikes spread over every worker thread, and
/// an optional disk cache
/// ([`Study::with_cache_dir`]) makes repeated reports incremental.
/// All results are deterministic in the seed, independent of thread
/// count and cache temperature.
#[derive(Debug, Clone)]
pub struct Study {
    seed: u64,
    scale: StudyScale,
    sampling: SamplingPlan,
    engine: Engine,
}

impl Study {
    /// A fast study (small workload proxies, hundreds of strikes).
    pub fn quick(seed: u64) -> Study {
        Study {
            seed,
            scale: StudyScale::Quick,
            sampling: SamplingPlan::Fixed,
            engine: Engine::new(seed),
        }
    }

    /// A paper-scale study (larger proxies, thousands of strikes).
    pub fn paper(seed: u64) -> Study {
        Study {
            seed,
            scale: StudyScale::Paper,
            sampling: SamplingPlan::Fixed,
            engine: Engine::new(seed),
        }
    }

    /// Selects the strike-sampling strategy for every beam and
    /// injection cell this study builds. The default,
    /// [`SamplingPlan::Fixed`], executes the full per-scale budget and
    /// is the reference oracle; [`SamplingPlan::Adaptive`] keeps the
    /// same budget as a ceiling but stops each cell once its SDC
    /// confidence interval is narrow enough, then reinvests the spared
    /// strikes into the noisiest cells of the plan. Adaptive cells key
    /// (and cache) separately from fixed cells.
    pub fn with_sampling(mut self, plan: SamplingPlan) -> Study {
        self.sampling = plan;
        self
    }

    /// Overrides the engine's worker-thread budget (0 = available
    /// parallelism). Results are identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Study {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Grants every cell a retry budget: a panicking or hung cell is
    /// re-attempted up to `retries` times with its seed unchanged, so
    /// a recovered cell is byte-identical to an untroubled run.
    pub fn with_retries(mut self, retries: u32) -> Study {
        self.engine = self.engine.with_retries(retries);
        self
    }

    /// Arms a per-cell watchdog deadline (`None` disarms it). A cell
    /// attempt exceeding the deadline is cancelled cooperatively and
    /// recorded as hung rather than stalling the whole study.
    pub fn with_cell_timeout(mut self, timeout: Option<std::time::Duration>) -> Study {
        self.engine = self.engine.with_cell_timeout(timeout);
        self
    }

    /// Attaches an on-disk result cache: cells already present in
    /// `dir` (from any earlier run at the same seed and scale) are
    /// loaded instead of executed, and fresh results are written back.
    pub fn with_cache_dir(mut self, dir: impl AsRef<Path>) -> Study {
        self.engine = self
            .engine
            .with_store(Arc::new(ResultStore::with_cache_dir(dir.as_ref())));
        self
    }

    /// Attaches an observability recorder: every figure runner times
    /// its phase, and the engine/campaign layers below record plan,
    /// cache, and throughput events. Telemetry never perturbs results.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Study {
        self.engine = self.engine.with_recorder(recorder);
        self
    }

    /// A guard timing one report phase (a figure, table, or ablation);
    /// records a `phase` event scoped by `name` when dropped.
    pub(crate) fn phase(&self, name: &str) -> Timer<'_> {
        Timer::start(&**self.engine.recorder(), "phase", name)
    }

    /// The study's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The study's scale.
    pub fn scale(&self) -> StudyScale {
        self.scale
    }

    /// The experiment engine behind this study.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// How many experiment cells this study has actually executed
    /// (cache hits — memory or disk — are not counted).
    pub fn executed_cells(&self) -> u64 {
        self.engine.store().executed()
    }

    // --- session parameters -------------------------------------------------

    pub(crate) fn hours(&self) -> f64 {
        match self.scale {
            StudyScale::Quick => 10.0,
            StudyScale::Paper => 100.0,
        }
    }

    pub(crate) fn target_candidates(&self) -> u64 {
        match self.scale {
            StudyScale::Quick => 256,
            StudyScale::Paper => 4000,
        }
    }

    pub(crate) fn injections(&self) -> u64 {
        match self.scale {
            StudyScale::Quick => 400,
            // "more than 2,000 faults for each data type" (Section 3.3).
            StudyScale::Paper => 2400,
        }
    }

    // --- workload identities ------------------------------------------------

    pub(crate) fn gemm_id(&self) -> WorkloadId {
        WorkloadId::Gemm {
            dim: match self.scale {
                StudyScale::Quick => 12,
                StudyScale::Paper => 24,
            },
        }
    }

    pub(crate) fn lavamd_id(&self) -> WorkloadId {
        let (boxes, particles) = match self.scale {
            StudyScale::Quick => (2, 3),
            StudyScale::Paper => (2, 5),
        };
        WorkloadId::LavaMd {
            boxes,
            particles,
            knc_unit: false,
        }
    }

    /// LavaMD with the KNC's dedicated-transcendental-unit exp model.
    pub(crate) fn lavamd_knc_id(&self) -> WorkloadId {
        match self.lavamd_id() {
            WorkloadId::LavaMd {
                boxes, particles, ..
            } => WorkloadId::LavaMd {
                boxes,
                particles,
                knc_unit: true,
            },
            #[expect(
                clippy::unreachable,
                reason = "lavamd_id always returns the LavaMd variant"
            )]
            other => unreachable!("lavamd_id returned {other:?}"),
        }
    }

    pub(crate) fn lud_id(&self) -> WorkloadId {
        WorkloadId::Lud {
            dim: match self.scale {
                StudyScale::Quick => 16,
                StudyScale::Paper => 28,
            },
        }
    }

    pub(crate) fn micro_id(&self, op: MicroKernelOp) -> WorkloadId {
        let (threads, iters) = match self.scale {
            StudyScale::Quick => (16, 128),
            StudyScale::Paper => (48, 512),
        };
        WorkloadId::Micro { op, threads, iters }
    }

    pub(crate) fn mnist_id(&self) -> WorkloadId {
        // The weight seed rides on the study seed through a full
        // splitmix64 avalanche (the old `0x313 ^ rotate` derivation
        // collided for related seeds).
        WorkloadId::Mnist {
            seed: mix_seed(self.seed, 0x313),
        }
    }

    pub(crate) fn yolo_id(&self) -> WorkloadId {
        WorkloadId::Yolo
    }

    // --- devices ------------------------------------------------------------

    pub(crate) fn fpga(&self) -> Fpga {
        Fpga::zynq7000()
    }

    pub(crate) fn knc(&self) -> XeonPhiKnc {
        XeonPhiKnc::coprocessor_3120a()
    }

    pub(crate) fn gpu(&self) -> VoltaGpu {
        VoltaGpu::titan_v()
    }

    // --- cell constructors --------------------------------------------------

    /// A beam cell at this study's scale. Workloads with a domain
    /// classifier (MNIST, YOLO) always carry it, so label-consuming
    /// and label-free figures share one campaign.
    pub(crate) fn beam_cell(
        &self,
        device: DeviceId,
        workload: WorkloadId,
        precision: Precision,
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
                hours: self.hours(),
                target_candidates: self.target_candidates(),
                classifier,
                sampling: self.sampling,
            },
        }
    }

    /// An injection cell at this study's scale, with the given fault
    /// model and live fraction (blind injections land in dead state
    /// the rest of the time — see `InjectionCampaign::live_fraction`).
    pub(crate) fn inject_cell(
        &self,
        workload: WorkloadId,
        precision: Precision,
        model: FaultModel,
        live_fraction: f64,
    ) -> CellKey {
        // Injection campaigns bypass the device's execution units; the
        // device slot only namespaces the cell. Use the device whose
        // methodology the model mimics to keep keys self-describing.
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
                injections: self.injections(),
                model,
                live_fraction,
                sampling: self.sampling,
            },
        }
    }

    /// An FPGA error-accumulation cell (MxM, `faults` stuck-at upsets
    /// per trial).
    pub(crate) fn acc_cell(&self, precision: Precision, faults: u32) -> CellKey {
        CellKey {
            device: DeviceId::Zynq7000,
            workload: self.gemm_id(),
            precision,
            kind: CellKind::Accumulate {
                faults,
                trials: match self.scale {
                    StudyScale::Quick => 60,
                    StudyScale::Paper => 250,
                },
            },
        }
    }

    /// Runs a batch of cells through the engine, one result per
    /// request in request order.
    pub(crate) fn run_cells(&self, keys: Vec<CellKey>) -> Vec<CellResult> {
        let mut plan = ExperimentPlan::new();
        for key in keys {
            plan.push(key);
        }
        self.engine.run(&plan)
    }

    // --- profile accessors (full-scale characterizations) ------------------

    pub(crate) fn profile_mxm_gpu(&self) -> WorkloadProfile {
        kprofiles::mxm_gpu()
    }
    pub(crate) fn profile_lavamd_gpu(&self) -> WorkloadProfile {
        kprofiles::lavamd_gpu()
    }
    pub(crate) fn profile_mxm_knc(&self) -> WorkloadProfile {
        kprofiles::mxm_knc()
    }
    pub(crate) fn profile_lavamd_knc(&self) -> WorkloadProfile {
        kprofiles::lavamd_knc()
    }
    pub(crate) fn profile_lud_knc(&self) -> WorkloadProfile {
        kprofiles::lud_knc()
    }
    pub(crate) fn profile_mxm_fpga(&self) -> WorkloadProfile {
        kprofiles::mxm_fpga()
    }
    pub(crate) fn profile_micro(&self, op: MicroKernelOp) -> WorkloadProfile {
        kprofiles::micro(op)
    }
    pub(crate) fn profile_mnist_fpga(&self) -> WorkloadProfile {
        nprofiles::mnist_fpga()
    }
    pub(crate) fn profile_yolo_gpu(&self) -> WorkloadProfile {
        nprofiles::yolo_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ_in_statistical_weight() {
        let q = Study::quick(1);
        let p = Study::paper(1);
        assert!(p.injections() > q.injections());
        assert!(p.target_candidates() > q.target_candidates());
        assert!(p.hours() > q.hours());
        assert_eq!(q.scale(), StudyScale::Quick);
        assert_eq!(p.scale(), StudyScale::Paper);
    }

    #[test]
    fn proxies_grow_with_scale() {
        assert_eq!(Study::quick(0).gemm_id(), WorkloadId::Gemm { dim: 12 });
        assert_eq!(Study::paper(0).gemm_id(), WorkloadId::Gemm { dim: 24 });
        assert_eq!(Study::paper(0).lud_id(), WorkloadId::Lud { dim: 28 });
    }

    #[test]
    fn seed_is_plumbed() {
        assert_eq!(Study::quick(9).seed(), 9);
        assert_eq!(Study::quick(9).engine().seed(), 9);
    }

    #[test]
    fn mnist_weight_seed_avalanches_the_study_seed() {
        let a = Study::quick(1).mnist_id();
        let b = Study::quick(2).mnist_id();
        assert_ne!(a, b);
        // Nearby seeds must not produce related weight seeds.
        let (WorkloadId::Mnist { seed: sa }, WorkloadId::Mnist { seed: sb }) = (a, b) else {
            panic!("mnist_id variant");
        };
        assert!((sa ^ sb).count_ones() > 8, "{sa:x} vs {sb:x}");
    }

    #[test]
    fn identical_cells_share_seeds_across_figures() {
        let s = Study::quick(7);
        let a = s.beam_cell(DeviceId::TitanV, s.gemm_id(), Precision::Single);
        let b = s.beam_cell(DeviceId::TitanV, s.gemm_id(), Precision::Single);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.cell_seed(s.seed()), b.cell_seed(s.seed()));
    }
}
