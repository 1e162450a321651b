//! The NVIDIA Titan V (Volta) model.

use crate::calib::*;
use crate::{Device, Exposure, OpMix, WorkloadKind, WorkloadProfile};
use mpr_softfloat::{math::exp_terms, Precision};

/// The NVIDIA Titan V: dedicated mixed-precision hardware.
///
/// Unlike the Xeon Phi, Volta has *separate* core pools for double
/// (2,688) and single/half (5,376) operations, and a thread can drive one
/// FP32 core with two packed half operations (half2). The FIT rate
/// therefore depends on three competing properties (paper Section 6):
///
/// * per-core datapath complexity grows with operand width (quadratically
///   for multiplier arrays),
/// * the *number of active cores* doubles for single/half,
/// * register and resident-memory bits scale with the data width
///   (unprotected: the Titan V has no ECC).
///
/// [`VoltaGpu::exec_time`] is analytic for the latency-bound
/// microbenchmarks (8/4/3-cycle dependent chains) and calibrated to the
/// paper's Table 3 for the applications; [`VoltaGpu::exposure`]
/// implements the area model that reproduces Figure 10.
#[derive(Debug, Clone)]
pub struct VoltaGpu {
    name: String,
    ecc: bool,
}

impl VoltaGpu {
    /// The Titan V configuration irradiated in the paper: **no ECC** on
    /// the register file or caches (Section 3.2 — the authors triplicate
    /// output data in HBM2 to compensate).
    pub fn titan_v() -> VoltaGpu {
        VoltaGpu {
            name: "NVIDIA Titan V (Volta)".to_string(),
            ecc: false,
        }
    }

    /// The ECC ablation: the same GV100 silicon as shipped in the Tesla
    /// V100, with SECDED ECC enabled on the register file and caches.
    /// Protected-array strikes are mostly corrected (a small residual
    /// defeats the code) and a fraction surface as DUEs instead — the
    /// "what would the paper's GPU numbers look like on the datacenter
    /// part" question.
    pub fn tesla_v100() -> VoltaGpu {
        VoltaGpu {
            name: "NVIDIA Tesla V100 (Volta, ECC)".to_string(),
            ecc: true,
        }
    }

    /// Per-active-core datapath exposure (a.u.) for one operation class
    /// at one precision.
    ///
    /// Half operations execute two-per-core (half2): the active logic is
    /// two 16-bit datapaths, which makes a half adder pair exactly as
    /// wide as one single adder — the mechanism behind "single and half
    /// precision have very similar FIT rates for ADD" (Section 6.1).
    fn core_complexity(op: MicroOp, precision: Precision) -> f64 {
        let (w, per_core_ops) = match precision {
            Precision::Double => (64.0, 1.0),
            Precision::Single => (32.0, 1.0),
            Precision::Half => (16.0, 2.0),
        };
        let add_path = VOLTA_ADD_PER_BIT * w * per_core_ops;
        let mul_array = VOLTA_MUL_PER_BIT2 * w * w * per_core_ops;
        VOLTA_CORE_CTRL
            + match op {
                MicroOp::Add => add_path,
                MicroOp::Mul => mul_array,
                MicroOp::Fma => {
                    // Product array + double-width accumulate path + the
                    // wide normalize/round stage.
                    mul_array
                        + VOLTA_ADD_PER_BIT * 2.0 * w * per_core_ops
                        + VOLTA_FMA_FIXED
                        + VOLTA_FMA_PER_BIT * w * per_core_ops
                }
                MicroOp::Div => VOLTA_DIV_MUL_FACTOR * mul_array,
            }
    }

    /// Mix-weighted active-core logic exposure for a workload.
    ///
    /// Transcendentals execute in software on GPUs (Section 6.3): each
    /// contributes the FMA complexity times the polynomial depth of the
    /// in-precision `exp` evaluation.
    fn logic_exposure(mix: &OpMix, precision: Precision) -> f64 {
        let cores = match precision {
            Precision::Double => VOLTA_FP64_CORES,
            Precision::Single | Precision::Half => VOLTA_FP32_CORES,
        };
        let fma = Self::core_complexity(MicroOp::Fma, precision);
        let per_op = mix.add * Self::core_complexity(MicroOp::Add, precision)
            + mix.mul * Self::core_complexity(MicroOp::Mul, precision)
            + mix.fma * fma
            + mix.div * Self::core_complexity(MicroOp::Div, precision)
            + mix.transcendental * fma * exp_terms(precision) as f64;
        cores * per_op
    }
}

#[derive(Debug, Clone, Copy)]
enum MicroOp {
    Add,
    Mul,
    Fma,
    Div,
}

impl Device for VoltaGpu {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, _precision: Precision) -> bool {
        true // hardware double, single, and packed half
    }

    fn exec_time(&self, profile: &WorkloadProfile, precision: Precision) -> f64 {
        assert!(self.supports(precision));
        if let Some(t) = volta_app_time_s(&profile.name, precision) {
            return t; // measured Table 3 calibration for the applications
        }
        // Analytic model: dependent chains are latency bound, wide
        // parallel work is throughput bound; memory adds a width-scaled
        // streaming term.
        let chain_ops = profile.flops / profile.threads;
        let latency_bound = chain_ops * volta_latency_cycles(precision)
            / VOLTA_FREQ_HZ
            / profile.ilp.max(1.0).min(volta_latency_cycles(precision));
        let throughput_bound =
            profile.flops / (volta_throughput_ops_per_cycle(precision) * VOLTA_FREQ_HZ);
        let bytes = profile.value_traffic * precision.total_bits() as f64 / 8.0;
        let memory = bytes / VOLTA_MEM_BW;
        latency_bound.max(throughput_bound) + memory
    }

    fn exposure(&self, profile: &WorkloadProfile, precision: Precision) -> Exposure {
        assert!(self.supports(precision));
        let logic = Self::logic_exposure(&profile.mix, precision);

        // Live register bits: threads x registers x 32-bit words per
        // value (2 for double), clamped at the physical register file —
        // occupancy-limited apps trade threads for registers, so their
        // exposed register bits are capacity, not demand. No ECC on the
        // Titan V register file.
        let reg_demand =
            profile.threads * profile.regs_per_thread * volta_regs_per_value(precision) * 32.0;
        let regs = VOLTA_REG_WEIGHT * reg_demand.min(VOLTA_REGFILE_BITS);

        // Cached data waiting on the (slow, non-coalesced) memory
        // pipeline: exposure scales with the resident bits — width-
        // dependent until the working set overflows the caches — and
        // with how memory-bound the code is. HBM2 contents are
        // triplicated in the paper's setup, so only on-chip data counts.
        let ws_bits = profile.working_set_values * precision.total_bits() as f64;
        let mem = VOLTA_MEM_WEIGHT * ws_bits.min(VOLTA_CACHED_BITS) * profile.memory_boundedness;

        // DUE: scheduler/interface state plus control-flow density
        // (precision independent; integrated over time by the beam).
        let detector = if profile.kind == WorkloadKind::Detector {
            VOLTA_DUE_DETECTOR_FACTOR
        } else {
            1.0
        };
        let mut due = (VOLTA_DUE_BASE + VOLTA_DUE_CTRL * profile.control_density) * detector;

        // ECC ablation (Tesla V100): protected-array strikes are mostly
        // corrected; a residual defeats the interleaving and a further
        // fraction surfaces as detected-uncorrectable events.
        let (regs, mem) = if self.ecc {
            due += (regs + mem) * VOLTA_ECC_DUE_FRACTION;
            (regs * VOLTA_ECC_RESIDUAL_SDC, mem * VOLTA_ECC_RESIDUAL_SDC)
        } else {
            (regs, mem)
        };

        let compute = logic + regs + mem;
        // Pipeline (wide-corruption) fraction: the core-complexity share
        // of the compute exposure, floored by the per-core-family figure.
        let pipeline_fraction = volta_pipeline_fraction(precision) * (logic / compute).max(0.2);

        Exposure {
            compute,
            due,
            pipeline_fraction,
            persistence: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_order(mix: OpMix) -> (f64, f64, f64) {
        (
            VoltaGpu::logic_exposure(&mix, Precision::Double),
            VoltaGpu::logic_exposure(&mix, Precision::Single),
            VoltaGpu::logic_exposure(&mix, Precision::Half),
        )
    }

    #[test]
    fn mul_exposure_orders_double_single_half() {
        let (d, s, h) = fit_order(OpMix::pure_mul());
        assert!(d > s && s > h, "MUL: d={d:.3e} s={s:.3e} h={h:.3e}");
    }

    #[test]
    fn add_exposure_inverts_the_trend() {
        // "For ADD operations we observe the opposite trend... having
        // more active cores for single and half masks the benefit of
        // fewer bits" (Section 6.1) — and single == half exactly, since
        // two 16-bit adders equal one 32-bit adder on the same core count.
        let (d, s, h) = fit_order(OpMix::pure_add());
        assert!(d < s, "ADD: d={d:.3e} must be below s={s:.3e}");
        assert!((s - h).abs() / s < 1e-9, "ADD: single == half");
    }

    #[test]
    fn fma_exposure_single_highest_half_lowest() {
        let (d, s, h) = fit_order(OpMix::pure_fma());
        assert!(s > d, "FMA: s={s:.3e} must exceed d={d:.3e}");
        assert!(h < d, "FMA: h={h:.3e} must be lowest");
    }

    #[test]
    fn fma_exceeds_mul_exceeds_add() {
        for p in Precision::ALL {
            let add = VoltaGpu::logic_exposure(&OpMix::pure_add(), p);
            let mul = VoltaGpu::logic_exposure(&OpMix::pure_mul(), p);
            let fma = VoltaGpu::logic_exposure(&OpMix::pure_fma(), p);
            assert!(
                fma > mul && mul > add,
                "{p}: fma={fma:.3e} mul={mul:.3e} add={add:.3e}"
            );
        }
    }

    #[test]
    fn micro_times_match_table3() {
        // Table 3: Micro ~6.0s double, ~3.0s single, ~2.25s half.
        let gpu = VoltaGpu::titan_v();
        for profile in [
            WorkloadProfile::micro_add(),
            WorkloadProfile::micro_mul(),
            WorkloadProfile::micro_fma(),
        ] {
            let d = gpu.exec_time(&profile, Precision::Double);
            let s = gpu.exec_time(&profile, Precision::Single);
            let h = gpu.exec_time(&profile, Precision::Half);
            assert!((d - 6.0).abs() < 0.5, "{}: d={d}", profile.name);
            assert!((s - 3.0).abs() < 0.3, "{}: s={s}", profile.name);
            assert!((h - 2.25).abs() < 0.3, "{}: h={h}", profile.name);
        }
    }

    #[test]
    fn pipeline_fraction_double_exceeds_fp32_family() {
        let gpu = VoltaGpu::titan_v();
        let p = WorkloadProfile::micro_fma();
        let d = gpu.exposure(&p, Precision::Double).pipeline_fraction;
        let s = gpu.exposure(&p, Precision::Single).pipeline_fraction;
        let h = gpu.exposure(&p, Precision::Half).pipeline_fraction;
        assert!(d > s, "double core more complex: {d} vs {s}");
        assert!((s - h).abs() < 0.05, "single/half share the FP32 core");
    }

    #[test]
    fn ecc_ablation_suppresses_array_exposure() {
        let bare = VoltaGpu::titan_v();
        let ecc = VoltaGpu::tesla_v100();
        // A memory-bound profile loses most of its compute exposure under
        // ECC and gains some DUE exposure.
        let prof = WorkloadProfile {
            name: "mem-bound".to_string(),
            flops: 1e10,
            mix: OpMix::pure_fma(),
            value_traffic: 1e9,
            threads: 2e5,
            regs_per_thread: 64.0,
            ilp: 4.0,
            working_set_values: 5e6,
            memory_boundedness: 0.8,
            control_density: 1.0,
            kind: WorkloadKind::Numeric,
        };
        for p in Precision::ALL {
            let b = bare.exposure(&prof, p);
            let e = ecc.exposure(&prof, p);
            assert!(
                e.compute < 0.6 * b.compute,
                "{p}: {} vs {}",
                e.compute,
                b.compute
            );
            assert!(e.due > b.due, "{p}: ECC adds detected-uncorrectable events");
        }
        // Register-resident micros keep their logic exposure: ECC helps
        // much less.
        let micro = WorkloadProfile::micro_mul();
        let b = bare.exposure(&micro, Precision::Single).compute;
        let e = ecc.exposure(&micro, Precision::Single).compute;
        assert!(e > 0.75 * b, "logic dominates micros: {e} vs {b}");
    }

    #[test]
    fn due_exposure_is_precision_independent_for_numeric_codes() {
        let gpu = VoltaGpu::titan_v();
        let p = WorkloadProfile::micro_mul();
        let d = gpu.exposure(&p, Precision::Double).due;
        let h = gpu.exposure(&p, Precision::Half).due;
        assert_eq!(d, h);
    }
}
