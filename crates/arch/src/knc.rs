//! The Intel Xeon Phi 3120A (Knights Corner) model.

use crate::calib::*;
use crate::{Device, Exposure, WorkloadProfile};
use mpr_softfloat::Precision;

/// The Intel Xeon Phi coprocessor 3120A (Knights Corner).
///
/// The KNC has **no dedicated mixed-precision hardware**: the same
/// 512-bit VPU executes 16 single-precision or 8 double-precision lanes
/// per operation, and half precision does not exist (paper Section 3.1).
/// Consequently the FIT difference between precisions is decided not by
/// the silicon but by *how the compiler uses it* (Section 5): the single
/// versions of LavaMD and MxM allocate 33% / 47% more vector registers —
/// a proxy for higher functional-unit and internal-queue usage, which is
/// the unprotected area (the register file and memories are MCA/ECC
/// protected).
///
/// DUE exposure scales with the number of active lanes: "16 single
/// precision ALUs use twice the number of control bits than 8 double
/// precision ALUs" (Section 5.1).
#[derive(Debug, Clone)]
pub struct XeonPhiKnc {
    name: String,
}

impl XeonPhiKnc {
    /// The 3120A configuration irradiated in the paper.
    pub fn coprocessor_3120a() -> XeonPhiKnc {
        XeonPhiKnc {
            name: "Intel Xeon Phi 3120A (KNC)".to_string(),
        }
    }
}

impl Device for XeonPhiKnc {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, precision: Precision) -> bool {
        knc_lanes(precision).is_some()
    }

    fn exec_time(&self, profile: &WorkloadProfile, precision: Precision) -> f64 {
        #[expect(
            clippy::panic,
            reason = "implements the Device trait's documented unsupported-precision panic"
        )]
        let lanes = knc_lanes(precision)
            .unwrap_or_else(|| panic!("KNC has no {precision}-precision hardware"));
        if let Some(c) = knc_time_components(&profile.name) {
            // Calibrated to the paper's Table 2: vector compute halves
            // from double (8 lanes) to single (16 lanes); memory time is
            // prefetch-efficiency dependent (MxM single is *slower*).
            let compute = c.compute_d * 8.0 / lanes;
            let mem = match precision {
                Precision::Double => c.mem_d,
                _ => c.mem_s,
            };
            return compute + c.serial + mem;
        }
        // Analytic fallback: vector throughput plus a streaming memory
        // term at two-thirds prefetch efficiency for single.
        let throughput = KNC_CORES * lanes * KNC_FREQ_HZ;
        let compute = profile.flops / throughput;
        let bytes = profile.value_traffic * precision.total_bits() as f64 / 8.0;
        let prefetch_eff = if precision == Precision::Single {
            0.66
        } else {
            1.0
        };
        let mem = bytes / (8.0e10 * prefetch_eff);
        compute + mem
    }

    fn exposure(&self, profile: &WorkloadProfile, precision: Precision) -> Exposure {
        #[expect(
            clippy::panic,
            reason = "implements the Device trait's documented unsupported-precision panic"
        )]
        let lanes = knc_lanes(precision)
            .unwrap_or_else(|| panic!("KNC has no {precision}-precision hardware"));
        // SDC-candidate exposure: functional units and internal queues,
        // proportional to the compiler's vector-register allocation (the
        // register file itself is ECC protected and contributes nothing).
        let regs = knc_vector_regs(&profile.name, precision);
        let compute = KNC_REG_WEIGHT * regs * KNC_CORES;

        // DUE exposure: control bits per active lane, scaled by how much
        // control flow the code carries.
        let due = KNC_DUE_PER_LANE * lanes * KNC_CORES * profile.control_density.max(0.1);

        Exposure {
            compute,
            due,
            // Same VPU executes both precisions: faults are register-level
            // single-bit flips; no precision-specific pipeline class.
            pipeline_fraction: 0.0,
            persistence: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpMix, WorkloadKind};

    fn profile(name: &str) -> WorkloadProfile {
        WorkloadProfile {
            name: name.to_string(),
            flops: 1e11,
            mix: OpMix::pure_fma(),
            value_traffic: 1e8,
            threads: 228.0,
            regs_per_thread: 32.0,
            ilp: 4.0,
            working_set_values: 1e6,
            memory_boundedness: 0.3,
            control_density: 1.0,
            kind: WorkloadKind::Numeric,
        }
    }

    #[test]
    fn no_half_precision() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        assert!(!knc.supports(Precision::Half));
        assert!(knc.supports(Precision::Single));
        assert!(knc.supports(Precision::Double));
    }

    #[test]
    #[should_panic(expected = "no half-precision hardware")]
    fn half_time_panics() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let _ = knc.exec_time(&profile("MxM"), Precision::Half);
    }

    #[test]
    fn table2_times_reproduced() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        for (name, d, s) in [
            ("LavaMD", 1.307, 0.801),
            ("MxM", 10.612, 12.028),
            ("LUD", 1.264, 0.818),
        ] {
            let p = profile(name);
            let td = knc.exec_time(&p, Precision::Double);
            let ts = knc.exec_time(&p, Precision::Single);
            assert!((td - d).abs() < 0.02, "{name} double {td} vs {d}");
            assert!((ts - s).abs() < 0.02, "{name} single {ts} vs {s}");
        }
    }

    #[test]
    fn mxm_single_is_slower_than_double() {
        // The paper's Table 2 inversion: prefetching favors double.
        let knc = XeonPhiKnc::coprocessor_3120a();
        let p = profile("MxM");
        assert!(knc.exec_time(&p, Precision::Single) > knc.exec_time(&p, Precision::Double));
    }

    #[test]
    fn sdc_exposure_follows_register_allocation() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        for (name, expect_ratio) in [("LavaMD", 1.33), ("MxM", 1.47), ("LUD", 1.0)] {
            let p = profile(name);
            let d = knc.exposure(&p, Precision::Double).compute;
            let s = knc.exposure(&p, Precision::Single).compute;
            assert!(
                (s / d - expect_ratio).abs() < 0.01,
                "{name}: single/double exposure {} vs {expect_ratio}",
                s / d
            );
        }
    }

    #[test]
    fn due_exposure_doubles_with_lane_count() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let p = profile("LUD");
        let d = knc.exposure(&p, Precision::Double).due;
        let s = knc.exposure(&p, Precision::Single).due;
        assert!((s / d - 2.0).abs() < 1e-9, "16 vs 8 lanes of control bits");
    }

    #[test]
    fn analytic_fallback_for_unknown_kernels() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let p = profile("SomethingElse");
        let td = knc.exec_time(&p, Precision::Double);
        let ts = knc.exec_time(&p, Precision::Single);
        assert!(td.is_finite() && ts.is_finite() && td > 0.0 && ts > 0.0);
        // Compute-dominated fallback: single is faster.
        assert!(ts < td);
    }
}
