//! The Xilinx Zynq-7000 FPGA model.

use crate::calib::*;
use crate::{Device, Exposure, PersistentFaults, WorkloadProfile};
use mpr_softfloat::Precision;

/// Synthesized resource utilization of one circuit (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaResources {
    /// Look-up tables.
    pub luts: f64,
    /// DSP48 slices.
    pub dsps: f64,
    /// Block RAMs.
    pub brams: f64,
}

impl FpgaResources {
    /// Configuration-memory bits controlled by these resources.
    pub fn config_bits(&self) -> f64 {
        self.luts * FPGA_CONFIG_BITS_PER_LUT
            + self.dsps * FPGA_CONFIG_BITS_PER_DSP
            + self.brams * FPGA_CONFIG_BITS_PER_BRAM
    }
}

/// The Xilinx Zynq-7000 running a synthesized circuit.
///
/// On the FPGA the relationship between precision and reliability is the
/// paper's cleanest case (Section 4): the same algorithm synthesized at a
/// lower precision occupies proportionally less configuration memory, and
/// since strikes land uniformly in that memory, FIT is linear in the
/// exposed area. Two behaviours distinguish the FPGA from the fixed-
/// silicon devices:
///
/// * **Persistence** — a configuration-memory strike rewires the circuit;
///   every subsequent execution is corrupted until the device is
///   reprogrammed. The exposure therefore carries
///   [`PersistentFaults`] with the physical PE count, so the beam
///   simulator can corrupt *every operation mapped to the struck PE*
///   (the paper reprograms on each observed error, which the simulator
///   mirrors).
/// * **No DUEs** — "we have never observed any DUE during our experiments
///   with FPGAs" (bare-metal circuit, no scheduler to hang): the DUE
///   exposure is zero.
#[derive(Debug, Clone)]
pub struct Fpga {
    name: String,
}

impl Fpga {
    /// The Zynq-7000 configuration irradiated in the paper.
    pub fn zynq7000() -> Fpga {
        Fpga {
            name: "Xilinx Zynq-7000".to_string(),
        }
    }

    /// Synthesis results for a supported design.
    ///
    /// Returns `None` for circuits the study did not synthesize.
    pub fn resources(&self, design: &str, precision: Precision) -> Option<FpgaResources> {
        fpga_resources(design, precision).map(|(luts, dsps, brams)| FpgaResources {
            luts,
            dsps,
            brams,
        })
    }

    /// Number of physical multiply-accumulate processing elements the
    /// design folds its computation onto (bounded by the DSP budget).
    pub fn pe_count(&self, design: &str, precision: Precision) -> Option<u64> {
        self.resources(design, precision)
            .map(|r| (r.dsps / fpga_dsp_per_mac(precision)).round().max(1.0) as u64)
    }

    /// Area-normalized sensitivity (configuration bits per unit FIT) —
    /// the paper's per-gate sensitivity check (Section 4.1) divides
    /// resources by the error rate to show area explains the FIT trend.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not one of the synthesized designs.
    #[expect(clippy::expect_used, reason = "documented under `# Panics`")]
    pub fn per_gate_sensitivity(&self, design: &str, precision: Precision, fit_au: f64) -> f64 {
        let r = self.resources(design, precision).expect("unknown design");
        (r.luts + r.dsps + r.brams) / fit_au
    }
}

impl Device for Fpga {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, _precision: Precision) -> bool {
        true // synthesis tailors the datapath to any precision
    }

    fn exec_time(&self, profile: &WorkloadProfile, precision: Precision) -> f64 {
        fpga_time_s(&profile.name, precision).unwrap_or_else(|| {
            // Analytic fallback: ops spread over the PE array at a
            // conservative 150 MHz fabric clock.
            let pes = self.pe_count(&profile.name, precision).unwrap_or(8).max(1) as f64;
            profile.flops / (pes * 1.5e8)
        })
    }

    fn exposure(&self, profile: &WorkloadProfile, precision: Precision) -> Exposure {
        let resources = self
            .resources(&profile.name, precision)
            .unwrap_or(FpgaResources {
                luts: 10_000.0,
                dsps: 40.0,
                brams: 20.0,
            });
        let pe_count = self.pe_count(&profile.name, precision).unwrap_or(8);
        Exposure {
            // Only functionally sensitive configuration bits matter; the
            // rest are don't-care entries and inactive routing.
            compute: resources.config_bits() * FPGA_CONFIG_SENSITIVE_FRACTION,
            due: 0.0,
            pipeline_fraction: 0.0,
            persistence: Some(PersistentFaults { pe_count }),
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
            flops: 4.2e6,
            mix: OpMix::pure_fma(),
            value_traffic: 5e4,
            threads: 1.0,
            regs_per_thread: 16.0,
            ilp: 16.0,
            working_set_values: 5e4,
            memory_boundedness: 0.2,
            control_density: 0.2,
            kind: WorkloadKind::Numeric,
        }
    }

    #[test]
    fn exposure_scales_linearly_with_area() {
        let fpga = Fpga::zynq7000();
        let p = profile("MxM");
        let d = fpga.exposure(&p, Precision::Double);
        let s = fpga.exposure(&p, Precision::Single);
        let h = fpga.exposure(&p, Precision::Half);
        // FIT proportional to area: the Figure 2 reductions carry over.
        assert!((s.compute / d.compute - 0.55).abs() < 0.01);
        assert!((h.compute / s.compute - 0.64).abs() < 0.01);
    }

    #[test]
    fn no_dues_on_the_fpga() {
        let fpga = Fpga::zynq7000();
        for p in Precision::ALL {
            assert_eq!(fpga.exposure(&profile("MNIST"), p).due, 0.0);
        }
    }

    #[test]
    fn strikes_are_persistent_with_sane_pe_counts() {
        let fpga = Fpga::zynq7000();
        let e = fpga.exposure(&profile("MxM"), Precision::Half);
        let pes = e.persistence.expect("FPGA faults persist").pe_count;
        // Half-precision MACs pack two per four DSPs: more PEs than double.
        let e_d = fpga.exposure(&profile("MxM"), Precision::Double);
        assert!(pes > e_d.persistence.unwrap().pe_count);
        assert!(pes >= 1);
    }

    #[test]
    fn table1_times_reproduced() {
        let fpga = Fpga::zynq7000();
        assert_eq!(fpga.exec_time(&profile("MxM"), Precision::Double), 2.730);
        assert_eq!(fpga.exec_time(&profile("MNIST"), Precision::Single), 0.009);
        // Half MxM is slightly slower than single on the FPGA (Table 1).
        assert!(
            fpga.exec_time(&profile("MxM"), Precision::Half)
                > fpga.exec_time(&profile("MxM"), Precision::Single)
        );
    }

    #[test]
    fn unknown_design_uses_fallback() {
        let fpga = Fpga::zynq7000();
        let t = fpga.exec_time(&profile("Custom"), Precision::Single);
        assert!(t > 0.0 && t.is_finite());
        assert!(fpga.exposure(&profile("Custom"), Precision::Single).compute > 0.0);
    }

    #[test]
    fn per_gate_sensitivity_is_area_over_fit() {
        let fpga = Fpga::zynq7000();
        let r = fpga.resources("MxM", Precision::Double).unwrap();
        let area = r.luts + r.dsps + r.brams;
        assert_eq!(
            fpga.per_gate_sensitivity("MxM", Precision::Double, 2.0),
            area / 2.0
        );
    }

    #[test]
    fn mnist_has_more_config_bits_than_mxm() {
        let fpga = Fpga::zynq7000();
        for p in Precision::ALL {
            let mxm = fpga.resources("MxM", p).unwrap().config_bits();
            let mnist = fpga.resources("MNIST", p).unwrap().config_bits();
            assert!(mnist > mxm, "{p}: MNIST is the bigger circuit");
        }
    }
}
