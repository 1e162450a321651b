//! FPGA experiments: Figures 2-5 of the paper.

use crate::Study;
use mpr_arch::Fpga;
use mpr_exp::DeviceId;
use mpr_metrics::{Table, TreCurve};
use mpr_softfloat::Precision;

/// Precision order used by all per-figure arrays: `[double, single, half]`.
pub(crate) const PRECISIONS: [Precision; 3] = Precision::ALL;

fn precision_headers(first: &str) -> Vec<String> {
    let mut h = vec![first.to_string()];
    h.extend(PRECISIONS.iter().map(|p| p.name().to_string()));
    h
}

/// One Figure-2 row: design name plus LUT, DSP, and BRAM utilization,
/// each in `[d, s, h]` order.
pub type ResourceRow = (String, [f64; 3], [f64; 3], [f64; 3]);

/// Figure 2: FPGA resource utilization per design and precision.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// (design, LUTs, DSPs, BRAMs) per precision in `[d, s, h]` order.
    pub rows: Vec<ResourceRow>,
}

impl Fig2 {
    /// Renders the resource table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["design", "resource", "double", "single", "half"])
            .with_title("Figure 2: FPGA resource utilization (Zynq-7000)");
        for (design, luts, dsps, brams) in &self.rows {
            for (name, vals) in [("LUT", luts), ("DSP", dsps), ("BRAM", brams)] {
                t.row(vec![
                    design.clone(),
                    name.to_string(),
                    format!("{:.0}", vals[0]),
                    format!("{:.0}", vals[1]),
                    format!("{:.0}", vals[2]),
                ]);
            }
        }
        t
    }
}

/// Figure 3: FPGA FIT of MxM and MNIST, with the MNIST SDCs split into
/// critical (misclassification) and tolerable.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// MxM SDC FIT (a.u.) in `[d, s, h]` order.
    pub mxm_fit: [f64; 3],
    /// MNIST total SDC FIT (a.u.).
    pub mnist_fit: [f64; 3],
    /// Fraction of MNIST SDCs that are critical.
    pub mnist_critical_fraction: [f64; 3],
    /// Per-gate sensitivity (resources / FIT) for MxM.
    pub mxm_per_gate: [f64; 3],
}

impl Fig3 {
    /// Renders the FIT table, normalized like the paper's plots: the
    /// largest FIT in the figure is 100 a.u.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(precision_headers("quantity"))
            .with_title("Figure 3: FPGA FIT (normalized a.u.), MNIST split by criticality");
        let scale = 100.0
            / self
                .mxm_fit
                .iter()
                .chain(self.mnist_fit.iter())
                .cloned()
                .fold(f64::MIN, f64::max);
        let mut row = |label: &str, xs: &[f64; 3]| {
            let mut cells = vec![label.to_string()];
            cells.extend(xs.iter().map(|v| format!("{:.1}", v * scale)));
            t.row(cells);
        };
        row("MxM FIT", &self.mxm_fit);
        row("MNIST FIT", &self.mnist_fit);
        let critical = [
            self.mnist_fit[0] * self.mnist_critical_fraction[0],
            self.mnist_fit[1] * self.mnist_critical_fraction[1],
            self.mnist_fit[2] * self.mnist_critical_fraction[2],
        ];
        row("MNIST critical FIT", &critical);
        let mut raw_row = |label: &str, xs: [f64; 3]| {
            let mut cells = vec![label.to_string()];
            cells.extend(xs.iter().map(|v| format!("{v:.1}")));
            t.row(cells);
        };
        raw_row(
            "MNIST critical %",
            self.mnist_critical_fraction.map(|f| f * 100.0),
        );
        // Per-gate sensitivity: resources per normalized-FIT unit (the
        // paper's Section 4.1 check that area explains the trend).
        raw_row(
            "MxM area/FIT",
            [
                self.mxm_per_gate[0] / scale,
                self.mxm_per_gate[1] / scale,
                self.mxm_per_gate[2] / scale,
            ],
        );
        t
    }
}

/// Figure 4: FPGA FIT reduction vs Tolerated Relative Error for MxM.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// TRE curves in `[d, s, h]` order.
    pub curves: [TreCurve; 3],
    /// Base FIT values in `[d, s, h]` order (a.u.).
    pub base_fit: [f64; 3],
}

impl Fig4 {
    /// Surviving FIT fraction at a tolerance, per precision.
    pub fn surviving_at(&self, tre: f64) -> [f64; 3] {
        [
            self.curves[0].surviving_fraction(tre),
            self.curves[1].surviving_fraction(tre),
            self.curves[2].surviving_fraction(tre),
        ]
    }

    /// Renders the reduction table over the standard tolerance grid.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(precision_headers("TRE"))
            .with_title("Figure 4: FPGA MxM surviving FIT fraction vs TRE");
        for tre in TreCurve::standard_grid() {
            let s = self.surviving_at(tre);
            t.row(vec![
                format!("{tre:.0e}"),
                format!("{:.3}", s[0]),
                format!("{:.3}", s[1]),
                format!("{:.3}", s[2]),
            ]);
        }
        t
    }
}

/// Figure 5: FPGA Mean Executions Between Failures.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// MxM MEBF (a.u.) in `[d, s, h]` order.
    pub mxm_mebf: [f64; 3],
    /// MNIST MEBF (a.u.).
    pub mnist_mebf: [f64; 3],
}

impl Fig5 {
    /// Renders the MEBF table, each row normalized to its double-
    /// precision value (the crossovers are the paper's result).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(precision_headers("benchmark"))
            .with_title("Figure 5: FPGA MEBF (relative to double = 1.00)");
        for (name, xs) in [("MxM", &self.mxm_mebf), ("MNIST", &self.mnist_mebf)] {
            t.row(vec![
                name.to_string(),
                "1.00".to_string(),
                format!("{:.2}", xs[1] / xs[0]),
                format!("{:.2}", xs[2] / xs[0]),
            ]);
        }
        t
    }
}

impl Study {
    /// Figure 2: synthesis resource utilization.
    pub fn fig2_fpga_resources(&self) -> Fig2 {
        let _phase = self.phase("fig2_fpga_resources");
        let fpga = Fpga::zynq7000();
        let mut rows = Vec::new();
        for design in ["MxM", "MNIST"] {
            let mut luts = [0.0; 3];
            let mut dsps = [0.0; 3];
            let mut brams = [0.0; 3];
            for (i, p) in PRECISIONS.iter().enumerate() {
                #[expect(
                    clippy::expect_used,
                    reason = "both studied designs are registered in Fpga::resources"
                )]
                let r = fpga.resources(design, *p).expect("studied design");
                luts[i] = r.luts;
                dsps[i] = r.dsps;
                brams[i] = r.brams;
            }
            rows.push((design.to_string(), luts, dsps, brams));
        }
        Fig2 { rows }
    }

    /// The FPGA campaign cells: MxM and MNIST at every precision. Each
    /// figure requests this same set, so the engine executes it once
    /// per study.
    fn fpga_cells(&self) -> Vec<mpr_exp::CellKey> {
        let mut cells = Vec::with_capacity(6);
        for p in PRECISIONS {
            cells.push(self.beam_cell(DeviceId::Zynq7000, self.gemm_id(), p));
        }
        for p in PRECISIONS {
            cells.push(self.beam_cell(DeviceId::Zynq7000, self.mnist_id(), p));
        }
        cells
    }

    /// Figure 3: beam campaigns on the FPGA MxM and MNIST circuits.
    pub fn fig3_fpga_fit(&self) -> Fig3 {
        let _phase = self.phase("fig3_fpga_fit");
        let fpga = Fpga::zynq7000();
        let results = self.run_cells(self.fpga_cells());

        let mut mxm_fit = [0.0; 3];
        let mut mnist_fit = [0.0; 3];
        let mut critical = [0.0; 3];
        let mut per_gate = [0.0; 3];
        for (i, p) in PRECISIONS.iter().enumerate() {
            let mxm = results[i].beam();
            mxm_fit[i] = mxm.fit_sdc().au();
            per_gate[i] = fpga.per_gate_sensitivity("MxM", *p, mxm_fit[i]);

            let mn = results[3 + i].beam();
            mnist_fit[i] = mn.fit_sdc().au();
            critical[i] = mn
                .label_fractions()
                .iter()
                .find(|(l, _)| *l == "critical")
                .map_or(0.0, |(_, f)| *f);
        }

        Fig3 {
            mxm_fit,
            mnist_fit,
            mnist_critical_fraction: critical,
            mxm_per_gate: per_gate,
        }
    }

    /// Figure 4: TRE analysis of the FPGA MxM campaigns.
    pub fn fig4_fpga_tre(&self) -> Fig4 {
        let _phase = self.phase("fig4_fpga_tre");
        let results = self.run_cells(self.fpga_cells());
        Fig4 {
            base_fit: [0, 1, 2].map(|i| results[i].beam().fit_sdc().au()),
            curves: [0, 1, 2].map(|i| results[i].beam().tre_curve()),
        }
    }

    /// Figure 5: FPGA MEBF for MxM and MNIST.
    pub fn fig5_fpga_mebf(&self) -> Fig5 {
        let _phase = self.phase("fig5_fpga_mebf");
        let results = self.run_cells(self.fpga_cells());
        Fig5 {
            mxm_mebf: [0, 1, 2].map(|i| results[i].beam().mebf().executions()),
            mnist_mebf: [0, 1, 2].map(|i| results[3 + i].beam().mebf().executions()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reductions_match_the_paper() {
        let fig = Study::quick(1).fig2_fpga_resources();
        let (_, luts, _, _) = &fig.rows[0]; // MxM
        assert!((1.0 - luts[1] / luts[0] - 0.45).abs() < 0.02);
        assert!((1.0 - luts[2] / luts[1] - 0.36).abs() < 0.02);
        assert!(fig.to_table().to_string().contains("DSP"));
    }

    #[test]
    fn fig3_fit_follows_area_and_mnist_masks() {
        let fig = Study::quick(2).fig3_fpga_fit();
        // FIT decreases with precision on the FPGA (area effect).
        assert!(fig.mxm_fit[0] > fig.mxm_fit[1]);
        assert!(fig.mxm_fit[1] > fig.mxm_fit[2]);
        // MNIST FIT below MxM despite the bigger circuit (masking).
        assert!(fig.mnist_fit[0] < fig.mxm_fit[0]);
        // Critical fraction grows as precision shrinks.
        assert!(
            fig.mnist_critical_fraction[2] > fig.mnist_critical_fraction[0],
            "critical %: {:?}",
            fig.mnist_critical_fraction
        );
    }

    #[test]
    fn fig4_double_reduces_fastest() {
        let fig = Study::quick(3).fig4_fpga_tre();
        let at = fig.surviving_at(1e-3);
        // Paper: at 0.1% TRE double sheds ~63% of its errors, half
        // almost nothing.
        assert!(at[0] < 0.55, "double survives {at:?}");
        assert!(at[2] > 0.8, "half survives {at:?}");
        assert!(at[0] < at[1] && at[1] < at[2]);
    }

    #[test]
    fn fig5_mebf_increases_as_precision_drops() {
        let fig = Study::quick(4).fig5_fpga_mebf();
        assert!(fig.mxm_mebf[2] > fig.mxm_mebf[1]);
        assert!(fig.mxm_mebf[1] > fig.mxm_mebf[0]);
        assert!(fig.mnist_mebf[2] > fig.mnist_mebf[0]);
    }
}
