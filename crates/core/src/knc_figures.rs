//! Xeon Phi experiments: Figures 6-9 of the paper.

use crate::Study;
use mpr_exp::{CellResult, DeviceId};
use mpr_fault::FaultModel;
use mpr_metrics::{Table, TreCurve, Vulnerability};
use mpr_softfloat::Precision;

/// The KNC benchmark list.
const KNC_BENCHMARKS: [&str; 3] = ["LavaMD", "MxM", "LUD"];

fn knc_table(first: &str, title: &str) -> Table {
    Table::new(vec![
        first.to_string(),
        "double".to_string(),
        "single".to_string(),
    ])
    .with_title(title)
}

/// Figure 6: Xeon Phi SDC and DUE FIT per benchmark and precision.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// SDC FIT (a.u.) per benchmark, `[d, s]` order, LavaMD/MxM/LUD.
    pub sdc_fit: [[f64; 2]; 3],
    /// DUE FIT (a.u.) per benchmark.
    pub due_fit: [[f64; 2]; 3],
}

impl Fig6 {
    /// Renders the FIT table, normalized like the paper's plots: the
    /// largest SDC FIT in the figure is 100 a.u.
    pub fn to_table(&self) -> Table {
        let mut t = knc_table(
            "quantity",
            "Figure 6: Xeon Phi SDC and DUE FIT (normalized a.u.)",
        );
        let max = self
            .sdc_fit
            .iter()
            .flatten()
            .cloned()
            .fold(f64::MIN, f64::max);
        let scale = 100.0 / max;
        for (i, name) in KNC_BENCHMARKS.iter().enumerate() {
            t.row(vec![
                format!("{name} SDC"),
                format!("{:.1}", self.sdc_fit[i][0] * scale),
                format!("{:.1}", self.sdc_fit[i][1] * scale),
            ]);
            t.row(vec![
                format!("{name} DUE"),
                format!("{:.1}", self.due_fit[i][0] * scale),
                format!("{:.1}", self.due_fit[i][1] * scale),
            ]);
        }
        t
    }
}

/// Figure 7: Program Vulnerability Factor from CAROL-FI-style variable
/// injection.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// PVF estimates per benchmark, `[d, s]` order.
    pub pvf: [[Vulnerability; 2]; 3],
}

impl Fig7 {
    /// Renders the PVF table with confidence intervals.
    pub fn to_table(&self) -> Table {
        let mut t = knc_table("benchmark", "Figure 7: Xeon Phi SDC PVF");
        for (i, name) in KNC_BENCHMARKS.iter().enumerate() {
            t.row(vec![
                name.to_string(),
                format!("{}", self.pvf[i][0]),
                format!("{}", self.pvf[i][1]),
            ]);
        }
        t
    }

    /// Whether double and single PVF are statistically indistinguishable
    /// for a benchmark — the paper's Section 5.2 conclusion.
    pub fn indistinguishable(&self, benchmark: usize) -> bool {
        self.pvf[benchmark][0].statistically_indistinguishable(&self.pvf[benchmark][1])
    }
}

/// Figure 8: Xeon Phi FIT reduction vs TRE.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// TRE curves per benchmark, `[d, s]` order.
    pub curves: [[TreCurve; 2]; 3],
}

impl Fig8 {
    /// Surviving fraction at a tolerance for one benchmark.
    pub fn surviving_at(&self, benchmark: usize, tre: f64) -> [f64; 2] {
        [
            self.curves[benchmark][0].surviving_fraction(tre),
            self.curves[benchmark][1].surviving_fraction(tre),
        ]
    }

    /// Renders the survival table over the standard grid.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["benchmark", "TRE", "double", "single"])
            .with_title("Figure 8: Xeon Phi surviving FIT fraction vs TRE");
        for (i, name) in KNC_BENCHMARKS.iter().enumerate() {
            for tre in TreCurve::standard_grid() {
                let s = self.surviving_at(i, tre);
                t.row(vec![
                    name.to_string(),
                    format!("{tre:.0e}"),
                    format!("{:.3}", s[0]),
                    format!("{:.3}", s[1]),
                ]);
            }
        }
        t
    }
}

/// Figure 9: Xeon Phi Mean Executions Between Failures.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// MEBF (a.u.) per benchmark, `[d, s]` order.
    pub mebf: [[f64; 2]; 3],
}

impl Fig9 {
    /// Renders the MEBF table, each row normalized to its double-
    /// precision value so the MxM crossover is immediate.
    pub fn to_table(&self) -> Table {
        let mut t = knc_table(
            "benchmark",
            "Figure 9: Xeon Phi MEBF (relative to double = 1.00)",
        );
        for (i, name) in KNC_BENCHMARKS.iter().enumerate() {
            t.row(vec![
                name.to_string(),
                "1.00".to_string(),
                format!("{:.2}", self.mebf[i][1] / self.mebf[i][0]),
            ]);
        }
        t
    }
}

impl Study {
    /// The KNC beam cells — LavaMD, MxM, and LUD at double and single
    /// precision (the KNC has no half-precision hardware). Figures 6,
    /// 8, and 9 all project this one set of campaigns.
    #[expect(
        clippy::expect_used,
        reason = "run_cells returns exactly one result per requested cell"
    )]
    fn knc_results(&self) -> [[CellResult; 2]; 3] {
        let workloads = [self.lavamd_knc_id(), self.gemm_id(), self.lud_id()];
        let mut cells = Vec::with_capacity(6);
        for w in workloads {
            for p in [Precision::Double, Precision::Single] {
                cells.push(self.beam_cell(DeviceId::Knc3120a, w, p));
            }
        }
        let mut results = self.run_cells(cells).into_iter();
        [(); 3].map(|_| [(); 2].map(|_| results.next().expect("six knc cells")))
    }

    /// Figure 6: KNC beam campaigns.
    pub fn fig6_knc_fit(&self) -> Fig6 {
        let _phase = self.phase("fig6_knc_fit");
        let campaigns = self.knc_results();
        let mut sdc = [[0.0; 2]; 3];
        let mut due = [[0.0; 2]; 3];
        for (i, pair) in campaigns.iter().enumerate() {
            for (j, r) in pair.iter().enumerate() {
                sdc[i][j] = r.beam().fit_sdc().au();
                due[i][j] = r.beam().fit_due().au();
            }
        }
        Fig6 {
            sdc_fit: sdc,
            due_fit: due,
        }
    }

    /// Figure 7: variable-level single-bit injection (CAROL-FI on the
    /// KNC injects program variables — Section 5.2).
    pub fn fig7_knc_pvf(&self) -> Fig7 {
        let _phase = self.phase("fig7_knc_pvf");
        let workloads = [self.lavamd_knc_id(), self.gemm_id(), self.lud_id()];
        let mut cells = Vec::with_capacity(6);
        for w in workloads {
            for p in [Precision::Double, Precision::Single] {
                cells.push(self.inject_cell(
                    w,
                    p,
                    FaultModel::single_bit(),
                    mpr_arch::calib::KNC_VARIABLE_LIVE_FRACTION,
                ));
            }
        }
        let results = self.run_cells(cells);
        let pvf = [0, 1, 2].map(|i| [0, 1].map(|j| results[2 * i + j].inject().vulnerability()));
        Fig7 { pvf }
    }

    /// Figure 8: TRE curves from the KNC beam campaigns.
    pub fn fig8_knc_tre(&self) -> Fig8 {
        let _phase = self.phase("fig8_knc_tre");
        let campaigns = self.knc_results();
        Fig8 {
            curves: campaigns.map(|pair| [pair[0].beam().tre_curve(), pair[1].beam().tre_curve()]),
        }
    }

    /// Figure 9: KNC MEBF.
    pub fn fig9_knc_mebf(&self) -> Fig9 {
        let _phase = self.phase("fig9_knc_mebf");
        let campaigns = self.knc_results();
        let mut mebf = [[0.0; 2]; 3];
        for (i, pair) in campaigns.iter().enumerate() {
            for (j, r) in pair.iter().enumerate() {
                mebf[i][j] = r.beam().mebf().executions();
            }
        }
        Fig9 { mebf }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes() {
        let fig = Study::quick(11).fig6_knc_fit();
        // SDC: single > double for LavaMD and MxM (register allocation),
        // similar for LUD.
        assert!(
            fig.sdc_fit[0][1] > fig.sdc_fit[0][0],
            "LavaMD {:?}",
            fig.sdc_fit[0]
        );
        assert!(
            fig.sdc_fit[1][1] > fig.sdc_fit[1][0],
            "MxM {:?}",
            fig.sdc_fit[1]
        );
        let lud_ratio = fig.sdc_fit[2][1] / fig.sdc_fit[2][0];
        assert!((0.7..1.4).contains(&lud_ratio), "LUD ratio {lud_ratio}");
        // DUE: single > double everywhere (twice the control bits).
        for i in 0..3 {
            assert!(fig.due_fit[i][1] > fig.due_fit[i][0], "bench {i}");
        }
    }

    #[test]
    fn fig7_pvf_similar_between_precisions() {
        let fig = Study::quick(12).fig7_knc_pvf();
        for i in 0..3 {
            assert!(
                fig.indistinguishable(i),
                "benchmark {i}: {:?} vs {:?}",
                fig.pvf[i][0],
                fig.pvf[i][1]
            );
            assert!(fig.pvf[i][0].factor() > 0.0);
        }
    }

    #[test]
    fn fig8_lavamd_inverts_the_criticality_trend() {
        let fig = Study::quick(13).fig8_knc_tre();
        // LUD and MxM: double sheds errors faster than single — clearly.
        let mxm = fig.surviving_at(1, 1e-3);
        let lud = fig.surviving_at(2, 1e-3);
        assert!(mxm[0] < mxm[1], "MxM: {mxm:?}");
        assert!(lud[0] < lud[1], "LUD: {lud:?}");
        // LavaMD: the double advantage collapses and slightly inverts —
        // the transcendental-unit effect (Section 5.3). Compare the
        // double-vs-single gap against LUD's.
        let lava = fig.surviving_at(0, 1e-3);
        let lava_gap = lava[1] - lava[0]; // positive = double better
        let lud_gap = lud[1] - lud[0];
        assert!(
            lava_gap < 0.5 * lud_gap,
            "LavaMD gap {lava_gap:.3} must collapse vs LUD gap {lud_gap:.3}"
        );
        assert!(
            lava[1] <= lava[0] + 0.03,
            "single at least as good: {lava:?}"
        );
    }

    #[test]
    fn fig9_mebf_crossover() {
        let fig = Study::quick(14).fig9_knc_mebf();
        // Single wins for LavaMD and LUD (performance outweighs FIT),
        // double wins for MxM (single is slower *and* weaker).
        assert!(fig.mebf[0][1] > fig.mebf[0][0], "LavaMD {:?}", fig.mebf[0]);
        assert!(fig.mebf[2][1] > fig.mebf[2][0], "LUD {:?}", fig.mebf[2]);
        assert!(fig.mebf[1][0] > fig.mebf[1][1], "MxM {:?}", fig.mebf[1]);
    }

    #[test]
    fn tables_render() {
        let study = Study::quick(15);
        assert!(study
            .fig6_knc_fit()
            .to_table()
            .to_string()
            .contains("LavaMD SDC"));
        assert!(study.fig9_knc_mebf().to_table().to_string().contains("LUD"));
    }
}
