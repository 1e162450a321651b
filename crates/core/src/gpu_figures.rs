//! GPU experiments: Figures 10-13 of the paper.

use crate::fpga_figures::PRECISIONS;
use crate::Study;
use mpr_arch::{Device, VoltaGpu};
use mpr_exp::{CellResult, DeviceId, WorkloadId};
use mpr_fault::FaultModel;
use mpr_kernels::{profiles as kprofiles, MicroKernelOp};
use mpr_metrics::{Table, TreCurve, Vulnerability};

fn gpu_table(first: &str, title: &str) -> Table {
    Table::new(vec![first, "double", "single", "half"]).with_title(title)
}

/// Figure 10: Titan V SDC and DUE FIT for the microbenchmarks (a), the
/// applications (b), and YOLOv3 (c).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// SDC FIT (a.u.) per micro (ADD/MUL/FMA), `[d, s, h]` order.
    pub micro_sdc: [[f64; 3]; 3],
    /// DUE FIT per micro.
    pub micro_due: [[f64; 3]; 3],
    /// SDC FIT for LavaMD and MxM.
    pub app_sdc: [[f64; 3]; 2],
    /// DUE FIT for LavaMD and MxM.
    pub app_due: [[f64; 3]; 2],
    /// YOLOv3 SDC FIT.
    pub yolo_sdc: [f64; 3],
    /// YOLOv3 DUE FIT.
    pub yolo_due: [f64; 3],
}

impl Fig10 {
    /// Renders the FIT table (all three subfigures), normalized like the
    /// paper's plots: the largest SDC FIT in the figure is 100 a.u.
    pub fn to_table(&self) -> Table {
        let mut t = gpu_table("quantity", "Figure 10: Titan V FIT (normalized a.u.)");
        let max = self
            .micro_sdc
            .iter()
            .chain(self.app_sdc.iter())
            .flatten()
            .chain(self.yolo_sdc.iter())
            .cloned()
            .fold(f64::MIN, f64::max);
        let scale = 100.0 / max;
        let mut row = |label: String, xs: &[f64; 3]| {
            t.row(vec![
                label,
                format!("{:.2}", xs[0] * scale),
                format!("{:.2}", xs[1] * scale),
                format!("{:.2}", xs[2] * scale),
            ]);
        };
        for (i, op) in MicroKernelOp::ALL.iter().enumerate() {
            row(format!("{} SDC", op.name()), &self.micro_sdc[i]);
            row(format!("{} DUE", op.name()), &self.micro_due[i]);
        }
        for (i, name) in ["LavaMD", "MxM"].iter().enumerate() {
            row(format!("{name} SDC"), &self.app_sdc[i]);
            row(format!("{name} DUE"), &self.app_due[i]);
        }
        row("YOLOv3 SDC".to_string(), &self.yolo_sdc);
        row("YOLOv3 DUE".to_string(), &self.yolo_due);
        t
    }
}

/// Figure 11: GPU FIT reduction vs TRE (a: micros, b: apps) and YOLOv3
/// SDC criticality (c).
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// TRE curves per micro (ADD/MUL/FMA), `[d, s, h]` order.
    pub micro_curves: [[TreCurve; 3]; 3],
    /// TRE curves for LavaMD and MxM.
    pub app_curves: [[TreCurve; 3]; 2],
    /// YOLOv3 SDC fractions `[tolerable, detection, classification]` per
    /// precision `[d, s, h]`.
    pub yolo_criticality: [[f64; 3]; 3],
}

impl Fig11 {
    /// Renders the survival-at-grid table plus the YOLO criticality split.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["series", "TRE", "double", "single", "half"])
            .with_title("Figure 11: GPU surviving FIT fraction vs TRE + YOLOv3 criticality");
        let names = ["Micro-ADD", "Micro-MUL", "Micro-FMA", "LavaMD", "MxM"];
        let all_curves: Vec<&[TreCurve; 3]> = self
            .micro_curves
            .iter()
            .chain(self.app_curves.iter())
            .collect();
        for (name, curves) in names.iter().zip(all_curves) {
            for tre in TreCurve::standard_grid() {
                t.row(vec![
                    name.to_string(),
                    format!("{tre:.0e}"),
                    format!("{:.3}", curves[0].surviving_fraction(tre)),
                    format!("{:.3}", curves[1].surviving_fraction(tre)),
                    format!("{:.3}", curves[2].surviving_fraction(tre)),
                ]);
            }
        }
        for (i, label) in ["tolerable", "detection", "classification"]
            .iter()
            .enumerate()
        {
            t.row(vec![
                format!("YOLOv3 {label} %"),
                "-".to_string(),
                format!("{:.1}", self.yolo_criticality[0][i] * 100.0),
                format!("{:.1}", self.yolo_criticality[1][i] * 100.0),
                format!("{:.1}", self.yolo_criticality[2][i] * 100.0),
            ]);
        }
        t
    }
}

/// Figure 12: GPU AVF from register/pipeline injection into the
/// microbenchmarks.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// AVF estimates per micro (ADD/MUL/FMA), `[d, s, h]` order.
    pub avf: [[Vulnerability; 3]; 3],
}

impl Fig12 {
    /// Renders the AVF table.
    pub fn to_table(&self) -> Table {
        let mut t = gpu_table(
            "micro",
            "Figure 12: GPU AVF (register + pipeline injection)",
        );
        for (i, op) in MicroKernelOp::ALL.iter().enumerate() {
            t.row(vec![
                op.name().to_string(),
                format!("{:.3}", self.avf[i][0].factor()),
                format!("{:.3}", self.avf[i][1].factor()),
                format!("{:.3}", self.avf[i][2].factor()),
            ]);
        }
        t
    }
}

/// Figure 13: GPU Mean Executions Between Failures.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// MEBF (a.u.) per benchmark: ADD, MUL, FMA, LavaMD, MxM, YOLOv3.
    pub mebf: [[f64; 3]; 6],
}

impl Fig13 {
    /// Benchmark names, in row order.
    pub const NAMES: [&'static str; 6] = [
        "Micro-ADD",
        "Micro-MUL",
        "Micro-FMA",
        "LavaMD",
        "MxM",
        "YOLOv3",
    ];

    /// Renders the MEBF table, each row normalized to its double-
    /// precision value.
    pub fn to_table(&self) -> Table {
        let mut t = gpu_table(
            "benchmark",
            "Figure 13: GPU MEBF (relative to double = 1.00)",
        );
        for (name, xs) in Self::NAMES.iter().zip(self.mebf.iter()) {
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
    /// The GPU beam cells — the three micros, LavaMD, MxM, and YOLOv3
    /// at every precision, in that row order. Figures 10, 11, and 13
    /// (and the ECC ablation's bare-GPU arm) all project this one set
    /// of campaigns.
    #[expect(
        clippy::expect_used,
        reason = "run_cells returns exactly one result per requested cell"
    )]
    fn gpu_results(&self) -> [[CellResult; 3]; 6] {
        let workloads = [
            self.micro_id(MicroKernelOp::Add),
            self.micro_id(MicroKernelOp::Mul),
            self.micro_id(MicroKernelOp::Fma),
            self.lavamd_id(false),
            self.gemm_id(),
            WorkloadId::Yolo,
        ];
        let mut cells = Vec::with_capacity(18);
        for w in workloads {
            for p in PRECISIONS {
                cells.push(self.beam_cell(DeviceId::TitanV, w, p));
            }
        }
        let mut results = self.run_cells(cells).into_iter();
        [(); 6].map(|_| [(); 3].map(|_| results.next().expect("eighteen gpu cells")))
    }

    /// Figure 10: GPU beam campaigns for micros, apps, and YOLOv3.
    pub fn fig10_gpu_fit(&self) -> Fig10 {
        let _phase = self.phase("fig10_gpu_fit");
        let rows = self.gpu_results();
        let micro = &rows[..3];
        let apps = &rows[3..5];
        let yolo = &rows[5];

        let take = |rs: &[CellResult; 3]| -> ([f64; 3], [f64; 3]) {
            (
                [0, 1, 2].map(|i| rs[i].beam().fit_sdc().au()),
                [0, 1, 2].map(|i| rs[i].beam().fit_due().au()),
            )
        };
        let (m0, d0) = take(&micro[0]);
        let (m1, d1) = take(&micro[1]);
        let (m2, d2) = take(&micro[2]);
        let (a0, ad0) = take(&apps[0]);
        let (a1, ad1) = take(&apps[1]);
        let (y, yd) = take(yolo);
        Fig10 {
            micro_sdc: [m0, m1, m2],
            micro_due: [d0, d1, d2],
            app_sdc: [a0, a1],
            app_due: [ad0, ad1],
            yolo_sdc: y,
            yolo_due: yd,
        }
    }

    /// Figure 11: TRE curves and YOLOv3 criticality.
    pub fn fig11_gpu_tre(&self) -> Fig11 {
        let _phase = self.phase("fig11_gpu_tre");
        let rows = self.gpu_results();

        let curves3 = |rs: &[CellResult; 3]| rs.each_ref().map(|r| r.beam().tre_curve());
        let mut crit = [[0.0; 3]; 3];
        for (i, r) in rows[5].iter().enumerate() {
            let fr = r.beam().label_fractions();
            let get = |l: &str| fr.iter().find(|(k, _)| *k == l).map_or(0.0, |(_, f)| *f);
            crit[i] = [get("tolerable"), get("detection"), get("classification")];
        }
        Fig11 {
            micro_curves: [curves3(&rows[0]), curves3(&rows[1]), curves3(&rows[2])],
            app_curves: [curves3(&rows[3]), curves3(&rows[4])],
            yolo_criticality: crit,
        }
    }

    /// Figure 12: AVF by injection into live microbenchmark executions,
    /// with the per-core pipeline-corruption mix of the Volta model
    /// (double cores are more complex; single and half share the FP32
    /// core — Section 6.2).
    pub fn fig12_gpu_avf(&self) -> Fig12 {
        let _phase = self.phase("fig12_gpu_avf");
        let gpu = VoltaGpu::titan_v();
        let mut cells = Vec::with_capacity(9);
        for op in MicroKernelOp::ALL {
            let prof = kprofiles::micro(op);
            for p in PRECISIONS {
                let pipe = gpu.exposure(&prof, p).pipeline_fraction;
                cells.push(self.inject_cell(
                    self.micro_id(op),
                    p,
                    FaultModel::pipeline(pipe),
                    mpr_arch::calib::VOLTA_REG_LIVE_FRACTION,
                ));
            }
        }
        let results = self.run_cells(cells);
        let avf = [0, 1, 2].map(|i| [0, 1, 2].map(|j| results[3 * i + j].inject().vulnerability()));
        Fig12 { avf }
    }

    /// Figure 13: GPU MEBF for every benchmark.
    pub fn fig13_gpu_mebf(&self) -> Fig13 {
        let _phase = self.phase("fig13_gpu_mebf");
        let rows = self.gpu_results();
        Fig13 {
            mebf: rows.map(|rs| [0, 1, 2].map(|i| rs[i].beam().mebf().executions())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_micro_orderings() {
        let fig = Study::quick(28).fig10_gpu_fit();
        // Order within Fig10 rows: [ADD, MUL, FMA] x [d, s, h].
        let add = fig.micro_sdc[0];
        let mul = fig.micro_sdc[1];
        let fma = fig.micro_sdc[2];
        // MUL: d > s > h.
        assert!(mul[0] > mul[1] && mul[1] > mul[2], "MUL {mul:?}");
        // ADD: opposite trend — double lowest, single ~ half.
        assert!(add[0] < add[1], "ADD {add:?}");
        assert!((add[1] / add[2] - 1.0).abs() < 0.35, "ADD s~h {add:?}");
        // FMA: single highest, half lowest.
        assert!(fma[1] > fma[2], "FMA {fma:?}");
        assert!(fma[0] > fma[2], "FMA {fma:?}");
        // FMA > MUL > ADD at double precision.
        assert!(fma[0] > mul[0] && mul[0] > add[0]);
    }

    #[test]
    fn fig10_app_orderings() {
        let fig = Study::quick(22).fig10_gpu_fit();
        let lava = fig.app_sdc[0];
        let mxm = fig.app_sdc[1];
        // MxM much higher FIT than LavaMD (memory bound).
        for i in 0..3 {
            assert!(mxm[i] > 1.8 * lava[i], "p{i}: {mxm:?} vs {lava:?}");
        }
        // LavaMD follows the MUL trend.
        assert!(lava[0] > lava[1] && lava[1] > lava[2], "{lava:?}");
        // MxM follows the FMA trend: half clearly lowest.
        assert!(mxm[2] < mxm[0] && mxm[2] < mxm[1], "{mxm:?}");
        // YOLO: half significantly lowest.
        assert!(
            fig.yolo_sdc[2] < 0.85 * fig.yolo_sdc[1],
            "{:?}",
            fig.yolo_sdc
        );
        // Micro DUE well below app DUE (control-flow density).
        assert!(fig.micro_due[1][0] < 0.3 * fig.app_due[0][0]);
        // YOLO DUE above arithmetic codes.
        assert!(fig.yolo_due[0] > fig.app_due[0][0]);
    }

    #[test]
    fn fig11_double_tolerates_more() {
        let fig = Study::quick(23).fig11_gpu_tre();
        for (i, name) in ["ADD", "MUL", "FMA"].iter().enumerate() {
            let d = fig.micro_curves[i][0].surviving_fraction(1e-3);
            let h = fig.micro_curves[i][2].surviving_fraction(1e-3);
            assert!(d < h, "{name}: d={d} h={h}");
        }
        // YOLO criticality fractions sum to ~1 where SDCs exist.
        for p in 0..3 {
            let sum: f64 = fig.yolo_criticality[p].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0, "{sum}");
        }
    }

    #[test]
    fn fig12_avf_double_above_fp32_family() {
        let fig = Study::quick(24).fig12_gpu_avf();
        for (i, op) in MicroKernelOp::ALL.iter().enumerate() {
            let d = fig.avf[i][0].factor();
            let s = fig.avf[i][1].factor();
            let h = fig.avf[i][2].factor();
            assert!(d > s && d > h, "{op:?}: d={d} s={s} h={h}");
            assert!(
                fig.avf[i][1].statistically_indistinguishable(&fig.avf[i][2]),
                "{op:?}: single {s} vs half {h} should be similar"
            );
        }
    }

    #[test]
    fn fig13_mebf_rises_as_precision_drops() {
        let fig = Study::quick(25).fig13_gpu_mebf();
        for (name, xs) in Fig13::NAMES.iter().zip(fig.mebf.iter()) {
            if *name == "YOLOv3" {
                continue; // half YOLO is slower; MEBF gain is not monotone
            }
            assert!(xs[2] > xs[0], "{name}: {xs:?}");
        }
    }

    #[test]
    fn tables_render() {
        let study = Study::quick(26);
        let t = study.fig12_gpu_avf().to_table().to_string();
        assert!(t.contains("Micro-FMA"));
    }
}
