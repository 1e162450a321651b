//! Tables 1-3: execution times on each device.

use crate::fpga_figures::PRECISIONS;
use crate::Study;
use mpr_arch::{Device, Fpga, VoltaGpu, XeonPhiKnc};
use mpr_kernels::{profiles as kprofiles, MicroKernelOp};
use mpr_metrics::Table;
use mpr_nn::profiles as nprofiles;
use mpr_softfloat::Precision;

impl Study {
    /// Table 1: benchmark execution times on the Zynq-7000.
    pub fn table1_fpga_times(&self) -> Table {
        let _phase = self.phase("table1_fpga_times");
        let fpga = Fpga::zynq7000();
        let mut t = Table::new(vec!["benchmark", "double [s]", "single [s]", "half [s]"])
            .with_title("Table 1: execution time on the Zynq-7000");
        for (name, profile) in [
            ("MNIST", nprofiles::mnist_fpga()),
            ("MxM", kprofiles::mxm_fpga()),
        ] {
            let times = PRECISIONS.map(|p| fpga.exec_time(&profile, p));
            t.row(vec![
                name.to_string(),
                format!("{:.3}", times[0]),
                format!("{:.3}", times[1]),
                format!("{:.3}", times[2]),
            ]);
        }
        t
    }

    /// Table 2: benchmark execution times on the Xeon Phi.
    pub fn table2_knc_times(&self) -> Table {
        let _phase = self.phase("table2_knc_times");
        let knc = XeonPhiKnc::coprocessor_3120a();
        let mut t = Table::new(vec!["benchmark", "double [s]", "single [s]"])
            .with_title("Table 2: execution time on the Xeon Phi 3120A");
        for (name, profile) in [
            ("LavaMD", kprofiles::lavamd_knc()),
            ("MxM", kprofiles::mxm_knc()),
            ("LUD", kprofiles::lud_knc()),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:.3}", knc.exec_time(&profile, Precision::Double)),
                format!("{:.3}", knc.exec_time(&profile, Precision::Single)),
            ]);
        }
        t
    }

    /// Table 3: benchmark execution times on the Titan V.
    pub fn table3_gpu_times(&self) -> Table {
        let _phase = self.phase("table3_gpu_times");
        let gpu = VoltaGpu::titan_v();
        let mut t = Table::new(vec!["benchmark", "double [s]", "single [s]", "half [s]"])
            .with_title("Table 3: execution time on the Titan V");
        let mut push = |name: &str, profile: &mpr_arch::WorkloadProfile| {
            let times = PRECISIONS.map(|p| gpu.exec_time(profile, p));
            t.row(vec![
                name.to_string(),
                format!("{:.3}", times[0]),
                format!("{:.3}", times[1]),
                format!("{:.3}", times[2]),
            ]);
        };
        for op in MicroKernelOp::ALL {
            push(op.name(), &kprofiles::micro(op));
        }
        push("LavaMD", &kprofiles::lavamd_gpu());
        push("MxM", &kprofiles::mxm_gpu());
        push("YOLOv3", &nprofiles::yolo_gpu());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let t = Study::quick(0).table1_fpga_times().to_string();
        assert!(t.contains("2.730") && t.contains("2.100") && t.contains("2.310"));
        assert!(t.contains("0.011") && t.contains("0.009"));
    }

    #[test]
    fn table2_matches_the_paper() {
        let t = Study::quick(0).table2_knc_times().to_string();
        for v in ["1.307", "0.801", "10.612", "12.028", "1.264", "0.818"] {
            assert!(t.contains(v), "missing {v} in\n{t}");
        }
    }

    #[test]
    fn table3_matches_the_paper() {
        let t = Study::quick(0).table3_gpu_times().to_string();
        // Applications are calibrated to the measured Table 3.
        for v in [
            "1.071", "0.554", "0.291", "2.327", "1.909", "1.180", "0.133", "0.079", "0.283",
        ] {
            assert!(t.contains(v), "missing {v} in\n{t}");
        }
        // Micros are derived from the 8/4/3-cycle latency model: near
        // 6.0/3.0/2.25 s.
        assert!(t.contains("5.8") || t.contains("6.0"), "{t}");
    }
}
