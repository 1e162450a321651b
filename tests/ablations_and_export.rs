//! Integration coverage for the beyond-the-paper features: ablations,
//! CSV export, severity histograms, and the accuracy-agreement check.

use mixed_precision_reliability::core::Study;
use mixed_precision_reliability::metrics::SeverityHistogram;
use mixed_precision_reliability::nn::Mnist;
use mixed_precision_reliability::softfloat::Precision;

#[test]
fn export_round_trips_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("mpr_it_export_{}", std::process::id()));
    let study = Study::quick(60);
    let paths = study.export_csv(&dir).expect("export succeeds");
    assert!(paths.iter().any(|p| p.ends_with("fig4.csv")));
    // Figure 4's CSV carries the TRE grid with three precision columns.
    let fig4 = std::fs::read_to_string(dir.join("fig4.csv")).unwrap();
    let header = fig4.lines().next().unwrap();
    assert_eq!(header, "TRE,double,single,half");
    assert_eq!(fig4.lines().count(), 8, "header + 7 tolerance rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ecc_ablation_is_deterministic_and_ordered() {
    let a = Study::quick(61).ablation_gpu_ecc();
    let b = Study::quick(61).ablation_gpu_ecc();
    assert_eq!(a.sdc_reduction(), b.sdc_reduction());
    // ECC always helps SDC FIT (reduction factor >= 1) for both rows;
    // quick-scale campaigns see Poisson noise of a few tens of events,
    // so allow the estimate to dip modestly below 1.
    for row in a.sdc_reduction() {
        for r in row {
            assert!(r >= 0.85, "{:?}", a.sdc_reduction());
        }
    }
}

#[test]
fn accumulation_ablation_reaches_saturation() {
    let ab = Study::quick(62).ablation_fault_accumulation();
    let last = ab.sdc_probability.last().unwrap();
    for p in 0..3 {
        assert!(last[p] > 0.9, "{last:?}");
    }
}

#[test]
fn severity_histograms_expose_the_mantissa_floor() {
    // A half-precision campaign cannot produce relative errors below
    // ~2^-11; the histogram's low decades must be empty.
    use mixed_precision_reliability::arch::VoltaGpu;
    use mixed_precision_reliability::beam::{expose, BeamSession, CampaignResult};
    use mixed_precision_reliability::fault::{StrikeRunner, Workload};
    use mixed_precision_reliability::kernels::{profiles, Gemm};

    let gpu = VoltaGpu::titan_v();
    let gemm = Gemm::new(12);
    let prof = profiles::mxm_gpu();
    let campaign = |precision: Precision| -> CampaignResult {
        let golden = gemm.run_golden(precision);
        let ctx = StrikeRunner {
            seed: 63,
            ..StrikeRunner::new(&gemm, precision, &golden)
        };
        let session = BeamSession::quick().with_target_candidates(400);
        expose(&ctx, &gpu, &prof, session, None).expect("clean run")
    };
    let result = campaign(Precision::Half);
    let hist = SeverityHistogram::from_errors(&result.severities);
    let empty_low_decades: u64 = hist
        .decades()
        .iter()
        .filter(|(edge, _)| *edge < 1e-5)
        .map(|(_, c)| *c)
        .sum();
    assert_eq!(empty_low_decades, 0, "half has no sub-1e-5 severities");
    // Whereas double populates them.
    let result_d = campaign(Precision::Double);
    let hist_d = SeverityHistogram::from_errors(&result_d.severities);
    let low_d: u64 = hist_d
        .decades()
        .iter()
        .filter(|(edge, _)| *edge < 1e-5)
        .map(|(_, c)| *c)
        .sum();
    assert!(low_d > 0, "double populates the low decades");
}

#[test]
fn mnist_agreement_matches_the_paper_quote() {
    let m = Mnist::new();
    assert!(m.batch_agreement(Precision::Half, Precision::Double, 30) >= 0.98);
}
