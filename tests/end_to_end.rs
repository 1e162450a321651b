//! End-to-end integration: soft-float substrate -> kernel -> fault
//! injection -> beam campaign -> metrics, through the public facade.

use mixed_precision_reliability::arch::WorkloadProfile;
use mixed_precision_reliability::arch::{Device, Fpga, VoltaGpu, XeonPhiKnc};
use mixed_precision_reliability::beam::{expose, BeamSession, CampaignResult};
use mixed_precision_reliability::fault::{inject, FaultModel, StrikeRunner, Workload};
use mixed_precision_reliability::kernels::{profiles, Gemm, LavaMd, Micro, MicroKernelOp};
use mixed_precision_reliability::metrics::{Mebf, TreCurve};
use mixed_precision_reliability::softfloat::{Half, Precision};

#[test]
fn half_precision_arithmetic_reaches_the_campaign_layer() {
    // A half-precision GEMM executed through the soft-float substrate
    // must produce outputs representable in binary16.
    let gemm = Gemm::new(8);
    let out = gemm.run_golden(Precision::Half);
    for &v in &out {
        let h = Half::from_f64(v);
        assert_eq!(h.to_f64(), v, "output {v} must be a binary16 value");
    }
}

#[test]
fn injection_report_feeds_metrics_types() {
    let micro = Micro::new(MicroKernelOp::Mul, 8, 64);
    let golden = micro.run_golden(Precision::Single);
    let ctx = StrikeRunner {
        seed: 1,
        ..StrikeRunner::new(&micro, Precision::Single, &golden)
    };
    let report = inject(&ctx, 200, FaultModel::single_bit(), 1.0).expect("clean run");
    let v = report.vulnerability();
    let (lo, hi) = v.ci95();
    assert!(lo <= v.factor() && v.factor() <= hi);
    let curve: TreCurve = report.tre_curve();
    assert!(curve.surviving_fraction(0.0) <= 1.0);
}

#[test]
fn beam_campaign_on_every_device_family() {
    let gemm = Gemm::new(10);
    let session = BeamSession::quick().with_target_candidates(120);
    let campaign = |device: &dyn Device, profile: &WorkloadProfile, precision| -> CampaignResult {
        let golden = gemm.run_golden(precision);
        let ctx = StrikeRunner {
            seed: 5,
            ..StrikeRunner::new(&gemm, precision, &golden)
        };
        expose(&ctx, device, profile, session, None).expect("clean run")
    };

    let gpu = VoltaGpu::titan_v();
    let g = campaign(&gpu, &profiles::mxm_gpu(), Precision::Half);
    assert!(g.fit_sdc().au() > 0.0);

    let knc = XeonPhiKnc::coprocessor_3120a();
    let k = campaign(&knc, &profiles::mxm_knc(), Precision::Single);
    assert!(k.fit_sdc().au() > 0.0);
    assert!(k.due.events() > 0);

    let fpga = Fpga::zynq7000();
    let f = campaign(&fpga, &profiles::mxm_fpga(), Precision::Double);
    assert_eq!(f.due.events(), 0);

    // MEBF is comparable across configurations of the same device.
    let m: Mebf = g.mebf();
    assert!(m.executions() > 0.0);
}

#[test]
fn knc_rejects_half_everywhere() {
    let knc = XeonPhiKnc::coprocessor_3120a();
    assert!(!knc.supports(Precision::Half));
    let lavamd = LavaMd::new(1, 2).for_knc();
    // Workload supports half in principle; the device gate is what
    // blocks the campaign.
    assert!(lavamd.supports(Precision::Half));
    let profile = profiles::lavamd_knc();
    let golden = lavamd.run_golden(Precision::Half);
    let result = std::panic::catch_unwind(|| {
        let ctx = StrikeRunner::new(&lavamd, Precision::Half, &golden);
        let _ = expose(&ctx, &knc, &profile, BeamSession::quick(), None);
    });
    assert!(result.is_err());
}

#[test]
fn transcendental_unit_variant_changes_sites_not_golden() {
    let plain = LavaMd::new(2, 2);
    let knc = LavaMd::new(2, 2).for_knc();
    for p in [Precision::Double, Precision::Single] {
        let a = plain.run_golden(p);
        let b = knc.run_golden(p);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-2 * x.abs().max(1e-6), "{p}: {x} vs {y}");
        }
        assert_ne!(
            plain.site_count(p),
            knc.site_count(p),
            "unit model exposes different state"
        );
    }
}

#[test]
fn exposure_and_time_are_consistent_for_every_pairing() {
    // Devices answer for any (profile, precision) they support without
    // panicking, with positive times and exposures.
    let devices: Vec<Box<dyn Device>> = vec![
        Box::new(VoltaGpu::titan_v()),
        Box::new(XeonPhiKnc::coprocessor_3120a()),
        Box::new(Fpga::zynq7000()),
    ];
    let profs = [
        profiles::mxm_gpu(),
        profiles::lavamd_gpu(),
        profiles::mxm_knc(),
        profiles::lavamd_knc(),
        profiles::lud_knc(),
        profiles::mxm_fpga(),
        profiles::micro(MicroKernelOp::Add),
    ];
    for d in &devices {
        for prof in &profs {
            for p in Precision::ALL {
                if !d.supports(p) {
                    continue;
                }
                let t = d.exec_time(prof, p);
                let e = d.exposure(prof, p);
                assert!(t > 0.0 && t.is_finite(), "{} {} {p}", d.name(), prof.name);
                assert!(e.compute > 0.0, "{} {} {p}", d.name(), prof.name);
                assert!(e.due >= 0.0);
                assert!((0.0..=1.0).contains(&e.pipeline_fraction));
            }
        }
    }
}

#[test]
fn facade_reexports_are_coherent() {
    // The root crate re-exports the same types the sub-crates define.
    let h: mixed_precision_reliability::softfloat::Half = Half::from_f64(2.0);
    assert_eq!(h.to_f64(), 2.0);
    let p: Precision = "half".parse().unwrap();
    assert_eq!(p, Precision::Half);
    assert_eq!(p.total_bits(), 16);
    let _ = mixed_precision_reliability::core::Study::quick(0);
}
