//! The headline qualitative results of the paper, asserted through the
//! public experiment API. Each test names the paper artifact it checks.

use mixed_precision_reliability::core::Study;
use mixed_precision_reliability::obs::fnv1a64;
use std::sync::OnceLock;

/// One shared quick study; every shape below must hold at this seed.
/// The clones share one experiment engine (and thus one result store),
/// so the many figures projecting the same campaign cells execute each
/// cell once for the whole test binary.
fn study() -> Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::quick(0xE57)).clone()
}

#[test]
fn section4_fpga_fit_is_linear_in_area() {
    let fig3 = study().fig3_fpga_fit();
    // FIT ordering follows the synthesized area at every precision step.
    assert!(fig3.mxm_fit[0] > fig3.mxm_fit[1] && fig3.mxm_fit[1] > fig3.mxm_fit[2]);
    // Per-gate sensitivity (area/FIT) varies far less than FIT itself:
    // the area is "the primary responsible for the different error rates".
    let pg = fig3.mxm_per_gate;
    let spread =
        pg.iter().cloned().fold(f64::MIN, f64::max) / pg.iter().cloned().fold(f64::MAX, f64::min);
    let fit_spread = fig3.mxm_fit[0] / fig3.mxm_fit[2];
    assert!(
        spread < 0.6 * fit_spread,
        "per-gate spread {spread:.2} vs FIT spread {fit_spread:.2}"
    );
}

#[test]
fn section4_mnist_masks_faults_but_low_precision_errors_are_critical() {
    let fig3 = study().fig3_fpga_fit();
    // The CNN masks: lower FIT than MxM despite more resources.
    for i in 0..3 {
        assert!(fig3.mnist_fit[i] < fig3.mxm_fit[i]);
    }
    // Critical (misclassification) share grows as precision shrinks
    // (paper: 5% -> 14% -> 20%).
    assert!(fig3.mnist_critical_fraction[0] < fig3.mnist_critical_fraction[2]);
}

#[test]
fn figure4_fpga_double_tolerates_small_errors() {
    let fig4 = study().fig4_fpga_tre();
    let at_01pct = fig4.surviving_at(1e-3);
    // Paper: at 0.1% tolerance double sheds ~63%; half is nearly flat.
    assert!(
        (0.25..0.55).contains(&at_01pct[0]),
        "double survival {at_01pct:?}"
    );
    assert!(at_01pct[2] > 0.85, "half survival {at_01pct:?}");
}

#[test]
fn figure5_fpga_half_wins_mebf_by_about_a_third() {
    let fig5 = study().fig5_fpga_mebf();
    let gain = fig5.mxm_mebf[2] / fig5.mxm_mebf[1] - 1.0;
    // Paper: ~33% more executions between errors than single; accept a
    // generous band (the substrate is a simulator).
    assert!(
        (0.1..1.2).contains(&gain),
        "half-over-single gain {gain:.2}"
    );
}

#[test]
#[ignore = "paper-scale statistics (tens of seconds); opt in with `cargo test -- --ignored`"]
fn figure6_knc_single_precision_pays_in_fit() {
    // DUE events are an order of magnitude rarer than SDCs; use the
    // paper-scale session so the 2x control-bit ratio resolves.
    let fig6 = Study::paper(0xE57).fig6_knc_fit();
    // LavaMD and MxM: single SDC FIT above double, tracking the +33%/+47%
    // register allocations.
    let lava_ratio = fig6.sdc_fit[0][1] / fig6.sdc_fit[0][0];
    let mxm_ratio = fig6.sdc_fit[1][1] / fig6.sdc_fit[1][0];
    assert!((1.1..1.7).contains(&lava_ratio), "LavaMD {lava_ratio:.2}");
    assert!((1.2..1.8).contains(&mxm_ratio), "MxM {mxm_ratio:.2}");
    // DUE doubles with the lane count for all three codes.
    for i in 0..3 {
        let r = fig6.due_fit[i][1] / fig6.due_fit[i][0];
        assert!((1.6..2.5).contains(&r), "bench {i}: DUE ratio {r:.2}");
    }
}

#[test]
fn figure7_pvf_does_not_separate_precisions() {
    let fig7 = study().fig7_knc_pvf();
    for i in 0..3 {
        assert!(fig7.indistinguishable(i), "benchmark {i}");
    }
}

#[test]
fn figure9_knc_mebf_crossover_at_mxm() {
    let fig9 = study().fig9_knc_mebf();
    assert!(fig9.mebf[0][1] > fig9.mebf[0][0], "LavaMD: single wins");
    assert!(fig9.mebf[2][1] > fig9.mebf[2][0], "LUD: single wins");
    assert!(fig9.mebf[1][0] > fig9.mebf[1][1], "MxM: double wins");
}

#[test]
fn figure10_gpu_operation_dependent_trends() {
    let fig10 = study().fig10_gpu_fit();
    let [add, mul, fma] = fig10.micro_sdc;
    assert!(mul[0] > mul[1] && mul[1] > mul[2], "MUL: d>s>h {mul:?}");
    assert!(add[0] < add[1], "ADD inverts {add:?}");
    assert!(
        fma[2] < fma[0] && fma[2] < fma[1],
        "FMA: half lowest {fma:?}"
    );
}

#[test]
fn figure12_avf_isolates_the_double_core() {
    let fig12 = study().fig12_gpu_avf();
    for i in 0..3 {
        let d = fig12.avf[i][0].factor();
        let s = fig12.avf[i][1].factor();
        let h = fig12.avf[i][2].factor();
        assert!(d > s && d > h, "micro {i}: d={d:.3} s={s:.3} h={h:.3}");
        assert!((s - h).abs() < 0.1, "single~half share the FP32 core");
    }
}

#[test]
fn figure13_gpu_reduced_precision_wins_mebf() {
    let fig13 = study().fig13_gpu_mebf();
    // All three micros and both numeric apps gain MEBF monotonically.
    for (name, xs) in ["ADD", "MUL", "FMA", "LavaMD", "MxM"]
        .iter()
        .zip(fig13.mebf.iter())
    {
        assert!(xs[2] > xs[1] && xs[1] > xs[0], "{name}: {xs:?}");
    }
}

#[test]
fn discussion_yolo_half_is_reliable_but_slow() {
    let study = study();
    let fig10 = study.fig10_gpu_fit();
    // Half YOLOv3: clearly the lowest FIT. The quick-scale study has
    // real sampling noise, so accept any clear separation from single.
    assert!(fig10.yolo_sdc[2] < 0.9 * fig10.yolo_sdc[1]);
    // ...but its MEBF gain is eaten by the slower framework path
    // (Table 3: 0.283 s vs 0.079 s).
    let fig13 = study.fig13_gpu_mebf();
    let yolo = fig13.mebf[5];
    assert!(
        yolo[1] > yolo[2],
        "single-precision YOLO wins MEBF {yolo:?}"
    );
}

/// The four tables the TRE curves render (Figs. 4, 8, 11 and the
/// fault-model ablation), pinned as the `fnv1a64` of their text at this
/// quick study's seed: any change to how a curve answers a threshold
/// query that moves a printed digit fails here.
#[test]
fn tre_tables_render_their_pinned_text() {
    let study = study();
    let got = [
        ("fig4_fpga_tre", study.fig4_fpga_tre().to_table()),
        ("fig8_knc_tre", study.fig8_knc_tre().to_table()),
        ("fig11_gpu_tre", study.fig11_gpu_tre().to_table()),
        (
            "ablation_fault_models",
            study.ablation_fault_models().to_table(),
        ),
    ]
    .map(|(name, table)| (name, fnv1a64(table.to_string().as_bytes())));
    let want = [
        ("fig4_fpga_tre", 0xE419_F667_F084_CC9F),
        ("fig8_knc_tre", 0xD8EE_934C_0F0B_3B57),
        ("fig11_gpu_tre", 0xDCF6_DE44_03BA_EFEB),
        ("ablation_fault_models", 0xD1D4_C881_C48E_F6D2),
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
