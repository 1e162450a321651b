//! Command execution.

use crate::args::{ChaosOpts, Command, StudyOpts, View};
use mpr_core::{Study, StudyScale};
use mpr_exp::{
    failure_table, CellKey, CellKind, CellResult, ChaosConfig, ChaosFs, DeviceId, Engine,
    ExperimentPlan, RealFs, ResultStore, Vfs, WorkloadId,
};
use mpr_fault::{FaultModel, InjectionReport};
use mpr_kernels::MicroKernelOp;
use mpr_metrics::sampling::rel_ci_width;
use mpr_metrics::{SeverityHistogram, Table};
use mpr_obs::{Gauge, JsonlRecorder, Recorder};
use mpr_softfloat::Precision;
use std::io::{ErrorKind, Write};
use std::sync::Arc;

/// Writes command output to stdout; every line a command prints goes
/// through here (the `out!` macro appends the newline). A closed pipe,
/// as in `mpr report | head -1`, is a quiet stop with exit 0: the
/// reader wants no more. Any other write error exits 1 with a message
/// on stderr.
pub fn emit(text: std::fmt::Arguments<'_>) {
    let Err(e) = std::io::stdout().lock().write_fmt(text) else {
        return;
    };
    if e.kind() == ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("mpr: cannot write output: {e}");
    std::process::exit(1);
}

/// Runs a parsed command, returning the process exit code.
pub fn run(command: Command) -> i32 {
    match command {
        Command::Help => {
            out!("{}", crate::args::USAGE);
            0
        }
        Command::Study { view, opts } => run_study(&view, &opts),
        Command::Cell { key, seed, engine } => run_cell(
            key,
            Engine::new(seed)
                .with_threads(engine.threads)
                .with_retries(engine.retries)
                .with_cell_timeout(engine.cell_timeout),
        ),
        Command::Chaos { opts } => run_chaos(opts),
        Command::Analyze { root } => run_analyze(&root),
    }
}

/// Runs the study behind a study subcommand: resume preflight, the
/// study with its profile recorder, the view, then the profile summary.
fn run_study(view: &View, opts: &StudyOpts) -> i32 {
    if let Some(code) = resume_preflight(opts) {
        return code;
    }
    let (study, rec) = study_with_profile(opts);
    let code = match view {
        View::Tables => {
            print_tables(&study);
            0
        }
        View::Figures => {
            print_figures(&study);
            0
        }
        View::Ablations => {
            print_ablations(&study);
            0
        }
        View::Report => {
            print_tables(&study);
            print_figures(&study);
            print_ablations(&study);
            let store = study.engine().store();
            out!(
                "experiment cells: {} executed, {} memory hits, {} disk hits, {} quarantined",
                store.executed(),
                store.mem_hits(),
                store.disk_hits(),
                store.quarantined()
            );
            print_convergence(store);
            0
        }
        View::Validate => {
            let report = study.validate_shapes();
            out!("{}", report.to_table());
            if report.all_passed() {
                0
            } else {
                1
            }
        }
        View::Export { dir } => match study.export_csv(std::path::Path::new(dir)) {
            Ok(paths) => {
                out!("wrote {} artifacts to {dir}", paths.len());
                0
            }
            Err(e) => {
                eprintln!("export failed: {e}");
                1
            }
        },
    };
    code.max(finish_profile(rec))
}

/// The fixed hostile-run plan: six accumulation cells (GEMM and
/// micro-ADD across the three precisions) — small enough to finish in
/// milliseconds, wide enough to exercise many cache commits.
fn chaos_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    let micro_add = WorkloadId::Micro {
        op: MicroKernelOp::Add,
        threads: 32,
        iters: 256,
    };
    for workload in [WorkloadId::Gemm { dim: 8 }, micro_add] {
        for precision in [Precision::Double, Precision::Single, Precision::Half] {
            plan.push(CellKey {
                device: DeviceId::Zynq7000,
                workload,
                precision,
                kind: CellKind::Accumulate {
                    faults: 4,
                    trials: 6,
                },
            });
        }
    }
    plan
}

/// Runs the fixed campaign against a (possibly hostile) filesystem and
/// reports the chaos ledger. Exit codes: 0 clean, 1 the simulated
/// crash point was reached (rerun with `--resume`), 3 cell failures.
fn run_chaos(opts: ChaosOpts) -> i32 {
    let dir = std::path::Path::new(&opts.cache_dir);
    if opts.resume {
        // Informational only: a hostile run may have "crashed" before
        // the manifest ever committed, so a missing ledger just means
        // the whole plan runs (the cache decides what re-executes).
        match mpr_exp::Manifest::load(dir) {
            None => out!(
                "resume: no manifest in {} yet; running the full plan",
                dir.display()
            ),
            Some(manifest) => out!(
                "resume: manifest records {} cells, {} unfinished",
                manifest.cells.len(),
                manifest.unfinished().len()
            ),
        }
    }
    let hostile = opts.rate > 0.0 || opts.crash_at.is_some();
    let chaos = hostile.then(|| {
        Arc::new(ChaosFs::new(ChaosConfig {
            seed: opts.seed,
            rate: opts.rate,
            crash_at: opts.crash_at,
        }))
    });
    let vfs: Arc<dyn Vfs> = match &chaos {
        Some(c) => c.clone(),
        None => Arc::new(RealFs),
    };
    let store = Arc::new(ResultStore::with_cache_dir_on(dir, vfs));
    let engine = Engine::new(2019)
        .with_threads(opts.threads)
        .with_retries(opts.retries)
        .with_store(store);
    let results = engine.try_run(&chaos_plan());
    let failures: Vec<_> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    let ok = results.len() - failures.len();
    let store = engine.store();
    out!(
        "cells: {ok} ok, {} failed ({} executed, {} memory hits, {} disk hits, {} quarantined)",
        failures.len(),
        store.executed(),
        store.mem_hits(),
        store.disk_hits(),
        store.quarantined()
    );
    let mut crashed = false;
    if let Some(chaos) = &chaos {
        let stats = chaos.stats();
        crashed = stats.crashed;
        let mut t = Table::new(vec!["quantity", "value"]).with_title(format!(
            "chaos ledger (seed {}, rate {}, crash-at {})",
            opts.seed,
            opts.rate,
            opts.crash_at
                .map_or_else(|| "off".to_string(), |k| k.to_string())
        ));
        t.row(vec!["filesystem ops".into(), stats.ops.to_string()]);
        t.row(vec!["survived clean".into(), stats.survived.to_string()]);
        for (kind, n) in &stats.injected {
            if *n > 0 {
                t.row(vec![format!("injected {kind}"), n.to_string()]);
            }
        }
        t.row(vec![
            "crash point reached".into(),
            if crashed { "yes".into() } else { "no".into() },
        ]);
        out!("{t}");
        out!(
            "chaos: ops={} injected={} survived={} crashed={}",
            stats.ops,
            stats.injected_total(),
            stats.survived,
            if crashed { "yes" } else { "no" }
        );
    }
    if !failures.is_empty() {
        eprintln!("{}", failure_table(&failures));
        return 3;
    }
    if crashed {
        out!("simulated crash reached; rerun with --resume to finish the campaign");
        return 1;
    }
    0
}

fn print_tables(study: &Study) {
    out!("{}", study.table1_fpga_times());
    out!("{}", study.table2_knc_times());
    out!("{}", study.table3_gpu_times());
}

fn print_figures(study: &Study) {
    out!("{}", study.fig2_fpga_resources().to_table());
    out!("{}", study.fig3_fpga_fit().to_table());
    out!("{}", study.fig4_fpga_tre().to_table());
    out!("{}", study.fig5_fpga_mebf().to_table());
    out!("{}", study.fig6_knc_fit().to_table());
    out!("{}", study.fig7_knc_pvf().to_table());
    out!("{}", study.fig8_knc_tre().to_table());
    out!("{}", study.fig9_knc_mebf().to_table());
    out!("{}", study.fig10_gpu_fit().to_table());
    out!("{}", study.fig11_gpu_tre().to_table());
    out!("{}", study.fig12_gpu_avf().to_table());
    out!("{}", study.fig13_gpu_mebf().to_table());
}

fn print_ablations(study: &Study) {
    out!("{}", study.ablation_gpu_ecc().to_table());
    out!("{}", study.ablation_fault_models().to_table());
    out!("{}", study.ablation_fault_accumulation().to_table());
}

/// Per-cell convergence: strikes executed against the fixed budget and
/// the relative CI width each campaign landed on. Accumulation cells
/// have no strike budget and are skipped; all-fixed studies still list
/// their cells (executed == budget, saved == 0) so the table doubles
/// as an execution ledger.
fn print_convergence(store: &ResultStore) {
    let mut t = Table::new(vec!["cell", "budget", "executed", "saved", "ci width"])
        .with_title("per-cell convergence".to_string());
    let mut rows = 0u32;
    for (key, result) in store.snapshot() {
        let Some((budget, executed, width)) = convergence(&key, &result) else {
            continue;
        };
        t.row(vec![
            cell_label(&key),
            budget.to_string(),
            executed.to_string(),
            budget.saturating_sub(executed).to_string(),
            if width.is_finite() {
                format!("{width:.3}")
            } else {
                "inf".to_string()
            },
        ]);
        rows += 1;
    }
    if rows > 0 {
        out!("{t}");
    }
}

/// A store key shortened for table display: the per-run `seed=` and
/// schema-version prefixes are dropped, the device/workload/precision/
/// kind tokens kept verbatim.
fn cell_label(store_key: &str) -> String {
    store_key
        .splitn(3, ';')
        .nth(2)
        .unwrap_or(store_key)
        .to_string()
}

/// A campaign cell's strike budget, executed strikes and SDC CI width.
/// The budget is the one the sampling planner ran with: the adaptive
/// `b:` override when the key carries one (a reallocation-boosted rerun
/// or `--strike-budget`), otherwise the cell's default, which is a beam
/// cell's candidate count and an injection cell's `n=` request. `None`
/// for accumulation cells, which have no strike budget.
fn convergence(key: &str, result: &CellResult) -> Option<(u64, u64, f64)> {
    let field = |marker: &str| -> Option<u64> {
        let rest = key.split(marker).nth(1)?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    let (default, executed, width) = match result {
        CellResult::Beam(r) => (Some(r.candidates), r.executed, r.ci_width()),
        CellResult::Inject(r) => (
            field("inj:n="),
            r.counts.total(),
            rel_ci_width(r.counts.sdc),
        ),
        CellResult::Accumulate(_) => return None,
    };
    Some((field(";b:").or(default)?, executed, width))
}

/// Exit 0 on a clean tree, 1 on any finding, 2 when the tree cannot
/// be read.
fn run_analyze(root: &str) -> i32 {
    match mpr_analyze::analyze_workspace(std::path::Path::new(root)) {
        Ok(analysis) => {
            emit(format_args!("{}", analysis.to_text()));
            if analysis.clean() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("analyze failed: {e}");
            2
        }
    }
}

/// Handles `--resume` before any cells run: names the subset the run
/// will re-execute, or exits 2 when the cache has no manifest yet.
fn resume_preflight(opts: &StudyOpts) -> Option<i32> {
    if !opts.resume {
        return None;
    }
    // The parser guarantees `--resume` comes with `--cache-dir`.
    let dir = std::path::Path::new(opts.cache_dir.as_deref()?);
    let Some(manifest) = mpr_exp::Manifest::load(dir) else {
        eprintln!(
            "nothing to resume: no campaign manifest in {} (run once with --cache-dir first)",
            dir.display()
        );
        return Some(2);
    };
    let unfinished = manifest.unfinished().len();
    if unfinished == 0 {
        out!(
            "resume: all {} recorded cells completed; cached results will be reused",
            manifest.cells.len()
        );
    } else {
        out!(
            "resume: re-executing {} unfinished of {} recorded cells:",
            unfinished,
            manifest.cells.len()
        );
        for (key, status) in manifest
            .cells
            .iter()
            .filter(|(_, s)| s.state != mpr_exp::CellState::Ok)
        {
            out!("  [{}] {key} ({} attempts)", status.state, status.attempts);
        }
    }
    None
}

/// Builds the study from its options and, when `--profile` was given,
/// attaches a JSONL recorder writing to the requested path.
fn study_with_profile(opts: &StudyOpts) -> (Study, Option<Arc<JsonlRecorder>>) {
    let mut study = match opts.scale {
        StudyScale::Quick => Study::quick(2019),
        StudyScale::Paper => Study::paper(2019),
    }
    .with_sampling(opts.sampling)
    .with_threads(opts.engine.threads)
    .with_retries(opts.engine.retries)
    .with_cell_timeout(opts.engine.cell_timeout);
    if let Some(dir) = &opts.cache_dir {
        study = study.with_cache_dir(dir);
    }
    let rec = opts
        .profile
        .as_ref()
        .map(|path| Arc::new(JsonlRecorder::to_path(path)));
    if let Some(rec) = &rec {
        study = study.with_recorder(rec.clone() as Arc<dyn Recorder>);
    }
    (study, rec)
}

/// Records the process's peak RSS, flushes the profile log (if any)
/// and prints its rendered summary. Returns the exit-code
/// contribution: 0 normally, 1 if the log could not be written back or
/// parsed.
fn finish_profile(rec: Option<Arc<JsonlRecorder>>) -> i32 {
    let Some(rec) = rec else { return 0 };
    if let Some(mb) = crate::profile::peak_rss_mb() {
        Gauge::new(&*rec, crate::profile::PEAK_RSS, "").set(mb);
    }
    rec.flush();
    let Some(path) = rec.path() else { return 0 };
    out!("profile log: {}", path.display());
    if crate::profile::print_profile(path) {
        0
    } else {
        1
    }
}

/// Checks precision support with distinct messages for the device and
/// the workload; returns the exit code on failure.
fn check_supported(key: &CellKey) -> Option<i32> {
    let device = key.device.build();
    let workload = key.workload.build();
    if matches!(key.kind, CellKind::Beam { .. }) && !device.supports(key.precision) {
        eprintln!(
            "{} has no {}-precision hardware",
            device.name(),
            key.precision
        );
        return Some(2);
    }
    if !workload.supports(key.precision) {
        eprintln!(
            "{} has no {}-precision implementation",
            workload.name(),
            key.precision
        );
        return Some(2);
    }
    None
}

/// Runs the one cell behind `campaign` / `inject` and prints its
/// report. Exit code 3 renders the structured failure table on stderr
/// instead of a panic backtrace, distinguishing "the cell failed" from
/// usage (1) and unsupported-configuration (2) errors.
fn run_cell(key: CellKey, engine: Engine) -> i32 {
    if let Some(code) = check_supported(&key) {
        return code;
    }
    let cell = match engine.try_run_one(&key) {
        Ok(cell) => cell,
        Err(failure) => {
            eprintln!("{}", failure_table(&[failure]));
            return 3;
        }
    };
    match key.kind {
        CellKind::Inject { model, .. } => print_inject(cell.inject(), key.precision, model),
        _ => print_beam(&key, &cell),
    }
    0
}

fn print_beam(key: &CellKey, cell: &CellResult) {
    let result = cell.beam();
    let precision = key.precision;
    let mut t = Table::new(vec!["quantity", "value"]).with_title(format!(
        "{} / {} / {precision}",
        result.device, result.workload
    ));
    t.row(vec![
        "exec time".into(),
        format!("{:.3} s", result.exec_time_s),
    ]);
    t.row(vec!["runs".into(), format!("{:.0}", result.runs)]);
    t.row(vec![
        "compute strikes".into(),
        result.candidates.to_string(),
    ]);
    if result.executed != result.candidates {
        let budget = convergence(&key.canonical(), cell).map_or(result.candidates, |(b, ..)| b);
        t.row(vec!["executed strikes".into(), result.executed.to_string()]);
        t.row(vec![
            "strikes saved".into(),
            budget.saturating_sub(result.executed).to_string(),
        ]);
    }
    t.row(vec!["SDC events".into(), result.sdc.events().to_string()]);
    t.row(vec!["DUE events".into(), result.due.events().to_string()]);
    t.row(vec![
        "SDC FIT".into(),
        format!("{:.3e} a.u.", result.fit_sdc().au()),
    ]);
    t.row(vec![
        "DUE FIT".into(),
        format!("{:.3e} a.u.", result.fit_due().au()),
    ]);
    t.row(vec![
        "MEBF".into(),
        format!("{:.3e} a.u.", result.mebf().executions()),
    ]);
    let curve = result.tre_curve();
    t.row(vec![
        "tolerable @0.1%".into(),
        format!("{:.1}%", curve.tolerable_fraction(1e-3) * 100.0),
    ]);
    t.row(vec![
        "tolerable @1%".into(),
        format!("{:.1}%", curve.tolerable_fraction(1e-2) * 100.0),
    ]);
    out!("{t}");
    out!("SDC severity distribution (max relative error per event):");
    out!("{}", SeverityHistogram::from_errors(&result.severities));
}

fn print_inject(report: &InjectionReport, precision: Precision, model: FaultModel) {
    let v = report.vulnerability();
    let mut t = Table::new(vec!["quantity", "value"])
        .with_title(format!("{} / {precision} / {model:?}", report.workload));
    t.row(vec!["injections".into(), report.counts.total().to_string()]);
    t.row(vec!["masked".into(), report.counts.masked.to_string()]);
    t.row(vec!["SDC".into(), report.counts.sdc.to_string()]);
    t.row(vec!["vulnerability".into(), v.to_string()]);
    out!("{t}");
    out!("SDC severity distribution:");
    out!("{}", SeverityHistogram::from_errors(&report.severities));
}

#[cfg(test)]
mod tests {
    use super::{cell_label, convergence, run_analyze};
    use mpr_beam::CampaignResult;
    use mpr_exp::{
        AccumulateOutcome, CellKey, CellKind, CellResult, ClassifierId, DeviceId, Engine,
        ExperimentPlan, ResultStore, SamplingConfig, SamplingPlan, WorkloadId,
    };
    use mpr_fault::{FaultModel, InjectionReport};
    use mpr_metrics::{CrossSection, OutcomeCounts};
    use mpr_softfloat::Precision;
    use std::sync::Arc;

    fn budget(key: &str, result: &CellResult) -> Option<u64> {
        convergence(key, result).map(|(budget, ..)| budget)
    }

    #[test]
    fn strike_budget_reads_request_and_adaptive_override() {
        let inject = CellResult::Inject(Arc::new(InjectionReport {
            workload: "gemm".to_string(),
            precision: Precision::Half,
            counts: OutcomeCounts {
                masked: 1,
                sdc: 63,
                due: 0,
            },
            severities: vec![1.0; 63],
        }));
        let fixed = "seed=00000000000007e3;v2;dev=knc;wl=gemm:12;p=half;\
                     k=inj:n=400,m=sb,lf=3ff0000000000000";
        assert_eq!(budget(fixed, &inject), Some(400));
        // The adaptive `b:` override (a reallocation-boosted rerun)
        // wins over the `n=` request; `b:-` means no override.
        let boosted = "seed=00000000000007e3;v2;dev=knc;wl=gemm:12;p=half;\
                       k=inj:n=400,m=sb,lf=3ff0000000000000,\
                       a=w:3fe999999999999a;b:512;s:4;r:32";
        assert_eq!(budget(boosted, &inject), Some(512));
        let unboosted = "k=inj:n=400,m=sb,a=w:3fe999999999999a;b:-;s:4;r:32";
        assert_eq!(budget(unboosted, &inject), Some(400));
        let accumulate = CellResult::Accumulate(AccumulateOutcome {
            sdc_probability: 0.5,
            corruption_extent: 0.1,
            trials: 40,
        });
        assert_eq!(budget("k=acc:k=3,t=40", &accumulate), None);

        // A beam cell's default budget is its candidate count; the
        // override wins there too.
        let beam = CellResult::Beam(Arc::new(CampaignResult {
            device: "Titan V".to_string(),
            workload: "gemm".to_string(),
            precision: Precision::Half,
            exec_time_s: 1.0,
            runs: 10.0,
            fluence: 1.0,
            candidates: 236,
            executed: 288,
            sdc: CrossSection::new(3, 1.0),
            due: CrossSection::new(0, 1.0),
            severities: vec![1.0; 3],
            labels: Vec::new(),
        }));
        assert_eq!(budget("k=beam:h=4,t=150;b:-;s:4;r:32", &beam), Some(236));
        assert_eq!(budget("k=beam:h=4,t=150;b:928;s:4;r:32", &beam), Some(928));
    }

    #[test]
    fn a_boosted_beam_row_reports_its_own_budget() {
        // A converged injection cell donates its spare strikes; the
        // unconverged beam cell reruns under a boosted `b:` budget,
        // which its convergence row must report rather than the
        // session's candidate count.
        let config = SamplingConfig::quick().with_ci_width(0.3);
        let rich = CellKey::inject(
            WorkloadId::Gemm { dim: 10 },
            Precision::Single,
            600,
            FaultModel::SingleBit,
            1.0,
            SamplingPlan::Adaptive(config),
        );
        let noisy = CellKey {
            device: DeviceId::Zynq7000,
            workload: WorkloadId::Gemm { dim: 8 },
            precision: Precision::Half,
            kind: CellKind::Beam {
                hours: 4.0,
                target_candidates: 150,
                classifier: ClassifierId::None,
                sampling: SamplingPlan::Adaptive(config),
            },
        };
        let store = Arc::new(ResultStore::in_memory());
        let engine = Engine::new(99).with_threads(2).with_store(store.clone());
        let mut plan = ExperimentPlan::new();
        plan.push(rich);
        plan.push(noisy);
        engine.run(&plan);
        let boosted: Vec<(String, CellResult)> = store
            .snapshot()
            .into_iter()
            .filter(|(key, _)| key.contains("k=beam") && !key.contains(";b:-"))
            .collect();
        assert_eq!(boosted.len(), 1, "one boosted beam cell");
        let (key, result) = &boosted[0];
        let b: u64 = key
            .split(";b:")
            .nth(1)
            .and_then(|rest| rest.split(';').next())
            .and_then(|digits| digits.parse().ok())
            .expect("a `b:` budget");
        let (budget, executed, _) = convergence(key, result).expect("a beam row");
        assert_eq!(budget, b, "{key}");
        assert_ne!(budget, result.beam().candidates, "{key}");
        assert!(executed <= budget, "executed {executed} of {budget}");
    }

    #[test]
    fn cell_label_strips_seed_and_version_prefixes() {
        let key = "seed=00000000000007e3;v2;dev=knc;wl=gemm:12;p=half;k=inj:n=400";
        assert_eq!(cell_label(key), "dev=knc;wl=gemm:12;p=half;k=inj:n=400");
        assert_eq!(cell_label("no-prefix"), "no-prefix");
    }

    fn temp_tree(tag: &str, rel: &str, source: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpr_cli_{tag}_{}", std::process::id()));
        let file = dir.join(rel);
        std::fs::create_dir_all(file.parent().expect("parent")).expect("temp tree");
        std::fs::write(&file, source).expect("write source");
        dir
    }

    #[test]
    fn analyze_exits_zero_on_clean_tree() {
        let dir = temp_tree("clean", "crates/kernels/src/lib.rs", "//! Clean.\n");
        assert_eq!(run_analyze(dir.to_str().expect("utf-8 path")), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_exits_nonzero_on_leaky_tree() {
        let src = "//! Leaky.\nfn gain<F: FloatExt>() -> F {\n    F::one() * 0.5\n}\n";
        let dir = temp_tree("bad", "crates/kernels/src/lib.rs", src);
        assert_eq!(run_analyze(dir.to_str().expect("utf-8 path")), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_exits_two_on_missing_root() {
        assert_eq!(run_analyze("/nonexistent/mpr-root"), 2);
    }

    #[test]
    fn analyze_exits_nonzero_on_a_stale_pragma() {
        // A stale allow is the tree's only finding, and it fails the
        // gate like any other.
        let src = "//! Stale.\n// mpr-allow: fault-site -- nothing below computes\nfn f() {}\n";
        let dir = temp_tree("stale", "crates/kernels/src/lib.rs", src);
        let analysis = mpr_analyze::analyze_workspace(&dir).expect("scan succeeds");
        let ids: Vec<&str> = analysis.findings.iter().map(|f| f.lint.as_str()).collect();
        assert_eq!(ids, ["AH003"]);
        assert_eq!(run_analyze(dir.to_str().expect("utf-8 path")), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_manifest_exits_two() {
        use super::resume_preflight;
        use crate::args::StudyOpts;
        let dir = std::env::temp_dir().join(format!("mpr_cli_resume_{}", std::process::id()));
        let opts = StudyOpts {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            resume: true,
            ..StudyOpts::default()
        };
        assert_eq!(resume_preflight(&opts), Some(2));
        assert_eq!(
            resume_preflight(&StudyOpts::default()),
            None,
            "no --resume, no preflight"
        );
    }
}
