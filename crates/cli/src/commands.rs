//! Command execution.

use crate::args::{
    duration_of, ChaosOpts, Command, DeviceArg, ModelArg, SamplingOpts, Scale, StudyOpts,
    WorkloadArg,
};
use mpr_core::Study;
use mpr_exp::{
    failure_table, CellKey, CellKind, CellResult, ChaosConfig, ChaosFs, ClassifierId, DeviceId,
    Engine, ExperimentPlan, RealFs, ResultStore, SamplingConfig, SamplingPlan, Vfs, WorkloadId,
};
use mpr_fault::FaultModel;
use mpr_kernels::MicroKernelOp;
use mpr_metrics::sampling::rel_ci_width;
use mpr_metrics::{SeverityHistogram, Table};
use mpr_obs::{JsonlRecorder, Recorder};
use mpr_softfloat::Precision;
use std::sync::Arc;
use std::time::Duration;

/// Runs a parsed command, returning the process exit code.
pub fn run(command: Command) -> i32 {
    if let Some(opts) = command.study_opts() {
        if let Some(code) = resume_preflight(opts) {
            return code;
        }
    }
    match command {
        Command::Help => {
            println!("{}", crate::args::USAGE);
            0
        }
        Command::Tables { opts } => {
            let (study, rec) = study_with_profile(&opts);
            print_tables(&study);
            finish_profile(rec)
        }
        Command::Figures { opts } => {
            let (study, rec) = study_with_profile(&opts);
            print_figures(&study);
            finish_profile(rec)
        }
        Command::Ablations { opts } => {
            let (study, rec) = study_with_profile(&opts);
            print_ablations(&study);
            finish_profile(rec)
        }
        Command::Report { opts } => {
            let (study, rec) = study_with_profile(&opts);
            print_tables(&study);
            print_figures(&study);
            print_ablations(&study);
            let store = study.engine().store();
            println!(
                "experiment cells: {} executed, {} memory hits, {} disk hits, {} quarantined",
                store.executed(),
                store.mem_hits(),
                store.disk_hits(),
                store.quarantined()
            );
            print_convergence(store);
            finish_profile(rec)
        }
        Command::Validate { opts } => {
            let (study, rec) = study_with_profile(&opts);
            let report = study.validate_shapes();
            println!("{}", report.to_table());
            let code = if report.all_passed() { 0 } else { 1 };
            code.max(finish_profile(rec))
        }
        Command::Export { dir, opts } => {
            let (study, rec) = study_with_profile(&opts);
            let code = match study.export_csv(std::path::Path::new(&dir)) {
                Ok(paths) => {
                    println!("wrote {} artifacts to {dir}", paths.len());
                    0
                }
                Err(e) => {
                    eprintln!("export failed: {e}");
                    1
                }
            };
            code.max(finish_profile(rec))
        }
        Command::Campaign {
            device,
            workload,
            precision,
            strikes,
            hours,
            seed,
            threads,
            retries,
            cell_timeout,
            sampling,
        } => run_campaign(
            device,
            workload,
            precision,
            strikes,
            hours,
            sampling_plan(&sampling, Scale::Quick),
            engine_of(seed, threads, retries, cell_timeout),
        ),
        Command::Inject {
            workload,
            precision,
            injections,
            model,
            seed,
            threads,
            retries,
            cell_timeout,
            sampling,
        } => run_inject(
            workload,
            precision,
            injections,
            model,
            sampling_plan(&sampling, Scale::Quick),
            engine_of(seed, threads, retries, cell_timeout),
        ),
        Command::Chaos { opts } => run_chaos(opts),
        Command::Analyze { root } => run_analyze(&root),
    }
}

/// The fixed hostile-run plan: six accumulation cells (GEMM and
/// micro-ADD across the three precisions) — small enough to finish in
/// milliseconds, wide enough to exercise many cache commits.
fn chaos_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    for workload in [WorkloadId::Gemm { dim: 8 }, micro_id(MicroKernelOp::Add)] {
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
            None => println!(
                "resume: no manifest in {} yet; running the full plan",
                dir.display()
            ),
            Some(manifest) => println!(
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
        .with_threads(threads_from_env(opts.threads))
        .with_retries(opts.retries)
        .with_store(store);
    let results = engine.try_run(&chaos_plan());
    let failures: Vec<_> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    let ok = results.len() - failures.len();
    let store = engine.store();
    println!(
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
        println!("{t}");
        println!(
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
        println!("simulated crash reached; rerun with --resume to finish the campaign");
        return 1;
    }
    0
}

fn print_tables(study: &Study) {
    println!("{}", study.table1_fpga_times());
    println!("{}", study.table2_knc_times());
    println!("{}", study.table3_gpu_times());
}

fn print_figures(study: &Study) {
    println!("{}", study.fig2_fpga_resources().to_table());
    println!("{}", study.fig3_fpga_fit().to_table());
    println!("{}", study.fig4_fpga_tre().to_table());
    println!("{}", study.fig5_fpga_mebf().to_table());
    println!("{}", study.fig6_knc_fit().to_table());
    println!("{}", study.fig7_knc_pvf().to_table());
    println!("{}", study.fig8_knc_tre().to_table());
    println!("{}", study.fig9_knc_mebf().to_table());
    println!("{}", study.fig10_gpu_fit().to_table());
    println!("{}", study.fig11_gpu_tre().to_table());
    println!("{}", study.fig12_gpu_avf().to_table());
    println!("{}", study.fig13_gpu_mebf().to_table());
}

fn print_ablations(study: &Study) {
    println!("{}", study.ablation_gpu_ecc().to_table());
    println!("{}", study.ablation_fault_models().to_table());
    println!("{}", study.ablation_fault_accumulation().to_table());
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
        let (budget, executed, width) = match &result {
            CellResult::Beam(r) => (r.candidates, r.executed, r.ci_width()),
            CellResult::Inject(r) => {
                let Some(budget) = inject_budget(&key) else {
                    continue;
                };
                (budget, r.counts.total(), rel_ci_width(r.counts.sdc))
            }
            CellResult::Accumulate(_) => continue,
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
        println!("{t}");
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

/// The strike budget of an injection cell, recovered from its store
/// key: the adaptive `b:` override when present (a reallocation-boosted
/// rerun), otherwise the `n=` request. `None` when the key doesn't
/// carry either token.
fn inject_budget(store_key: &str) -> Option<u64> {
    let field = |marker: &str| -> Option<u64> {
        let rest = store_key.split(marker).nth(1)?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    field(";b:").or_else(|| field("inj:n="))
}

/// Exit 0 on a clean tree, 1 on any finding, 2 when the tree cannot
/// be read.
fn run_analyze(root: &str) -> i32 {
    match mpr_analyze::analyze_workspace(std::path::Path::new(root)) {
        Ok(analysis) => {
            print!("{}", analysis.to_text());
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

/// Resolves the worker-thread budget: the `--threads` flag wins, then
/// the `MPR_THREADS` environment variable, then 0 (all cores).
fn resolve_threads(flag: Option<usize>, env: Option<&str>) -> usize {
    flag.or_else(|| env.and_then(|s| s.trim().parse().ok()))
        .unwrap_or(0)
}

fn threads_from_env(flag: Option<usize>) -> usize {
    resolve_threads(flag, std::env::var("MPR_THREADS").ok().as_deref())
}

/// Resolves the watchdog deadline: the `--cell-timeout` flag wins, then
/// the `MPR_CELL_TIMEOUT` environment variable (same grammar), then no
/// deadline. An unparsable environment value is reported and ignored.
fn resolve_cell_timeout(flag: Option<Duration>, env: Option<&str>) -> Option<Duration> {
    flag.or_else(|| {
        let v = env?.trim();
        match duration_of(v) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("ignoring MPR_CELL_TIMEOUT: {e}");
                None
            }
        }
    })
}

fn cell_timeout_from_env(flag: Option<Duration>) -> Option<Duration> {
    resolve_cell_timeout(flag, std::env::var("MPR_CELL_TIMEOUT").ok().as_deref())
}

/// The engine behind the single-campaign commands, with the
/// fault-tolerance knobs applied.
fn engine_of(
    seed: u64,
    threads: Option<usize>,
    retries: u32,
    cell_timeout: Option<Duration>,
) -> Engine {
    Engine::new(seed)
        .with_threads(threads_from_env(threads))
        .with_retries(retries)
        .with_cell_timeout(cell_timeout_from_env(cell_timeout))
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
        println!(
            "resume: all {} recorded cells completed; cached results will be reused",
            manifest.cells.len()
        );
    } else {
        println!(
            "resume: re-executing {} unfinished of {} recorded cells:",
            unfinished,
            manifest.cells.len()
        );
        for (key, status) in manifest
            .cells
            .iter()
            .filter(|(_, s)| s.state != mpr_exp::CellState::Ok)
        {
            println!("  [{}] {key} ({} attempts)", status.state, status.attempts);
        }
    }
    None
}

/// Builds the strike-sampling plan from the parsed flags: fixed unless
/// `--adaptive`, starting from the scale's CI-width preset and refined
/// by `--ci-width` / `--strike-budget`.
fn sampling_plan(opts: &SamplingOpts, scale: Scale) -> SamplingPlan {
    if !opts.adaptive {
        return SamplingPlan::Fixed;
    }
    let mut config = match scale {
        Scale::Quick => SamplingConfig::quick(),
        Scale::Paper => SamplingConfig::paper(),
    };
    if let Some(w) = opts.ci_width {
        config = config.with_ci_width(w);
    }
    if let Some(b) = opts.strike_budget {
        config = config.with_budget(b);
    }
    SamplingPlan::Adaptive(config)
}

fn study(opts: &StudyOpts) -> Study {
    let mut study = match opts.scale {
        Scale::Quick => Study::quick(2019),
        Scale::Paper => Study::paper(2019),
    }
    .with_sampling(sampling_plan(&opts.sampling, opts.scale))
    .with_threads(threads_from_env(opts.threads))
    .with_retries(opts.retries)
    .with_cell_timeout(cell_timeout_from_env(opts.cell_timeout));
    if let Some(dir) = &opts.cache_dir {
        study = study.with_cache_dir(dir);
    }
    study
}

/// Builds the study and, when `--profile` was given, attaches a JSONL
/// recorder writing to the requested path.
fn study_with_profile(opts: &StudyOpts) -> (Study, Option<Arc<JsonlRecorder>>) {
    let mut study = study(opts);
    let rec = opts
        .profile
        .as_ref()
        .map(|path| Arc::new(JsonlRecorder::to_path(path)));
    if let Some(rec) = &rec {
        study = study.with_recorder(rec.clone() as Arc<dyn Recorder>);
    }
    (study, rec)
}

/// Flushes the profile log (if any) and prints its rendered summary.
/// Returns the exit-code contribution: 0 normally, 1 if the log could
/// not be written back or parsed.
fn finish_profile(rec: Option<Arc<JsonlRecorder>>) -> i32 {
    let Some(rec) = rec else { return 0 };
    rec.flush();
    let Some(path) = rec.path() else { return 0 };
    println!("profile log: {}", path.display());
    if crate::profile::print_profile(path) {
        0
    } else {
        1
    }
}

fn device_id(arg: DeviceArg) -> DeviceId {
    match arg {
        DeviceArg::Gpu => DeviceId::TitanV,
        DeviceArg::GpuEcc => DeviceId::TeslaV100,
        DeviceArg::Knc => DeviceId::Knc3120a,
        DeviceArg::Fpga => DeviceId::Zynq7000,
    }
}

/// The CLI's fixed mid-size workload proxies (between the study's
/// quick and paper scales).
fn workload_id(arg: WorkloadArg) -> WorkloadId {
    match arg {
        WorkloadArg::Mxm => WorkloadId::Gemm { dim: 16 },
        WorkloadArg::Lavamd => WorkloadId::LavaMd {
            boxes: 2,
            particles: 4,
            knc_unit: false,
        },
        WorkloadArg::LavamdKnc => WorkloadId::LavaMd {
            boxes: 2,
            particles: 4,
            knc_unit: true,
        },
        WorkloadArg::Lud => WorkloadId::Lud { dim: 20 },
        WorkloadArg::MicroAdd => micro_id(MicroKernelOp::Add),
        WorkloadArg::MicroMul => micro_id(MicroKernelOp::Mul),
        WorkloadArg::MicroFma => micro_id(MicroKernelOp::Fma),
        WorkloadArg::Mnist => WorkloadId::Mnist { seed: 0x313 },
        WorkloadArg::Yolo => WorkloadId::Yolo,
    }
}

fn micro_id(op: MicroKernelOp) -> WorkloadId {
    WorkloadId::Micro {
        op,
        threads: 32,
        iters: 256,
    }
}

fn classifier_for(workload: &WorkloadId) -> ClassifierId {
    match workload {
        WorkloadId::Mnist { .. } => ClassifierId::MnistLogits,
        WorkloadId::Yolo => ClassifierId::YoloDetections,
        _ => ClassifierId::None,
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

fn run_campaign(
    device_arg: DeviceArg,
    workload_arg: WorkloadArg,
    precision: Precision,
    strikes: u64,
    hours: f64,
    sampling: SamplingPlan,
    engine: Engine,
) -> i32 {
    let key = CellKey {
        device: device_id(device_arg),
        workload: workload_id(workload_arg),
        precision,
        kind: CellKind::Beam {
            hours,
            target_candidates: strikes,
            classifier: classifier_for(&workload_id(workload_arg)),
            sampling,
        },
    };
    if let Some(code) = check_supported(&key) {
        return code;
    }
    let cell = match engine.try_run_one(&key) {
        Ok(cell) => cell,
        Err(failure) => return report_failure(failure),
    };
    let result = cell.beam();

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
        t.row(vec!["executed strikes".into(), result.executed.to_string()]);
        t.row(vec![
            "strikes saved".into(),
            result.strikes_saved().to_string(),
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
    println!("{t}");
    println!("SDC severity distribution (max relative error per event):");
    println!("{}", SeverityHistogram::from_errors(&result.severities));
    0
}

/// Renders a structured failure table on stderr instead of letting a
/// panic backtrace through; exit code 3 distinguishes "the cell failed"
/// from usage (1) and unsupported-configuration (2) errors.
fn report_failure(failure: mpr_exp::CellFailure) -> i32 {
    eprintln!("{}", failure_table(&[failure]));
    3
}

fn run_inject(
    workload_arg: WorkloadArg,
    precision: Precision,
    injections: u64,
    model: ModelArg,
    sampling: SamplingPlan,
    engine: Engine,
) -> i32 {
    let workload = workload_id(workload_arg);
    let model = match model {
        ModelArg::Single => FaultModel::SingleBit,
        ModelArg::Double => FaultModel::DoubleBit,
        ModelArg::Byte => FaultModel::RandomByte,
    };
    // Injection bypasses the device's execution units: the device slot
    // only namespaces the cell (same convention as the study).
    let key = CellKey {
        device: match workload {
            WorkloadId::Micro { .. } | WorkloadId::Yolo => DeviceId::TitanV,
            WorkloadId::Mnist { .. } => DeviceId::Zynq7000,
            _ => DeviceId::Knc3120a,
        },
        workload,
        precision,
        kind: CellKind::Inject {
            injections,
            model,
            live_fraction: 1.0,
            sampling,
        },
    };
    if let Some(code) = check_supported(&key) {
        return code;
    }
    let cell = match engine.try_run_one(&key) {
        Ok(cell) => cell,
        Err(failure) => return report_failure(failure),
    };
    let report = cell.inject();

    let v = report.vulnerability();
    let mut t = Table::new(vec!["quantity", "value"])
        .with_title(format!("{} / {precision} / {model:?}", report.workload));
    t.row(vec!["injections".into(), report.counts.total().to_string()]);
    t.row(vec!["masked".into(), report.counts.masked.to_string()]);
    t.row(vec!["SDC".into(), report.counts.sdc.to_string()]);
    t.row(vec!["vulnerability".into(), v.to_string()]);
    println!("{t}");
    println!("SDC severity distribution:");
    println!("{}", SeverityHistogram::from_errors(&report.severities));
    0
}

#[cfg(test)]
mod tests {
    use super::{cell_label, inject_budget, resolve_threads, run_analyze};

    #[test]
    fn inject_budget_reads_request_and_adaptive_override() {
        let fixed = "seed=00000000000007e3;v2;dev=knc;wl=gemm:12;p=half;\
                     k=inj:n=400,m=sb,lf=3ff0000000000000";
        assert_eq!(inject_budget(fixed), Some(400));
        // The adaptive `b:` override (a reallocation-boosted rerun)
        // wins over the `n=` request; `b:-` means no override.
        let boosted = "seed=00000000000007e3;v2;dev=knc;wl=gemm:12;p=half;\
                       k=inj:n=400,m=sb,lf=3ff0000000000000,\
                       a=w:3fe999999999999a;b:512;s:4;r:32";
        assert_eq!(inject_budget(boosted), Some(512));
        let unboosted = "k=inj:n=400,m=sb,a=w:3fe999999999999a;b:-;s:4;r:32";
        assert_eq!(inject_budget(unboosted), Some(400));
        assert_eq!(inject_budget("k=acc:k=3,t=40"), None);
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
    fn thread_budget_resolution_order() {
        // Flag beats environment beats the all-cores default.
        assert_eq!(resolve_threads(Some(4), Some("8")), 4);
        assert_eq!(resolve_threads(None, Some("8")), 8);
        assert_eq!(resolve_threads(None, Some(" 2 ")), 2);
        assert_eq!(resolve_threads(None, Some("many")), 0);
        assert_eq!(resolve_threads(None, None), 0);
    }

    #[test]
    fn cell_timeout_resolution_order() {
        use super::resolve_cell_timeout;
        use std::time::Duration;
        let flag = Some(Duration::from_secs(9));
        assert_eq!(resolve_cell_timeout(flag, Some("5s")), flag);
        assert_eq!(
            resolve_cell_timeout(None, Some("250ms")),
            Some(Duration::from_millis(250))
        );
        assert_eq!(resolve_cell_timeout(None, Some("forever")), None);
        assert_eq!(resolve_cell_timeout(None, None), None);
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
