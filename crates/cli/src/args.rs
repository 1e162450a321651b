//! Hand-rolled argument parsing (the workspace carries no CLI
//! dependency; the grammar is small and fully tested below).

use mpr_core::StudyScale;
use mpr_exp::{DeviceId, WorkloadId};
use mpr_fault::FaultModel;
use mpr_kernels::MicroKernelOp;
use mpr_softfloat::Precision;
use std::fmt;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print Tables 1-3.
    Tables { opts: StudyOpts },
    /// Print every figure (2-13).
    Figures { opts: StudyOpts },
    /// Print the ablations.
    Ablations { opts: StudyOpts },
    /// Print the whole report: tables, figures, ablations, and the
    /// engine's cell statistics.
    Report { opts: StudyOpts },
    /// Export all artifacts as CSV.
    Export { dir: String, opts: StudyOpts },
    /// Run the executable shape validation.
    Validate { opts: StudyOpts },
    /// Run one beam campaign.
    Campaign {
        device: DeviceId,
        workload: WorkloadId,
        precision: Precision,
        strikes: u64,
        hours: f64,
        seed: u64,
        threads: usize,
        retries: u32,
        cell_timeout: Option<Duration>,
        sampling: SamplingOpts,
    },
    /// Run one injection campaign.
    Inject {
        workload: WorkloadId,
        precision: Precision,
        injections: u64,
        model: FaultModel,
        seed: u64,
        threads: usize,
        retries: u32,
        cell_timeout: Option<Duration>,
        sampling: SamplingOpts,
    },
    /// Run a hostile persistence exercise: a small fixed campaign whose
    /// cache and manifest I/O routes through the seeded chaos
    /// filesystem, then report the injected-fault ledger.
    Chaos {
        /// Chaos options.
        opts: ChaosOpts,
    },
    /// Run the workspace static-analysis lints; any finding fails.
    Analyze {
        /// Workspace root to scan (defaults to the current directory).
        root: String,
    },
    /// Print usage.
    Help,
}

impl Command {
    /// The shared study options, for commands that carry them.
    pub fn study_opts(&self) -> Option<&StudyOpts> {
        match self {
            Command::Tables { opts }
            | Command::Figures { opts }
            | Command::Ablations { opts }
            | Command::Report { opts }
            | Command::Validate { opts }
            | Command::Export { opts, .. } => Some(opts),
            _ => None,
        }
    }
}

/// Adaptive strike-sampling options, shared by the study subcommands
/// and the one-off `campaign`/`inject` commands.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingOpts {
    /// `--adaptive`: stratified Neyman allocation with sequential early
    /// stopping; the strike/injection count becomes a budget ceiling.
    pub adaptive: bool,
    /// `--ci-width W`: target relative width of the SDC-count 95% CI at
    /// which a cell stops early (defaults to the scale's preset:
    /// 0.8 quick, 0.25 paper). Requires `--adaptive`.
    pub ci_width: Option<f64>,
    /// `--strike-budget N`: per-cell strike ceiling override (defaults
    /// to the fixed-path budget). Requires `--adaptive`.
    pub strike_budget: Option<u64>,
}

/// Options shared by every study-backed subcommand (tables, figures,
/// ablations, report, export, validate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StudyOpts {
    /// Statistical scale.
    pub scale: StudyScale,
    /// `--threads N`: worker-thread budget (0, the default, uses every
    /// available core).
    pub threads: usize,
    /// `--cache-dir PATH`: on-disk experiment-cell cache.
    pub cache_dir: Option<String>,
    /// `--profile PATH`: write a JSONL observability log of the run and
    /// print a profile summary afterwards.
    pub profile: Option<String>,
    /// `--retries N`: re-attempt a failed or hung cell up to N times
    /// with its seed unchanged.
    pub retries: u32,
    /// `--cell-timeout DUR`: per-cell watchdog deadline (`None`, the
    /// default, arms none).
    pub cell_timeout: Option<Duration>,
    /// `--resume`: re-execute only the cells the cache directory's
    /// manifest records as failed, hung, or missing. Requires
    /// `--cache-dir`.
    pub resume: bool,
    /// Adaptive-sampling flags (`--adaptive`, `--ci-width`,
    /// `--strike-budget`).
    pub sampling: SamplingOpts,
}

/// Options for the `chaos` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOpts {
    /// `--cache-dir PATH` (required): the directory the hostile run
    /// persists into and resumes from.
    pub cache_dir: String,
    /// `--chaos-seed S`: seeds the fault schedule; the same seed
    /// replays the same faults (default 2019).
    pub seed: u64,
    /// `--chaos-rate R`: per-operation fault probability in `[0, 1]`
    /// (default 0: the chaos layer observes but never injects).
    pub rate: f64,
    /// `--chaos-crash-at K`: simulate a hard crash at the K-th
    /// filesystem operation (fail-stop; every later operation errors).
    pub crash_at: Option<u64>,
    /// `--threads N` (0 = every available core).
    pub threads: usize,
    /// `--retries N`: per-cell retry budget against injected faults.
    pub retries: u32,
    /// `--resume`: report what the manifest says survived, then run
    /// only the missing subset.
    pub resume: bool,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
mpr — mixed-precision reliability study

USAGE:
    mpr tables    [STUDY OPTS]
    mpr figures   [STUDY OPTS]
    mpr ablations [STUDY OPTS]
    mpr report    [STUDY OPTS]
    mpr validate  [STUDY OPTS]
    mpr export    --dir <PATH> [STUDY OPTS]
    mpr campaign  --device <gpu|gpu-ecc|knc|fpga> --workload <WORKLOAD>
                  --precision <double|single|half>
                  [--strikes N] [--hours H] [--seed S] [--threads N]
                  [--retries N] [--cell-timeout DUR]
                  [--adaptive] [--ci-width W] [--strike-budget N]
    mpr inject    --workload <WORKLOAD> --precision <double|single|half>
                  [--n N] [--model single|double|byte] [--seed S] [--threads N]
                  [--retries N] [--cell-timeout DUR]
                  [--adaptive] [--ci-width W] [--strike-budget N]
    mpr chaos     --cache-dir <PATH> [--chaos-seed S] [--chaos-rate R]
                  [--chaos-crash-at K] [--threads N] [--retries N] [--resume]
    mpr analyze   [--root <PATH>]
    mpr help

CHAOS OPTS:
    --chaos-seed S     seed for the deterministic fault schedule; the
                       same seed replays the same faults (default 2019)
    --chaos-rate R     per-operation fault probability in [0, 1]
                       (default 0 — observe I/O, inject nothing)
    --chaos-crash-at K simulate a hard crash at filesystem op K; rerun
                       with --resume to finish the interrupted campaign

STUDY OPTS:
    --paper            paper-scale statistics (default: quick)
    --threads N        worker threads (default: all cores)
    --cache-dir PATH   reuse cached experiment cells across runs
    --profile PATH     write a JSONL observability log and print a
                       profile summary (per-cell timings, cache hits)
    --retries N        re-attempt a failed or hung cell up to N times
                       (same seed; a recovered cell is byte-identical)
    --cell-timeout DUR per-cell watchdog deadline, e.g. 5s, 500ms, 2.5
                       (bare numbers are seconds; default: no deadline)
    --resume           re-execute only the cells the cache manifest
                       records as failed/hung/missing (needs --cache-dir)
    --adaptive         adaptive strike sampling: stratified Neyman
                       allocation with sequential early stopping; the
                       fixed budget becomes a ceiling and converged
                       cells donate spare strikes to noisy ones
    --ci-width W       stop a cell once the relative width of its SDC
                       95% CI falls below W (default: 0.8 quick, 0.25
                       paper; needs --adaptive)
    --strike-budget N  per-cell strike ceiling override (needs
                       --adaptive)

WORKLOAD: mxm | lavamd | lavamd-knc | lud | micro-add | micro-mul |
          micro-fma | mnist | yolo
";

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| ParseError(USAGE.to_string()))?;
    let rest: Vec<&str> = it.collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tables" => Ok(Command::Tables {
            opts: study_opts(&rest, false)?,
        }),
        "figures" => Ok(Command::Figures {
            opts: study_opts(&rest, false)?,
        }),
        "ablations" => Ok(Command::Ablations {
            opts: study_opts(&rest, false)?,
        }),
        "report" => Ok(Command::Report {
            opts: study_opts(&rest, false)?,
        }),
        "validate" => Ok(Command::Validate {
            opts: study_opts(&rest, false)?,
        }),
        "export" => Ok(Command::Export {
            dir: required(&rest, "--dir")?.to_string(),
            opts: study_opts(&rest, true)?,
        }),
        "campaign" => Ok(Command::Campaign {
            device: device_of(required(&rest, "--device")?)?,
            workload: workload_of(required(&rest, "--workload")?)?,
            precision: precision_of(required(&rest, "--precision")?)?,
            strikes: positive(&rest, "--strikes", 2000)?,
            hours: float(&rest, "--hours", 100.0)?,
            seed: numeric(&rest, "--seed", 0)?,
            threads: threads_of(&rest)?,
            retries: retries_of(&rest)?,
            cell_timeout: cell_timeout_of(&rest)?,
            sampling: sampling_of(&rest)?,
        }),
        "inject" => Ok(Command::Inject {
            workload: workload_of(required(&rest, "--workload")?)?,
            precision: precision_of(required(&rest, "--precision")?)?,
            injections: numeric(&rest, "--n", 2000)?,
            model: model_of(optional(&rest, "--model").unwrap_or("single"))?,
            seed: numeric(&rest, "--seed", 0)?,
            threads: threads_of(&rest)?,
            retries: retries_of(&rest)?,
            cell_timeout: cell_timeout_of(&rest)?,
            sampling: sampling_of(&rest)?,
        }),
        "chaos" => {
            const KNOWN: [&str; 7] = [
                "--cache-dir",
                "--chaos-seed",
                "--chaos-rate",
                "--chaos-crash-at",
                "--threads",
                "--retries",
                "--resume",
            ];
            if let Some(&bad) = rest
                .iter()
                .find(|&&a| a.starts_with("--") && !KNOWN.contains(&a))
            {
                return Err(ParseError(format!("unknown flag `{bad}`\n\n{USAGE}")));
            }
            Ok(Command::Chaos {
                opts: ChaosOpts {
                    cache_dir: required(&rest, "--cache-dir")?.to_string(),
                    seed: numeric(&rest, "--chaos-seed", 2019)?,
                    rate: chaos_rate_of(&rest)?,
                    crash_at: crash_at_of(&rest)?,
                    threads: threads_of(&rest)?,
                    retries: retries_of(&rest)?,
                    resume: rest.contains(&"--resume"),
                },
            })
        }
        "analyze" => {
            if let Some(&bad) = rest.iter().find(|&&a| a.starts_with("--") && a != "--root") {
                return Err(ParseError(format!("unknown flag `{bad}`")));
            }
            let root = match optional(&rest, "--root") {
                Some(root) => root,
                None if rest.contains(&"--root") => {
                    return Err(ParseError("`--root` expects a path".to_string()))
                }
                None => ".",
            };
            Ok(Command::Analyze {
                root: root.to_string(),
            })
        }
        other => Err(ParseError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// Parses the shared study options, rejecting unknown flags. `allow_dir`
/// tolerates `export`'s `--dir <path>` value pair.
fn study_opts(rest: &[&str], allow_dir: bool) -> Result<StudyOpts, ParseError> {
    let mut opts = StudyOpts::default();
    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "--paper" => {
                opts.scale = StudyScale::Paper;
                i += 1;
            }
            "--threads" => {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError("`--threads` expects a value".to_string()))?;
                opts.threads = v.parse().map_err(|_| {
                    ParseError(format!("`--threads` expects an integer, got `{v}`"))
                })?;
                i += 2;
            }
            "--cache-dir" => {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError("`--cache-dir` expects a path".to_string()))?;
                opts.cache_dir = Some(v.to_string());
                i += 2;
            }
            "--profile" => {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError("`--profile` expects a path".to_string()))?;
                opts.profile = Some(v.to_string());
                i += 2;
            }
            "--retries" => {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError("`--retries` expects a count".to_string()))?;
                opts.retries = v.parse().map_err(|_| {
                    ParseError(format!("`--retries` expects an integer, got `{v}`"))
                })?;
                i += 2;
            }
            "--cell-timeout" => {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError("`--cell-timeout` expects a duration".to_string()))?;
                opts.cell_timeout = Some(duration_of(v)?);
                i += 2;
            }
            "--resume" => {
                opts.resume = true;
                i += 1;
            }
            "--adaptive" => i += 1,
            "--ci-width" | "--strike-budget" => i += 2,
            "--dir" if allow_dir => i += 2,
            other => return Err(ParseError(format!("unknown flag `{other}`\n\n{USAGE}"))),
        }
    }
    if opts.resume && opts.cache_dir.is_none() {
        return Err(ParseError(
            "`--resume` needs `--cache-dir` (the manifest lives there)".to_string(),
        ));
    }
    opts.sampling = sampling_of(rest)?;
    Ok(opts)
}

/// Parses the adaptive-sampling flags (study and campaign/inject).
fn sampling_of(rest: &[&str]) -> Result<SamplingOpts, ParseError> {
    let adaptive = rest.contains(&"--adaptive");
    let ci_width = match optional(rest, "--ci-width") {
        None => {
            if rest.contains(&"--ci-width") {
                return Err(ParseError("`--ci-width` expects a value".to_string()));
            }
            None
        }
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| {
                    ParseError(format!("`--ci-width` expects a positive number, got `{v}`"))
                })?,
        ),
    };
    let strike_budget =
        match optional(rest, "--strike-budget") {
            None => {
                if rest.contains(&"--strike-budget") {
                    return Err(ParseError("`--strike-budget` expects a count".to_string()));
                }
                None
            }
            Some(v) => Some(v.parse().map_err(|_| {
                ParseError(format!("`--strike-budget` expects an integer, got `{v}`"))
            })?),
        };
    if !adaptive && (ci_width.is_some() || strike_budget.is_some()) {
        return Err(ParseError(
            "`--ci-width` and `--strike-budget` need `--adaptive`".to_string(),
        ));
    }
    Ok(SamplingOpts {
        adaptive,
        ci_width,
        strike_budget,
    })
}

/// Parses an optional `--threads N` flag (campaign/inject/chaos).
fn threads_of(rest: &[&str]) -> Result<usize, ParseError> {
    match optional(rest, "--threads") {
        None => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("`--threads` expects an integer, got `{v}`"))),
    }
}

/// Parses an optional `--retries N` flag (campaign/inject).
fn retries_of(rest: &[&str]) -> Result<u32, ParseError> {
    match optional(rest, "--retries") {
        None => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("`--retries` expects an integer, got `{v}`"))),
    }
}

/// Parses the optional `--chaos-rate R` fraction (chaos).
fn chaos_rate_of(rest: &[&str]) -> Result<f64, ParseError> {
    match optional(rest, "--chaos-rate") {
        None => Ok(0.0),
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && (0.0..=1.0).contains(x))
            .ok_or_else(|| {
                ParseError(format!(
                    "`--chaos-rate` expects a fraction in [0, 1], got `{v}`"
                ))
            }),
    }
}

/// Parses the optional `--chaos-crash-at K` operation index (chaos).
fn crash_at_of(rest: &[&str]) -> Result<Option<u64>, ParseError> {
    match optional(rest, "--chaos-crash-at") {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            ParseError(format!(
                "`--chaos-crash-at` expects an operation index, got `{v}`"
            ))
        }),
    }
}

/// Parses an optional `--cell-timeout DUR` flag (campaign/inject).
fn cell_timeout_of(rest: &[&str]) -> Result<Option<Duration>, ParseError> {
    optional(rest, "--cell-timeout")
        .map(duration_of)
        .transpose()
}

/// Parses a watchdog duration: `500ms`, `5s`, or bare seconds (`2.5`).
///
/// # Errors
///
/// Returns a [`ParseError`] unless the value is a positive, finite,
/// reasonable duration.
fn duration_of(s: &str) -> Result<Duration, ParseError> {
    let (num, unit_s) = if let Some(v) = s.strip_suffix("ms") {
        (v, 0.001)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else {
        (s, 1.0)
    };
    num.parse::<f64>()
        .ok()
        .map(|x| x * unit_s)
        .filter(|x| x.is_finite() && *x > 0.0 && *x <= 1.0e9)
        .map(Duration::from_secs_f64)
        .ok_or_else(|| {
            ParseError(format!(
                "expected a positive duration like `5s`, `500ms`, or `2.5`, got `{s}`"
            ))
        })
}

fn optional<'a>(rest: &[&'a str], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|&a| a == flag)
        .and_then(|i| rest.get(i + 1).copied())
}

fn required<'a>(rest: &[&'a str], flag: &str) -> Result<&'a str, ParseError> {
    optional(rest, flag).ok_or_else(|| ParseError(format!("missing required flag `{flag}`")))
}

fn numeric(rest: &[&str], flag: &str, default: u64) -> Result<u64, ParseError> {
    match optional(rest, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("`{flag}` expects an integer, got `{v}`"))),
    }
}

/// Like [`numeric`], but zero is rejected too.
fn positive(rest: &[&str], flag: &str, default: u64) -> Result<u64, ParseError> {
    match optional(rest, flag) {
        None => Ok(default),
        Some(v) => {
            v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                ParseError(format!("`{flag}` expects a positive integer, got `{v}`"))
            })
        }
    }
}

fn float(rest: &[&str], flag: &str, default: f64) -> Result<f64, ParseError> {
    match optional(rest, flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| ParseError(format!("`{flag}` expects a positive number, got `{v}`"))),
    }
}

fn device_of(s: &str) -> Result<DeviceId, ParseError> {
    DeviceId::parse(s)
        .ok_or_else(|| ParseError(format!("unknown device `{s}` (gpu | gpu-ecc | knc | fpga)")))
}

/// Resolves a workload name to the CLI's fixed mid-size proxy (between
/// the study's quick and paper scales).
fn workload_of(s: &str) -> Result<WorkloadId, ParseError> {
    let lavamd = |knc_unit| WorkloadId::LavaMd {
        boxes: 2,
        particles: 4,
        knc_unit,
    };
    let micro = |op| WorkloadId::Micro {
        op,
        threads: 32,
        iters: 256,
    };
    Ok(match s {
        "mxm" | "gemm" => WorkloadId::Gemm { dim: 16 },
        "lavamd" => lavamd(false),
        "lavamd-knc" => lavamd(true),
        "lud" => WorkloadId::Lud { dim: 20 },
        "micro-add" => micro(MicroKernelOp::Add),
        "micro-mul" => micro(MicroKernelOp::Mul),
        "micro-fma" => micro(MicroKernelOp::Fma),
        "mnist" => WorkloadId::Mnist { seed: 0x313 },
        "yolo" | "yolov3" => WorkloadId::Yolo,
        _ => return Err(ParseError(format!("unknown workload `{s}`\n\n{USAGE}"))),
    })
}

fn precision_of(s: &str) -> Result<Precision, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("unknown precision `{s}` (double | single | half)")))
}

fn model_of(s: &str) -> Result<FaultModel, ParseError> {
    match s {
        "single" => Ok(FaultModel::SingleBit),
        "double" => Ok(FaultModel::DoubleBit),
        "byte" => Ok(FaultModel::RandomByte),
        _ => Err(ParseError(format!(
            "unknown model `{s}` (single | double | byte)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Command {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).expect(line)
    }

    fn parse_err(line: &str) -> ParseError {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).expect_err(line)
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse_ok("tables"),
            Command::Tables {
                opts: StudyOpts::default()
            }
        );
        assert_eq!(
            parse_ok("figures --paper"),
            Command::Figures {
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(parse_ok("help"), Command::Help);
        assert_eq!(
            parse_ok("export --dir /tmp/x --paper"),
            Command::Export {
                dir: "/tmp/x".to_string(),
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    ..StudyOpts::default()
                }
            }
        );
    }

    #[test]
    fn study_opts_parse_threads_and_cache_dir() {
        assert_eq!(
            parse_ok("report --threads 4 --cache-dir /tmp/cells"),
            Command::Report {
                opts: StudyOpts {
                    scale: StudyScale::Quick,
                    threads: 4,
                    cache_dir: Some("/tmp/cells".to_string()),
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(
            parse_ok("tables --paper --threads 2"),
            Command::Tables {
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    threads: 2,
                    ..StudyOpts::default()
                }
            }
        );
        assert!(parse_err("figures --threads lots").0.contains("integer"));
        assert!(parse_err("tables --cache-dir").0.contains("path"));
        assert!(parse_err("tables --frobnicate").0.contains("unknown flag"));
    }

    #[test]
    fn study_opts_parse_profile() {
        assert_eq!(
            parse_ok("report --profile /tmp/run.jsonl"),
            Command::Report {
                opts: StudyOpts {
                    profile: Some("/tmp/run.jsonl".to_string()),
                    ..StudyOpts::default()
                }
            }
        );
        assert!(matches!(
            parse_ok("figures --paper --profile p.jsonl"),
            Command::Figures { opts } if opts.profile.as_deref() == Some("p.jsonl")
        ));
        assert!(parse_err("tables --profile").0.contains("path"));
    }

    #[test]
    fn campaign_parses_with_defaults_and_overrides() {
        let c = parse_ok("campaign --device gpu --workload mxm --precision half");
        assert_eq!(
            c,
            Command::Campaign {
                device: DeviceId::TitanV,
                workload: WorkloadId::Gemm { dim: 16 },
                precision: Precision::Half,
                strikes: 2000,
                hours: 100.0,
                seed: 0,
                threads: 0,
                retries: 0,
                cell_timeout: None,
                sampling: SamplingOpts::default(),
            }
        );
        let c = parse_ok(
            "campaign --device knc --workload lavamd-knc --precision single \
             --strikes 500 --hours 10 --seed 7 --threads 3",
        );
        match c {
            Command::Campaign {
                device,
                workload,
                strikes,
                hours,
                seed,
                threads,
                ..
            } => {
                assert_eq!(device, DeviceId::Knc3120a);
                assert_eq!(
                    workload,
                    WorkloadId::LavaMd {
                        boxes: 2,
                        particles: 4,
                        knc_unit: true
                    }
                );
                assert_eq!((strikes, hours, seed), (500, 10.0, 7));
                assert_eq!(threads, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_parses() {
        assert_eq!(
            parse_ok("analyze"),
            Command::Analyze {
                root: ".".to_string()
            }
        );
        assert_eq!(
            parse_ok("analyze --root /tmp/ws"),
            Command::Analyze {
                root: "/tmp/ws".to_string()
            }
        );
        assert!(parse_err("analyze --root").0.contains("expects a path"));
        for gone in ["--json", "--baseline"] {
            let err = parse_err(&format!("analyze {gone} ci/analyze-baseline.json"));
            assert!(err.0.contains("unknown flag"), "{gone}: {err:?}");
        }
    }

    #[test]
    fn chaos_parses() {
        assert_eq!(
            parse_ok("chaos --cache-dir /tmp/storm"),
            Command::Chaos {
                opts: ChaosOpts {
                    cache_dir: "/tmp/storm".to_string(),
                    seed: 2019,
                    rate: 0.0,
                    crash_at: None,
                    threads: 0,
                    retries: 0,
                    resume: false,
                }
            }
        );
        assert_eq!(
            parse_ok(
                "chaos --cache-dir /tmp/storm --chaos-seed 7 --chaos-rate 0.10 \
                 --chaos-crash-at 12 --threads 2 --retries 3 --resume"
            ),
            Command::Chaos {
                opts: ChaosOpts {
                    cache_dir: "/tmp/storm".to_string(),
                    seed: 7,
                    rate: 0.10,
                    crash_at: Some(12),
                    threads: 2,
                    retries: 3,
                    resume: true,
                }
            }
        );
        assert!(parse_err("chaos").0.contains("--cache-dir"));
        assert!(parse_err("chaos --cache-dir /tmp/x --chaos-rate 1.5")
            .0
            .contains("[0, 1]"));
        assert!(parse_err("chaos --cache-dir /tmp/x --chaos-rate nan")
            .0
            .contains("[0, 1]"));
        assert!(parse_err("chaos --cache-dir /tmp/x --chaos-crash-at soon")
            .0
            .contains("operation index"));
        assert!(parse_err("chaos --cache-dir /tmp/x --chaos-mode loud")
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn inject_parses() {
        let c = parse_ok("inject --workload micro-fma --precision double --n 300 --model byte");
        assert_eq!(
            c,
            Command::Inject {
                workload: WorkloadId::Micro {
                    op: MicroKernelOp::Fma,
                    threads: 32,
                    iters: 256,
                },
                precision: Precision::Double,
                injections: 300,
                model: FaultModel::RandomByte,
                seed: 0,
                threads: 0,
                retries: 0,
                cell_timeout: None,
                sampling: SamplingOpts::default(),
            }
        );
    }

    #[test]
    fn adaptive_sampling_flags_parse() {
        assert_eq!(
            parse_ok("report --adaptive"),
            Command::Report {
                opts: StudyOpts {
                    sampling: SamplingOpts {
                        adaptive: true,
                        ..SamplingOpts::default()
                    },
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(
            parse_ok("figures --paper --adaptive --ci-width 0.3 --strike-budget 5000"),
            Command::Figures {
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    sampling: SamplingOpts {
                        adaptive: true,
                        ci_width: Some(0.3),
                        strike_budget: Some(5000),
                    },
                    ..StudyOpts::default()
                }
            }
        );
        assert!(matches!(
            parse_ok(
                "campaign --device fpga --workload mxm --precision half \
                 --strikes 1024 --adaptive --ci-width 0.5"
            ),
            Command::Campaign {
                strikes: 1024,
                sampling: SamplingOpts {
                    adaptive: true,
                    ci_width: Some(w),
                    strike_budget: None,
                },
                ..
            } if w == 0.5
        ));
        assert!(matches!(
            parse_ok("inject --workload lud --precision double --adaptive --strike-budget 800"),
            Command::Inject {
                sampling: SamplingOpts {
                    adaptive: true,
                    ci_width: None,
                    strike_budget: Some(800),
                },
                ..
            }
        ));
        // The refinement flags are meaningless without --adaptive.
        assert!(parse_err("report --ci-width 0.4").0.contains("--adaptive"));
        assert!(parse_err("tables --strike-budget 100")
            .0
            .contains("--adaptive"));
        assert!(parse_err("report --adaptive --ci-width zero")
            .0
            .contains("positive number"));
        assert!(parse_err("report --adaptive --ci-width -0.2")
            .0
            .contains("positive number"));
        assert!(parse_err(
            "inject --workload lud --precision double --adaptive --strike-budget soon"
        )
        .0
        .contains("integer"));
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        assert_eq!(
            parse_ok("report --retries 2 --cell-timeout 5s --cache-dir /tmp/c --resume"),
            Command::Report {
                opts: StudyOpts {
                    retries: 2,
                    cell_timeout: Some(Duration::from_secs(5)),
                    cache_dir: Some("/tmp/c".to_string()),
                    resume: true,
                    ..StudyOpts::default()
                }
            }
        );
        assert!(matches!(
            parse_ok(
                "campaign --device gpu --workload mxm --precision half \
                 --retries 3 --cell-timeout 500ms"
            ),
            Command::Campaign {
                retries: 3,
                cell_timeout: Some(t),
                ..
            } if t == Duration::from_millis(500)
        ));
        assert!(parse_err("report --resume").0.contains("--cache-dir"));
        assert!(parse_err("report --retries lots").0.contains("integer"));
        assert!(parse_err("report --cell-timeout -4s")
            .0
            .contains("positive"));
    }

    #[test]
    fn durations_parse() {
        assert_eq!(duration_of("5s"), Ok(Duration::from_secs(5)));
        assert_eq!(duration_of("500ms"), Ok(Duration::from_millis(500)));
        assert_eq!(duration_of("2.5"), Ok(Duration::from_millis(2500)));
        assert_eq!(duration_of("0.25s"), Ok(Duration::from_millis(250)));
        assert!(duration_of("0").is_err());
        assert!(duration_of("fast").is_err());
        assert!(duration_of("inf").is_err());
    }

    #[test]
    fn helpful_errors() {
        assert!(parse_err("campaign --workload mxm --precision half")
            .0
            .contains("--device"));
        assert!(
            parse_err("campaign --device tpu --workload mxm --precision half")
                .0
                .contains("unknown device")
        );
        assert!(parse_err("inject --workload mxm --precision quad")
            .0
            .contains("unknown precision"));
        assert!(parse_err("frobnicate").0.contains("unknown command"));
        assert!(parse_err("export").0.contains("--dir"));
        assert!(
            parse_err("campaign --device gpu --workload mxm --precision half --strikes lots")
                .0
                .contains("integer")
        );
    }

    #[test]
    fn strikes_must_be_positive() {
        let err = parse_err("campaign --device gpu --workload mxm --precision half --strikes 0");
        assert!(
            err.0.contains("`--strikes` expects a positive integer"),
            "{err:?}"
        );
        // A zero-injection run is well defined and stays accepted.
        assert!(matches!(
            parse_ok("inject --workload mxm --precision half --n 0"),
            Command::Inject { injections: 0, .. }
        ));
    }

    #[test]
    fn aliases_resolve() {
        let devices = [
            ("gpu", DeviceId::TitanV),
            ("titan-v", DeviceId::TitanV),
            ("gpu-ecc", DeviceId::TeslaV100),
            ("v100", DeviceId::TeslaV100),
            ("tesla-v100", DeviceId::TeslaV100),
            ("knc", DeviceId::Knc3120a),
            ("xeon-phi", DeviceId::Knc3120a),
            ("knc-3120a", DeviceId::Knc3120a),
            ("fpga", DeviceId::Zynq7000),
            ("zynq", DeviceId::Zynq7000),
            ("zynq-7000", DeviceId::Zynq7000),
        ];
        for (name, want) in devices {
            let line = format!("campaign --device {name} --workload mxm --precision half");
            assert!(
                matches!(parse_ok(&line), Command::Campaign { device, .. } if device == want),
                "{name}"
            );
        }
        let micro = |op| WorkloadId::Micro {
            op,
            threads: 32,
            iters: 256,
        };
        let lavamd = |knc_unit| WorkloadId::LavaMd {
            boxes: 2,
            particles: 4,
            knc_unit,
        };
        let workloads = [
            ("mxm", WorkloadId::Gemm { dim: 16 }),
            ("gemm", WorkloadId::Gemm { dim: 16 }),
            ("lavamd", lavamd(false)),
            ("lavamd-knc", lavamd(true)),
            ("lud", WorkloadId::Lud { dim: 20 }),
            ("micro-add", micro(MicroKernelOp::Add)),
            ("micro-mul", micro(MicroKernelOp::Mul)),
            ("micro-fma", micro(MicroKernelOp::Fma)),
            ("mnist", WorkloadId::Mnist { seed: 0x313 }),
            ("yolo", WorkloadId::Yolo),
            ("yolov3", WorkloadId::Yolo),
        ];
        for (name, want) in workloads {
            let line = format!("inject --workload {name} --precision half");
            assert!(
                matches!(parse_ok(&line), Command::Inject { workload, .. } if workload == want),
                "{name}"
            );
        }
        let models = [
            ("single", FaultModel::SingleBit),
            ("double", FaultModel::DoubleBit),
            ("byte", FaultModel::RandomByte),
        ];
        for (name, want) in models {
            let line = format!("inject --workload mxm --precision half --model {name}");
            assert!(
                matches!(parse_ok(&line), Command::Inject { model, .. } if model == want),
                "{name}"
            );
        }
        assert_eq!(
            parse_err("campaign --device tpu --workload mxm --precision half").0,
            "unknown device `tpu` (gpu | gpu-ecc | knc | fpga)"
        );
        assert_eq!(
            parse_err("inject --workload resnet --precision half").0,
            format!("unknown workload `resnet`\n\n{USAGE}")
        );
        assert_eq!(
            parse_err("inject --workload mxm --precision half --model triple").0,
            "unknown model `triple` (single | double | byte)"
        );
    }
}
