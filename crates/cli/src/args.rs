//! Argument parsing: `mpr <command> [FLAGS]`, with no CLI dependency.
//!
//! Each subcommand lists the flags it accepts in a table, where a bare
//! `--name` is a switch and `--name=what` takes a value (`what` names
//! that value in the error when it is missing). [`Flags::scan`] checks
//! the whole line against the table once: an unknown flag, a stray
//! argument, a repeated flag, or a value flag whose value is missing
//! (the last token, or a next token starting with `--`) is a
//! [`ParseError`]. Typed getters then parse the values straight into
//! the types the engine owns: a study's [`StudyOpts`], or one
//! [`CellKey`] with its seed and [`EngineOpts`].

use mpr_core::StudyScale;
use mpr_exp::{CellKey, DeviceId, SamplingConfig, SamplingPlan, WorkloadId};
use mpr_fault::FaultModel;
use mpr_kernels::MicroKernelOp;
use mpr_softfloat::Precision;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the study and print one view of it.
    Study { view: View, opts: StudyOpts },
    /// Run one beam (`campaign`) or injection (`inject`) cell.
    Cell {
        key: CellKey,
        /// `--seed S` (default 0).
        seed: u64,
        engine: EngineOpts,
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

/// What a study subcommand prints.
#[derive(Debug, Clone, PartialEq)]
pub enum View {
    /// Tables 1-3.
    Tables,
    /// Every figure (2-13).
    Figures,
    /// The ablations.
    Ablations,
    /// Tables, figures, ablations, and the engine's cell statistics.
    Report,
    /// The executable shape validation.
    Validate,
    /// Every artifact as CSV under `--dir`.
    Export { dir: String },
}

/// Worker-pool options shared by every command that runs cells.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineOpts {
    /// `--threads N`: worker-thread budget (0, the default, uses every
    /// available core).
    pub threads: usize,
    /// `--retries N`: re-attempt a failed or hung cell up to N times
    /// with its seed unchanged.
    pub retries: u32,
    /// `--cell-timeout DUR`: per-cell watchdog deadline (`None`, the
    /// default, arms none).
    pub cell_timeout: Option<Duration>,
}

/// Options shared by every study subcommand (tables, figures,
/// ablations, report, export, validate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StudyOpts {
    /// Statistical scale (`--paper`; quick by default).
    pub scale: StudyScale,
    /// Worker-pool options.
    pub engine: EngineOpts,
    /// `--cache-dir PATH`: on-disk experiment-cell cache.
    pub cache_dir: Option<String>,
    /// `--profile PATH`: write a JSONL observability log of the run and
    /// print a profile summary afterwards.
    pub profile: Option<String>,
    /// `--resume`: re-execute only the cells the cache directory's
    /// manifest records as failed, hung, or missing. Requires
    /// `--cache-dir`.
    pub resume: bool,
    /// `--adaptive` (refined by `--ci-width` and `--strike-budget`):
    /// the strike-sampling plan of every beam and injection cell.
    pub sampling: SamplingPlan,
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

/// The flags of every study subcommand (`export` adds [`EXPORT`]).
const STUDY: &[&str] = &[
    "--paper",
    "--threads=a value",
    "--cache-dir=a path",
    "--profile=a path",
    "--retries=a count",
    "--cell-timeout=a duration",
    "--resume",
    "--adaptive",
    "--ci-width=a value",
    "--strike-budget=a count",
];
const EXPORT: &[&str] = &["--dir=a path"];
/// The engine and sampling flags `campaign` and `inject` share.
const CELL: &[&str] = &[
    "--seed=a value",
    "--threads=a value",
    "--retries=a count",
    "--cell-timeout=a duration",
    "--adaptive",
    "--ci-width=a value",
    "--strike-budget=a count",
];
const CAMPAIGN: &[&str] = &[
    "--device=a device",
    "--workload=a workload",
    "--precision=a precision",
    "--strikes=a count",
    "--hours=a value",
];
const INJECT: &[&str] = &[
    "--workload=a workload",
    "--precision=a precision",
    "--n=a count",
    "--model=a model",
];
const CHAOS: &[&str] = &[
    "--cache-dir=a path",
    "--chaos-seed=a value",
    "--chaos-rate=a value",
    "--chaos-crash-at=an operation index",
    "--threads=a value",
    "--retries=a count",
    "--resume",
];
const ANALYZE: &[&str] = &["--root=a path"];

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| ParseError(USAGE.to_string()))?;
    let rest: Vec<&str> = it.collect();
    let view = match sub {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "tables" => View::Tables,
        "figures" => View::Figures,
        "ablations" => View::Ablations,
        "report" => View::Report,
        "validate" => View::Validate,
        "export" => {
            let f = Flags::scan(&rest, &[STUDY, EXPORT])?;
            let dir = f.required("--dir")?.to_string();
            return study(View::Export { dir }, &f);
        }
        "campaign" => {
            let f = Flags::scan(&rest, &[CAMPAIGN, CELL])?;
            let key = CellKey::beam(
                device_of(f.required("--device")?)?,
                workload_of(f.required("--workload")?)?,
                precision_of(f.required("--precision")?)?,
                f.value("--hours", "a positive number", positive)?
                    .unwrap_or(100.0),
                f.value("--strikes", "a positive integer", |&n: &u64| n > 0)?
                    .unwrap_or(2000),
                sampling(&f, StudyScale::Quick)?,
            );
            if !key.session_runs() {
                return Err(ParseError(format!(
                    "`--hours` expects beam hours with a finite fluence and strike count, got `{}`",
                    f.get("--hours").unwrap_or_default()
                )));
            }
            return cell(key, &f);
        }
        "inject" => {
            let f = Flags::scan(&rest, &[INJECT, CELL])?;
            let key = CellKey::inject(
                workload_of(f.required("--workload")?)?,
                precision_of(f.required("--precision")?)?,
                f.int("--n")?.unwrap_or(2000),
                model_of(f.get("--model").unwrap_or("single"))?,
                1.0,
                sampling(&f, StudyScale::Quick)?,
            );
            return cell(key, &f);
        }
        "chaos" => {
            let f = Flags::scan(&rest, &[CHAOS])?;
            return Ok(Command::Chaos {
                opts: ChaosOpts {
                    cache_dir: f.required("--cache-dir")?.to_string(),
                    seed: f.int("--chaos-seed")?.unwrap_or(2019),
                    rate: f
                        .value("--chaos-rate", "a fraction in [0, 1]", |x: &f64| {
                            (0.0..=1.0).contains(x)
                        })?
                        .unwrap_or(0.0),
                    crash_at: f.value("--chaos-crash-at", "an operation index", |_| true)?,
                    threads: f.int("--threads")?.unwrap_or(0),
                    retries: f.int("--retries")?.unwrap_or(0),
                    resume: f.has("--resume"),
                },
            });
        }
        "analyze" => {
            let f = Flags::scan(&rest, &[ANALYZE])?;
            let root = f.get("--root").unwrap_or(".").to_string();
            return Ok(Command::Analyze { root });
        }
        other => return Err(ParseError(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    study(view, &Flags::scan(&rest, &[STUDY])?)
}

/// A study subcommand's options, with `--resume` checked against
/// `--cache-dir`.
fn study(view: View, f: &Flags<'_>) -> Result<Command, ParseError> {
    let scale = if f.has("--paper") {
        StudyScale::Paper
    } else {
        StudyScale::Quick
    };
    let opts = StudyOpts {
        scale,
        engine: engine(f)?,
        cache_dir: f.get("--cache-dir").map(String::from),
        profile: f.get("--profile").map(String::from),
        resume: f.has("--resume"),
        sampling: sampling(f, scale)?,
    };
    if opts.resume && opts.cache_dir.is_none() {
        return Err(ParseError(
            "`--resume` needs `--cache-dir` (the manifest lives there)".to_string(),
        ));
    }
    Ok(Command::Study { view, opts })
}

/// A one-off cell with its seed and engine options.
fn cell(key: CellKey, f: &Flags<'_>) -> Result<Command, ParseError> {
    Ok(Command::Cell {
        key,
        seed: f.int("--seed")?.unwrap_or(0),
        engine: engine(f)?,
    })
}

fn engine(f: &Flags<'_>) -> Result<EngineOpts, ParseError> {
    Ok(EngineOpts {
        threads: f.int("--threads")?.unwrap_or(0),
        retries: f.int("--retries")?.unwrap_or(0),
        cell_timeout: f.get("--cell-timeout").map(duration_of).transpose()?,
    })
}

/// The strike-sampling plan: fixed unless `--adaptive`, which starts
/// from `scale`'s CI-width preset, refined by `--ci-width` and
/// `--strike-budget`.
fn sampling(f: &Flags<'_>, scale: StudyScale) -> Result<SamplingPlan, ParseError> {
    let ci_width = f.value("--ci-width", "a positive number", positive)?;
    let budget = f.int("--strike-budget")?;
    if !f.has("--adaptive") {
        if ci_width.is_some() || budget.is_some() {
            return Err(ParseError(
                "`--ci-width` and `--strike-budget` need `--adaptive`".to_string(),
            ));
        }
        return Ok(SamplingPlan::Fixed);
    }
    let mut config = match scale {
        StudyScale::Quick => SamplingConfig::quick(),
        StudyScale::Paper => SamplingConfig::paper(),
    };
    if let Some(w) = ci_width {
        config = config.with_ci_width(w);
    }
    if let Some(b) = budget {
        config = config.with_budget(b);
    }
    Ok(SamplingPlan::Adaptive(config))
}

/// One subcommand's flags, scanned against its tables: each accepted
/// flag given at most once, with its value when it takes one.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    /// Checks the whole line against `accepted` (see the module doc for
    /// the table grammar and what is rejected).
    fn scan(rest: &[&'a str], accepted: &[&[&str]]) -> Result<Flags<'a>, ParseError> {
        let mut flags = Vec::new();
        let mut it = rest.iter().copied().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(ParseError(format!("unknown argument `{arg}`\n\n{USAGE}")));
            }
            let spec = accepted
                .iter()
                .flat_map(|table| table.iter())
                .find(|spec| spec.split('=').next() == Some(arg))
                .ok_or_else(|| ParseError(format!("unknown flag `{arg}`\n\n{USAGE}")))?;
            if flags.iter().any(|&(seen, _)| seen == arg) {
                return Err(ParseError(format!("`{arg}` given more than once")));
            }
            let value = match spec.split_once('=') {
                None => None,
                Some((_, what)) => Some(
                    it.next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| ParseError(format!("`{arg}` expects {what}")))?,
                ),
            };
            flags.push((arg, value));
        }
        Ok(Flags(flags))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|&(seen, _)| seen == flag)
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|&&(seen, _)| seen == flag)
            .and_then(|&(_, value)| value)
    }

    fn required(&self, flag: &str) -> Result<&'a str, ParseError> {
        self.get(flag)
            .ok_or_else(|| ParseError(format!("missing required flag `{flag}`")))
    }

    /// `flag`'s value parsed and checked by `ok`, or `None` when the
    /// flag is absent; `what` names the expected value in the error.
    fn value<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, ParseError> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(&ok)
                    .ok_or_else(|| ParseError(format!("`{flag}` expects {what}, got `{v}`")))
            })
            .transpose()
    }

    fn int<T: FromStr>(&self, flag: &str) -> Result<Option<T>, ParseError> {
        self.value(flag, "an integer", |_| true)
    }
}

fn positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
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
    use mpr_exp::CellKind;

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
            Command::Study {
                view: View::Tables,
                opts: StudyOpts::default()
            }
        );
        assert_eq!(
            parse_ok("figures --paper"),
            Command::Study {
                view: View::Figures,
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(parse_ok("help"), Command::Help);
        assert_eq!(
            parse_ok("export --dir /tmp/x --paper"),
            Command::Study {
                view: View::Export {
                    dir: "/tmp/x".to_string()
                },
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
            Command::Study {
                view: View::Report,
                opts: StudyOpts {
                    scale: StudyScale::Quick,
                    engine: EngineOpts {
                        threads: 4,
                        ..EngineOpts::default()
                    },
                    cache_dir: Some("/tmp/cells".to_string()),
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(
            parse_ok("tables --paper --threads 2"),
            Command::Study {
                view: View::Tables,
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    engine: EngineOpts {
                        threads: 2,
                        ..EngineOpts::default()
                    },
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
            Command::Study {
                view: View::Report,
                opts: StudyOpts {
                    profile: Some("/tmp/run.jsonl".to_string()),
                    ..StudyOpts::default()
                }
            }
        );
        assert!(matches!(
            parse_ok("figures --paper --profile p.jsonl"),
            Command::Study { view: View::Figures, opts } if opts.profile.as_deref() == Some("p.jsonl")
        ));
        assert!(parse_err("tables --profile").0.contains("path"));
    }

    #[test]
    fn campaign_parses_with_defaults_and_overrides() {
        let c = parse_ok("campaign --device gpu --workload mxm --precision half");
        assert_eq!(
            c,
            Command::Cell {
                key: CellKey::beam(
                    DeviceId::TitanV,
                    WorkloadId::Gemm { dim: 16 },
                    Precision::Half,
                    100.0,
                    2000,
                    SamplingPlan::Fixed,
                ),
                seed: 0,
                engine: EngineOpts::default(),
            }
        );
        let c = parse_ok(
            "campaign --device knc --workload lavamd-knc --precision single \
             --strikes 500 --hours 10 --seed 7 --threads 3",
        );
        match c {
            Command::Cell {
                key:
                    CellKey {
                        device,
                        workload,
                        kind:
                            CellKind::Beam {
                                target_candidates: strikes,
                                hours,
                                ..
                            },
                        ..
                    },
                seed,
                engine: EngineOpts { threads, .. },
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
            Command::Cell {
                key: CellKey::inject(
                    WorkloadId::Micro {
                        op: MicroKernelOp::Fma,
                        threads: 32,
                        iters: 256,
                    },
                    Precision::Double,
                    300,
                    FaultModel::RandomByte,
                    1.0,
                    SamplingPlan::Fixed,
                ),
                seed: 0,
                engine: EngineOpts::default(),
            }
        );
    }

    #[test]
    fn adaptive_sampling_flags_parse() {
        assert_eq!(
            parse_ok("report --adaptive"),
            Command::Study {
                view: View::Report,
                opts: StudyOpts {
                    sampling: SamplingPlan::Adaptive(SamplingConfig::quick()),
                    ..StudyOpts::default()
                }
            }
        );
        assert_eq!(
            parse_ok("figures --paper --adaptive --ci-width 0.3 --strike-budget 5000"),
            Command::Study {
                view: View::Figures,
                opts: StudyOpts {
                    scale: StudyScale::Paper,
                    sampling: SamplingPlan::Adaptive(
                        SamplingConfig::paper().with_ci_width(0.3).with_budget(5000)
                    ),
                    ..StudyOpts::default()
                }
            }
        );
        assert!(matches!(
            parse_ok(
                "campaign --device fpga --workload mxm --precision half \
                 --strikes 1024 --adaptive --ci-width 0.5"
            ),
            Command::Cell {
                key: CellKey {
                    kind: CellKind::Beam {
                        target_candidates: 1024,
                        sampling: SamplingPlan::Adaptive(config),
                        ..
                    },
                    ..
                },
                ..
            } if config == SamplingConfig::quick().with_ci_width(0.5)
        ));
        assert!(matches!(
            parse_ok("inject --workload lud --precision double --adaptive --strike-budget 800"),
            Command::Cell {
                key: CellKey {
                    kind: CellKind::Inject {
                        sampling: SamplingPlan::Adaptive(config),
                        ..
                    },
                    ..
                },
                ..
            } if config == SamplingConfig::quick().with_budget(800)
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
            Command::Study {
                view: View::Report,
                opts: StudyOpts {
                    engine: EngineOpts {
                        threads: 0,
                        retries: 2,
                        cell_timeout: Some(Duration::from_secs(5)),
                    },
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
            Command::Cell {
                engine: EngineOpts {
                    retries: 3,
                    cell_timeout: Some(t),
                    ..
                },
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
            Command::Cell {
                key: CellKey {
                    kind: CellKind::Inject { injections: 0, .. },
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn hours_must_leave_a_finite_session() {
        for hours in ["1e305", "5e-324"] {
            let err = parse_err(&format!(
                "campaign --device gpu --workload mxm --precision half --strikes 10 --hours {hours}"
            ));
            assert!(err.0.contains("`--hours`"), "{hours}: {err:?}");
            assert!(err.0.contains(hours), "{hours}: {err:?}");
        }
        // Every device runs the hours the tests, CI and the study use.
        for device in ["gpu", "gpu-ecc", "knc", "zynq"] {
            for hours in ["0.5", "4", "10", "100"] {
                parse_ok(&format!(
                    "campaign --device {device} --workload mxm --precision single --hours {hours}"
                ));
            }
        }
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
                matches!(parse_ok(&line), Command::Cell { key, .. } if key.device == want),
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
                matches!(parse_ok(&line), Command::Cell { key, .. } if key.workload == want),
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
                matches!(
                    parse_ok(&line),
                    Command::Cell {
                        key: CellKey {
                            kind: CellKind::Inject { model, .. },
                            ..
                        },
                        ..
                    } if model == want
                ),
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

    #[test]
    fn the_whole_line_is_checked() {
        for (line, want) in [
            ("report --cache-dir --paper", "`--cache-dir` expects a path"),
            (
                "campaign --device gpu --workload mxm --precision half --strike 100",
                "unknown flag `--strike`",
            ),
            (
                "campaign --device gpu --workload mxm --precision half --cache-dir /tmp/x",
                "unknown flag `--cache-dir`",
            ),
            (
                "inject --workload mxm --precision half --threads",
                "`--threads` expects",
            ),
            (
                "inject --workload mxm --precision half --n 5 --n 6",
                "`--n` given more than once",
            ),
            ("chaos --cache-dir /tmp/x stray", "unknown argument `stray`"),
        ] {
            let err = parse_err(line);
            assert!(err.0.starts_with(want), "{line}: {err:?}");
        }
    }

    #[test]
    fn usage_names_exactly_the_accepted_flags() {
        use std::collections::BTreeSet;
        let named: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        let accepted: BTreeSet<&str> = [STUDY, EXPORT, CELL, CAMPAIGN, INJECT, CHAOS, ANALYZE]
            .iter()
            .flat_map(|table| table.iter())
            .map(|spec| spec.split('=').next().unwrap_or(spec))
            .collect();
        assert_eq!(named, accepted);
    }
}
