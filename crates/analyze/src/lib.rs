//! `mpr-analyze` — domain-specific static analysis for the
//! mixed-precision reliability workspace.
//!
//! The simulator's correctness rests on conventions a compiler cannot
//! check: kernel arithmetic must stay generic over [`FloatExt`] so one
//! code path serves double/single/half, every intermediate value must
//! pass through the fault hook so injection campaigns see it, campaigns
//! must be bit-reproducible from their seed, and library crates must
//! not panic on recoverable conditions. This crate enforces those
//! conventions in two tiers, wired into the CLI as `mpr analyze`:
//! line/token pattern lints (PR 1), and flow-sensitive taint lints that
//! run a hand-rolled lexer ([`lexer`]), an item-level parser
//! ([`parse`]), a per-function dataflow pass ([`flow`]), and a
//! workspace call graph ([`callgraph`]) — still no rustc plugin, no
//! syn.
//!
//! | family                | ids        | scope                        |
//! |-----------------------|------------|------------------------------|
//! | `precision-leak`      | PL001-PL004| `crates/kernels`, `crates/nn` (generic fn bodies) |
//! | `precision-taint`     | PL005      | `crates/kernels`, `crates/nn` (flow-sensitive) |
//! | `fault-site`          | FS001-FS002| FS001: `crates/kernels`, `crates/nn` (generic fn bodies); FS002 (`dyn FaultHook`): `crates/kernels` |
//! | `determinism`         | DT001-DT003| `crates/beam`, `crates/fault`, `crates/core`, `crates/exp`, `crates/obs` |
//! | `determinism-taint`   | DT004      | same crates as `determinism` (flow-sensitive) |
//! | `panic-hygiene`       | PH001-PH003| every library crate          |
//! | `panic-reachability`  | PH004      | `crates/kernels`, `crates/fault`, `crates/beam`, `crates/exp` (call-graph reachable from the strike fast path) |
//! | `vfs-bypass`          | FS003      | `crates/exp` (direct `std::fs` traffic outside the `Vfs` layer) |
//! | `allow-hygiene`       | AH001-AH003| pragma bookkeeping           |
//!
//! Violations are suppressed line-by-line with a justified pragma:
//!
//! ```text
//! // mpr-allow: panic-hygiene -- a poisoned lock is unrecoverable here
//! ```
//!
//! or file-wide with `//! mpr-allow-file: <lint> -- <why>`. A pragma
//! without a justification, naming an unknown lint, or suppressing
//! nothing is itself reported, so the allowlist stays auditable.
//!
//! [`FloatExt`]: https://docs.rs/mpr-softfloat

pub mod callgraph;
pub mod flow;
// The workspace JSON module, compiled here by path: a dependency on
// mpr-obs would rewrite the whole-study benchmark's lockfile.
#[path = "../../obs/src/json.rs"]
pub mod json;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod source;

use parse::ParsedFile;
use source::SourceFile;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// How severe a finding is; only errors fail the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Gate-failing violation.
    Error,
    /// Reported, but does not fail the gate.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// One diagnostic produced by a lint.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable id, e.g. `PL001`.
    pub lint: String,
    /// Lint family, e.g. `precision-leak` (the name pragmas use).
    pub name: String,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file, self.line, self.severity, self.lint, self.message
        )
    }
}

/// The result of analyzing a file set.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// True when no error-severity findings remain.
    pub fn clean(&self) -> bool {
        self.errors() == 0
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} error(s), {} warning(s)\n",
            self.files_scanned,
            self.errors(),
            self.findings.len() - self.errors()
        ));
        out
    }

    /// Renders the report as a single JSON document.
    pub fn to_json(&self) -> String {
        let findings: Vec<json::Value> = self
            .findings
            .iter()
            .map(|f| {
                let mut m = BTreeMap::new();
                m.insert("file".to_string(), json::Value::Str(f.file.clone()));
                m.insert("line".to_string(), json::Value::Num(f.line.to_string()));
                m.insert("lint".to_string(), json::Value::Str(f.lint.clone()));
                m.insert("name".to_string(), json::Value::Str(f.name.clone()));
                m.insert(
                    "severity".to_string(),
                    json::Value::Str(f.severity.to_string()),
                );
                m.insert("message".to_string(), json::Value::Str(f.message.clone()));
                json::Value::Obj(m)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert(
            "files_scanned".to_string(),
            json::Value::Num(self.files_scanned.to_string()),
        );
        root.insert(
            "errors".to_string(),
            json::Value::Num(self.errors().to_string()),
        );
        root.insert("findings".to_string(), json::Value::Arr(findings));
        json::Value::Obj(root).to_string()
    }

    /// Parses a report previously rendered by [`Analysis::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or lacks the
    /// report fields.
    pub fn from_json(text: &str) -> Result<Analysis, String> {
        let v = json::parse(text)?;
        let files_scanned = v
            .get("files_scanned")
            .and_then(json::Value::as_num)
            .ok_or("missing files_scanned")? as usize;
        let mut findings = Vec::new();
        for f in v
            .get("findings")
            .and_then(json::Value::as_arr)
            .ok_or("missing findings")?
        {
            let field = |k: &str| -> Result<String, String> {
                f.get(k)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("finding missing `{k}`"))
            };
            findings.push(Finding {
                file: field("file")?,
                line: f
                    .get("line")
                    .and_then(json::Value::as_num)
                    .ok_or("finding missing `line`")? as usize,
                lint: field("lint")?,
                name: field("name")?,
                severity: match field("severity")?.as_str() {
                    "error" => Severity::Error,
                    "warning" => Severity::Warning,
                    other => return Err(format!("unknown severity `{other}`")),
                },
                message: field("message")?,
            });
        }
        Ok(Analysis {
            files_scanned,
            findings,
        })
    }
}

/// True when `lint` applies to the file at workspace-relative `rel_path`.
/// Separators are normalized (backslashes, a leading `./`) before the
/// prefix checks, so Windows-style and walker-relative paths scope the
/// same as canonical ones.
pub fn lint_applies(lint: &str, rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    let p = p.strip_prefix("./").unwrap_or(&p);
    match lint {
        // PL005 extends the precision discipline beyond generic bodies
        // to everything in the precision-bearing crates, so it shares
        // the PL001–PL004 scope.
        "precision-leak" | "fault-site" | "precision-taint" => {
            p.starts_with("crates/kernels/src") || p.starts_with("crates/nn/src")
        }
        // FS002: campaigns legitimately hold `dyn FaultHook` at the
        // dispatch boundary, so the trait-object ban covers only the
        // kernel crate where per-touch virtual calls are hot.
        "dyn-hook" => p.starts_with("crates/kernels/src"),
        // FS003: every byte mpr-exp persists must route through the
        // `Vfs` seam so chaos injection and the durable-commit
        // protocol cover it; `vfs.rs` itself carries a file-wide allow.
        "vfs-bypass" => p.starts_with("crates/exp/src"),
        "determinism" | "determinism-taint" => {
            p.starts_with("crates/beam/src")
                || p.starts_with("crates/fault/src")
                || p.starts_with("crates/core/src")
                || p.starts_with("crates/exp/src")
                || p.starts_with("crates/obs/src")
        }
        "panic-hygiene" => true,
        // PH004 reports where the strike fast path and the campaign
        // drivers live; reachability itself crosses every crate.
        "panic-reachability" => {
            p.starts_with("crates/kernels/src")
                || p.starts_with("crates/fault/src")
                || p.starts_with("crates/beam/src")
                || p.starts_with("crates/exp/src")
        }
        _ => false,
    }
}

/// Analyzes one file's text as if it lived at `rel_path`, applying the
/// path-scoped lints and the pragma suppressions. This is the unit the
/// fixture tests use; the flow-sensitive lints run too, with the call
/// graph restricted to this one file.
pub fn analyze_source(rel_path: &str, text: &str) -> Vec<Finding> {
    analyze_files(vec![(rel_path.to_string(), text.to_string())]).findings
}

/// The full analysis pipeline over an in-memory file set: per-file
/// token lints, per-function flow-sensitive taint lints, the
/// workspace call graph for panic reachability, then pragma
/// suppression and allowlist hygiene. Findings come back sorted by
/// (file, line, lint id) so reports are stable regardless of input
/// order.
pub fn analyze_files(inputs: Vec<(String, String)>) -> Analysis {
    let files: Vec<(SourceFile, ParsedFile)> = inputs
        .into_iter()
        .map(|(rel, text)| {
            let sf = SourceFile::parse(&rel, &text);
            let pf = ParsedFile::parse(&sf);
            (sf, pf)
        })
        .collect();
    let files_scanned = files.len();

    // Per-file raw findings (token-level and intraprocedural flow).
    let mut raw: Vec<Vec<Finding>> = files
        .iter()
        .map(|(sf, pf)| {
            let rel = sf.rel_path.clone();
            let mut out: Vec<Finding> = Vec::new();
            if lint_applies("precision-leak", &rel) {
                out.extend(lints::precision_leak(sf));
            }
            if lint_applies("fault-site", &rel) {
                out.extend(lints::fault_site(sf));
            }
            if lint_applies("dyn-hook", &rel) {
                out.extend(lints::dyn_hook(sf));
            }
            if lint_applies("vfs-bypass", &rel) {
                out.extend(lints::vfs_bypass(sf));
            }
            if lint_applies("determinism", &rel) {
                out.extend(lints::determinism(sf));
            }
            if lint_applies("panic-hygiene", &rel) {
                out.extend(lints::panic_hygiene(sf));
            }
            let precision = lint_applies("precision-taint", &rel);
            let determinism = lint_applies("determinism-taint", &rel);
            if precision || determinism {
                out.extend(flow::taint_lints(sf, pf, precision, determinism));
            }
            out
        })
        .collect();

    // Workspace pass: panic reachability over the whole call graph.
    for f in callgraph::panic_reachability(&files, &|p| lint_applies("panic-reachability", p)) {
        if let Some(slot) = files.iter().position(|(sf, _)| sf.rel_path == f.file) {
            raw[slot].push(f);
        }
    }

    // Pragma suppression and allowlist hygiene, per file.
    let mut findings: Vec<Finding> = Vec::new();
    for ((sf, _), raw_file) in files.iter().zip(raw) {
        let mut used: Vec<usize> = Vec::new();
        for f in raw_file {
            let suppressed = sf.pragmas.iter().find(|p| {
                p.lint == f.name && (p.file_wide || p.line == f.line || p.line + 1 == f.line)
            });
            match suppressed {
                Some(p) => used.push(p.line),
                None => findings.push(f),
            }
        }
        findings.extend(lints::allow_hygiene(sf, &used));
    }
    sort_findings(&mut findings);
    Analysis {
        files_scanned,
        findings,
    }
}

/// The one canonical finding order: (file, line, lint id). Applied
/// before every text/JSON emission so CI diffs and baseline
/// comparisons are stable regardless of directory walk order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
}

/// Renders the difference between a baseline report and the current
/// one as a human-readable added/removed listing, or `None` when the
/// findings match. `files_scanned` is intentionally ignored — adding a
/// clean file must not invalidate a baseline.
pub fn diff_reports(baseline: &Analysis, current: &Analysis) -> Option<String> {
    let in_other = |f: &Finding, other: &Analysis| other.findings.iter().any(|g| g == f);
    let added: Vec<&Finding> = current
        .findings
        .iter()
        .filter(|f| !in_other(f, baseline))
        .collect();
    let removed: Vec<&Finding> = baseline
        .findings
        .iter()
        .filter(|f| !in_other(f, current))
        .collect();
    if added.is_empty() && removed.is_empty() {
        return None;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "analyze findings changed vs baseline: {} added, {} removed\n",
        added.len(),
        removed.len()
    ));
    for f in added {
        out.push_str(&format!("  + {f}\n"));
    }
    for f in removed {
        out.push_str(&format!("  - {f}\n"));
    }
    out.push_str(
        "update the baseline intentionally: mpr analyze --json > ci/analyze-baseline.json\n",
    );
    Some(out)
}

/// Walks the workspace at `root` (the directory holding the top-level
/// `Cargo.toml`) and analyzes `src/` plus every `crates/*/src` tree.
/// Vendored dependency shims (`vendor/`) stand in for external crates
/// and are not scanned.
///
/// # Errors
///
/// Returns the first I/O error hit while reading the tree.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    if !root.is_dir() {
        // A misspelled root must not scan vacuously clean.
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("workspace root {} is not a directory", root.display()),
        ));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, text));
    }
    Ok(analyze_files(inputs))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_routes_lints_to_crates() {
        assert!(lint_applies("precision-leak", "crates/kernels/src/gemm.rs"));
        assert!(lint_applies("precision-leak", "crates/nn/src/layers.rs"));
        assert!(!lint_applies(
            "precision-leak",
            "crates/beam/src/campaign.rs"
        ));
        assert!(lint_applies("dyn-hook", "crates/kernels/src/gemm.rs"));
        assert!(!lint_applies("dyn-hook", "crates/nn/src/layers.rs"));
        assert!(!lint_applies("dyn-hook", "crates/fault/src/campaign.rs"));
        assert!(lint_applies("vfs-bypass", "crates/exp/src/store.rs"));
        assert!(!lint_applies("vfs-bypass", "crates/obs/src/jsonl.rs"));
        assert!(!lint_applies("vfs-bypass", "crates/cli/src/commands.rs"));
        assert!(lint_applies("determinism", "crates/core/src/study.rs"));
        assert!(lint_applies("determinism", "crates/exp/src/engine.rs"));
        assert!(lint_applies("determinism", "crates/obs/src/record.rs"));
        assert!(!lint_applies("determinism", "crates/metrics/src/fit.rs"));
        assert!(lint_applies("panic-hygiene", "crates/metrics/src/fit.rs"));
    }

    /// The full scoping matrix: every lint family against every crate
    /// directory in the workspace, so adding a crate or a family forces
    /// an explicit decision here instead of an accidental default.
    #[test]
    fn scoping_matrix_covers_every_lint_and_crate() {
        let crates = [
            "analyze",
            "arch",
            "beam",
            "bench",
            "cli",
            "core",
            "exp",
            "fault",
            "kernels",
            "metrics",
            "nn",
            "obs",
            "softfloat",
        ];
        let families = [
            "precision-leak",
            "precision-taint",
            "fault-site",
            "dyn-hook",
            "determinism",
            "determinism-taint",
            "panic-hygiene",
            "panic-reachability",
            "vfs-bypass",
        ];
        let expected = |lint: &str, krate: &str| -> bool {
            match lint {
                "precision-leak" | "precision-taint" | "fault-site" => {
                    matches!(krate, "kernels" | "nn")
                }
                "dyn-hook" => krate == "kernels",
                "determinism" | "determinism-taint" => {
                    matches!(krate, "beam" | "core" | "exp" | "fault" | "obs")
                }
                "panic-hygiene" => true,
                "panic-reachability" => {
                    matches!(krate, "beam" | "exp" | "fault" | "kernels")
                }
                "vfs-bypass" => krate == "exp",
                _ => unreachable!("unknown family {lint}"),
            }
        };
        for lint in families {
            for krate in crates {
                let path = format!("crates/{krate}/src/lib.rs");
                assert_eq!(
                    lint_applies(lint, &path),
                    expected(lint, krate),
                    "scoping of `{lint}` for {path}"
                );
            }
        }
        // An unknown family applies nowhere rather than everywhere.
        assert!(!lint_applies("no-such-family", "crates/kernels/src/lib.rs"));
    }

    /// Walker-relative and Windows-style separators scope identically
    /// to canonical workspace-relative paths.
    #[test]
    fn scoping_normalizes_path_separators() {
        assert!(lint_applies(
            "precision-leak",
            "./crates/kernels/src/gemm.rs"
        ));
        assert!(lint_applies(
            "precision-leak",
            "crates\\kernels\\src\\gemm.rs"
        ));
        assert!(lint_applies(
            "determinism-taint",
            ".\\crates\\fault\\src\\campaign.rs"
        ));
        assert!(!lint_applies(
            "determinism-taint",
            "crates\\metrics\\src\\fit.rs"
        ));
    }

    #[test]
    fn findings_render_as_file_line_lint() {
        let f = Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            lint: "PH001".to_string(),
            name: "panic-hygiene".to_string(),
            severity: Severity::Error,
            message: "no".to_string(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:7: error [PH001] no");
    }

    #[test]
    fn json_report_round_trips() {
        let analysis = Analysis {
            files_scanned: 3,
            findings: vec![Finding {
                file: "crates/x/src/a.rs".to_string(),
                line: 12,
                lint: "DT003".to_string(),
                name: "determinism".to_string(),
                severity: Severity::Warning,
                message: "iteration \"order\"\nis unstable".to_string(),
            }],
        };
        let text = analysis.to_json();
        let back = Analysis::from_json(&text).expect("parse");
        assert_eq!(back, analysis);
    }

    /// Absolute `--json` bytes, captured before the JSON module moved:
    /// key order, integer rendering and string escaping are pinned.
    #[test]
    fn json_report_bytes_are_pinned() {
        let analysis = Analysis {
            files_scanned: 41,
            findings: vec![Finding {
                file: "crates/x/src/a.rs".to_string(),
                line: 12,
                lint: "DT003".to_string(),
                name: "determinism".to_string(),
                severity: Severity::Error,
                message: "say \"é\"\nthen\tstop \\ \u{1}".to_string(),
            }],
        };
        assert_eq!(
            analysis.to_json(),
            "{\"errors\":1,\"files_scanned\":41,\"findings\":[{\"file\":\"crates/x/src/a.rs\",\
             \"line\":12,\"lint\":\"DT003\",\"message\":\"say \\\"é\\\"\\nthen\\tstop \\\\ \\u0001\",\
             \"name\":\"determinism\",\"severity\":\"error\"}]}"
        );
    }
}
