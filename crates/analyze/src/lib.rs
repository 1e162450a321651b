//! `mpr-analyze` — domain-specific static analysis for the
//! mixed-precision reliability workspace.
//!
//! The simulator's correctness rests on conventions a compiler cannot
//! check: kernel arithmetic must stay generic over [`FloatExt`] so one
//! code path serves double/single/half, every intermediate value must
//! pass through the fault hook so injection campaigns see it, and
//! campaigns must be bit-reproducible from their seed. This crate
//! enforces those conventions in two tiers, wired into the CLI as
//! `mpr analyze`: line/token pattern lints, and flow-sensitive taint
//! lints that run a hand-rolled lexer ([`lexer`]), an item-level
//! parser ([`parse`]) and a per-function dataflow pass ([`flow`]) —
//! still no rustc plugin, no syn.
//!
//! | family                | ids        | scope                        |
//! |-----------------------|------------|------------------------------|
//! | `precision-leak`      | PL001-PL004| `crates/kernels`, `crates/nn` (generic fn bodies) |
//! | `precision-taint`     | PL005      | `crates/kernels`, `crates/nn` (flow-sensitive: lossy `as` narrowing, cross-width `from_bits`) |
//! | `fault-site`          | FS001-FS002| `crates/kernels`, `crates/nn` (FS001: generic fn bodies; FS002: any non-test `dyn FaultHook`) |
//! | `determinism-taint`   | DT004      | `crates/beam`, `crates/fault`, `crates/core`, `crates/exp`, `crates/obs` (flow-sensitive: thread identity, weak seeds, stride schedules) |
//! | `allow-hygiene`       | AH001-AH003| pragma bookkeeping           |
//!
//! The bans stock tools can check are not here: `unwrap`/`expect`/
//! panic macros and clock, hash-ordered collection and `RandomState`
//! types are workspace clippy lints (`[workspace.lints.clippy]` and
//! `clippy.toml`); indexing in the campaign crates (mpr-fault,
//! mpr-beam, mpr-exp) is `clippy::indexing_slicing`, and direct
//! `std::fs` calls in mpr-exp are `disallowed-methods` in
//! `crates/exp/clippy.toml`. Each is exempted with
//! `#[expect(clippy::…, reason = "…")]`. Precision mixes in arithmetic,
//! calls, fields and returns are rustc type errors.
//!
//! Violations are suppressed line-by-line with a justified pragma:
//!
//! ```text
//! // mpr-allow: fault-site -- weight synthesis precedes injection; campaigns count sites from the first conv2d
//! ```
//!
//! or file-wide with `//! mpr-allow-file: <lint> -- <why>`. A pragma
//! without a justification, naming an unknown lint, or suppressing
//! nothing is itself reported, so the allowlist stays auditable. Every
//! finding fails the gate.
//!
//! [`FloatExt`]: https://docs.rs/mpr-softfloat

pub mod flow;
// The workspace JSON module, compiled here by path for the whole-study
// benchmark, which imports `mpr_analyze::json`: a dependency on
// mpr-obs would rewrite that benchmark's lockfile.
#[path = "../../obs/src/json.rs"]
pub mod json;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod source;

use parse::ParsedFile;
use source::SourceFile;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One diagnostic produced by a lint. Every finding fails the gate.
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
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error [{}] {}",
            self.file, self.line, self.lint, self.message
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
    /// True when nothing was found.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
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
        // the PL001–PL004 scope. FS002 bans `dyn FaultHook` in the same
        // crates: their one trait-object boundary is the `dispatch`
        // that mpr-fault's `monomorphic_workload!` generates beside the
        // trait.
        "precision-leak" | "fault-site" | "precision-taint" => {
            p.starts_with("crates/kernels/src") || p.starts_with("crates/nn/src")
        }
        "determinism-taint" => {
            p.starts_with("crates/beam/src")
                || p.starts_with("crates/fault/src")
                || p.starts_with("crates/core/src")
                || p.starts_with("crates/exp/src")
                || p.starts_with("crates/obs/src")
        }
        _ => false,
    }
}

/// Analyzes one file's text as if it lived at `rel_path`, applying the
/// path-scoped lints and the pragma suppressions. This is the unit the
/// fixture tests use; the flow-sensitive lints run too.
pub fn analyze_source(rel_path: &str, text: &str) -> Vec<Finding> {
    analyze_files(vec![(rel_path.to_string(), text.to_string())]).findings
}

/// The full analysis pipeline over an in-memory file set: per file,
/// the token lints and the per-function flow-sensitive taint lints,
/// then pragma suppression and allowlist hygiene. Findings come back
/// sorted by (file, line, lint id) so reports are stable regardless of
/// input order.
pub fn analyze_files(inputs: Vec<(String, String)>) -> Analysis {
    let files_scanned = inputs.len();
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, text) in inputs {
        let sf = SourceFile::parse(&rel, &text);
        let mut raw: Vec<Finding> = Vec::new();
        if lint_applies("precision-leak", &rel) {
            raw.extend(lints::precision_leak(&sf));
        }
        if lint_applies("fault-site", &rel) {
            raw.extend(lints::fault_site(&sf));
            raw.extend(lints::dyn_hook(&sf));
        }
        let precision = lint_applies("precision-taint", &rel);
        let determinism = lint_applies("determinism-taint", &rel);
        if precision || determinism {
            let pf = ParsedFile::parse(&sf);
            raw.extend(flow::taint_lints(&sf, &pf, precision, determinism));
        }
        // Pragma suppression and allowlist hygiene.
        let mut used: Vec<usize> = Vec::new();
        for f in raw {
            match sf.suppressor(&f.name, f.line) {
                Some(p) => used.push(p.line),
                None => findings.push(f),
            }
        }
        findings.extend(lints::allow_hygiene(&sf, &used));
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Analysis {
        files_scanned,
        findings,
    }
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
        assert!(lint_applies("fault-site", "crates/kernels/src/gemm.rs"));
        assert!(lint_applies("fault-site", "crates/nn/src/layers.rs"));
        assert!(!lint_applies("fault-site", "crates/fault/src/campaign.rs"));
        assert!(lint_applies(
            "determinism-taint",
            "crates/core/src/study.rs"
        ));
        assert!(lint_applies(
            "determinism-taint",
            "crates/exp/src/engine.rs"
        ));
        assert!(lint_applies(
            "determinism-taint",
            "crates/obs/src/record.rs"
        ));
        assert!(!lint_applies(
            "determinism-taint",
            "crates/metrics/src/fit.rs"
        ));
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
        let families: [(&str, &[&str]); 4] = [
            ("precision-leak", &["kernels", "nn"]),
            ("precision-taint", &["kernels", "nn"]),
            ("fault-site", &["kernels", "nn"]),
            (
                "determinism-taint",
                &["beam", "core", "exp", "fault", "obs"],
            ),
        ];
        for (lint, scope) in families {
            for krate in crates {
                let path = format!("crates/{krate}/src/lib.rs");
                assert_eq!(
                    lint_applies(lint, &path),
                    scope.contains(&krate),
                    "scoping of `{lint}` for {path}"
                );
            }
        }
        // An unknown or retired family applies nowhere rather than
        // everywhere.
        for retired in [
            "no-such-family",
            "determinism",
            "panic-hygiene",
            "dyn-hook",
            "panic-reachability",
            "vfs-bypass",
        ] {
            assert!(!lint_applies(retired, "crates/kernels/src/lib.rs"));
        }
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
            lint: "PL001".to_string(),
            name: "precision-leak".to_string(),
            message: "no".to_string(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:7: error [PL001] no");
    }
}
