//! Workspace call graph and PH004 panic-reachability.
//!
//! PR 4 turned panics in campaign code from crashes into retried
//! cells — which means a reachable panic on the strike fast path or in
//! a campaign driver no longer *fails* anything, it silently burns
//! retry budget. PH004 makes that cost visible: it walks the call
//! graph from the hot roots (every `run_strike_batch`, the trait
//! default and each override, and the `run*` drivers in `campaign.rs`
//! files) and flags panic sites in every function reachable from them.
//!
//! Resolution is by simple name: a call to `run` edges to every
//! function named `run` in the workspace (same-file definitions
//! preferred when any exist). That overapproximates — the cost of a
//! false edge is a finding to audit, never a missed panic on a real
//! path.
//!
//! Two deliberate scope cuts keep the signal usable:
//!
//! * `unwrap`/`expect`/panic-macro sites are only reported when they
//!   sit under a documented `# Panics` contract — undocumented sites
//!   are already PH001–PH003 errors, and pragma-suppressed ones
//!   already carry a written justification.
//! * Indexing sites (`buf[idx]` with a variable index) are reported
//!   only outside `crates/kernels` — kernel inner loops *are* index
//!   arithmetic, bounds-proved by construction and covered by the
//!   differential tests; driver-level indexing is bookkeeping where a
//!   slip burns budget.

use crate::parse::{FnItem, PanicKind, ParsedFile};
use crate::source::SourceFile;
use crate::{Finding, Severity};
use std::collections::BTreeMap;

/// Fast-path entry points recognized anywhere in the workspace: the
/// strike method of the `mpr_fault::Workload` contract (a tier-1 test
/// checks each name is declared there).
pub const ROOT_FNS: [&str; 1] = ["run_strike_batch"];

/// True when `f` (defined in `rel_path`) is a reachability root.
fn is_root(rel_path: &str, f: &FnItem) -> bool {
    if ROOT_FNS.contains(&f.name.as_str()) {
        return true;
    }
    rel_path.ends_with("campaign.rs")
        && (f.name.starts_with("run") || f.name.starts_with("try_run"))
}

/// One function node in the workspace graph.
struct Node<'a> {
    file: &'a SourceFile,
    item: &'a FnItem,
}

/// Runs PH004 over the whole file set. `in_scope` decides (by
/// workspace-relative path) whether findings from a file are emitted;
/// reachability itself always crosses file boundaries.
pub fn panic_reachability(
    files: &[(SourceFile, ParsedFile)],
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    // Collect non-test functions and index them by simple name.
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for (file, parsed) in files {
        for item in &parsed.fns {
            if file.in_test.get(item.line - 1).copied().unwrap_or(false) {
                continue;
            }
            nodes.push(Node { file, item });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.item.name.as_str()).or_default().push(i);
    }

    // BFS from the roots, remembering the first caller for the trace.
    let mut reached_via: Vec<Option<String>> = vec![None; nodes.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if is_root(&n.file.rel_path, n.item) {
            reached_via[i] = Some("<root>".to_string());
            queue.push(i);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let at = queue[head];
        head += 1;
        let caller = nodes[at].item.qual.clone();
        let caller_file = nodes[at].file.rel_path.clone();
        for callee in &nodes[at].item.calls {
            let Some(candidates) = by_name.get(callee.as_str()) else {
                continue;
            };
            // Prefer same-file definitions when any exist — a local
            // helper should not edge into every same-named fn in the
            // workspace.
            let local: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| nodes[c].file.rel_path == caller_file)
                .collect();
            let targets = if local.is_empty() { candidates } else { &local };
            for &c in targets {
                if reached_via[c].is_none() {
                    reached_via[c] = Some(caller.clone());
                    queue.push(c);
                }
            }
        }
    }

    // Report panic sites inside reachable, in-scope functions.
    let mut out = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let Some(via) = &reached_via[i] else { continue };
        if !in_scope(&n.file.rel_path) {
            continue;
        }
        let mut seen_lines: Vec<(usize, PanicKind)> = Vec::new();
        for site in &n.item.panics {
            let documented = n
                .file
                .panic_documented
                .get(site.line - 1)
                .copied()
                .unwrap_or(false);
            let report = match site.kind {
                // Undocumented panic ops are PH001–PH003 errors (or
                // carry a pragma justification already); PH004 adds
                // the documented ones the hot path can still hit.
                PanicKind::Unwrap | PanicKind::Expect | PanicKind::Macro => documented,
                // Kernel inner loops are index arithmetic by design.
                PanicKind::Index => !n.file.rel_path.starts_with("crates/kernels"),
            };
            if !report || seen_lines.contains(&(site.line, site.kind)) {
                continue;
            }
            seen_lines.push((site.line, site.kind));
            let via_text = if via == "<root>" {
                format!("`{}` is itself a hot-path root", n.item.qual)
            } else {
                format!(
                    "`{}` is reachable from the hot path via `{via}`",
                    n.item.qual
                )
            };
            out.push(Finding {
                file: n.file.rel_path.clone(),
                line: site.line,
                lint: "PH004".to_string(),
                name: "panic-reachability".to_string(),
                severity: Severity::Error,
                message: format!(
                    "{} in {}: {} — a panic here is retried, not fatal, so it silently burns strike budget; return a `Result` or hoist the check out of the hot path",
                    site.what, via_text,
                    match site.kind {
                        PanicKind::Index =>
                            "variable indexing can panic on a bad site table",
                        _ => "a documented panic contract still fires at run time",
                    },
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<(SourceFile, ParsedFile)> = files
            .iter()
            .map(|(path, text)| {
                let sf = SourceFile::parse(path, text);
                let pf = ParsedFile::parse(&sf);
                (sf, pf)
            })
            .collect();
        panic_reachability(&parsed, &|_| true)
    }

    #[test]
    fn documented_panic_reachable_from_fast_path_is_flagged() {
        let f = run(&[(
            "crates/fault/src/x.rs",
            "fn run_strike_batch(k: usize) {\n    helper(k);\n}\n/// # Panics\n///\n/// Panics when k is 0.\nfn helper(k: usize) {\n    if k == 0 { panic!(\"zero\") }\n}\n",
        )]);
        assert!(
            f.iter().any(|x| x.lint == "PH004" && x.line == 8),
            "findings: {f:?}"
        );
    }

    #[test]
    fn unreachable_documented_panic_is_not_flagged() {
        let f = run(&[(
            "crates/fault/src/x.rs",
            "/// # Panics\n///\n/// Panics always.\nfn cold_path() {\n    panic!(\"never called from the hot path\")\n}\n",
        )]);
        assert!(f.is_empty(), "findings: {f:?}");
    }

    #[test]
    fn reachability_crosses_files() {
        let f = run(&[
            (
                "crates/fault/src/campaign.rs",
                "fn run_campaign(n: usize) {\n    deep_helper(n);\n}\n",
            ),
            (
                "crates/exp/src/engine.rs",
                "fn deep_helper(n: usize) {\n    let v = vec![0u8; n];\n    let k = n / 2;\n    let _ = v[k + 1];\n}\n",
            ),
        ]);
        assert!(
            f.iter()
                .any(|x| x.lint == "PH004" && x.file == "crates/exp/src/engine.rs"),
            "findings: {f:?}"
        );
    }

    #[test]
    fn kernel_indexing_is_exempt_but_driver_indexing_is_not() {
        let files = [
            (
                "crates/kernels/src/gemm.rs",
                "fn run_strike_batch(a: &[f64], i: usize, n: usize) -> f64 {\n    a[i * n]\n}\n",
            ),
            (
                "crates/beam/src/campaign.rs",
                "fn run_beam(sites: &[usize], i: usize) -> usize {\n    sites[i + 1]\n}\n",
            ),
        ];
        let f = run(&files);
        assert!(
            !f.iter().any(|x| x.file.starts_with("crates/kernels")),
            "kernel indexing flagged: {f:?}"
        );
        assert!(
            f.iter().any(|x| x.file.starts_with("crates/beam")),
            "driver indexing missed: {f:?}"
        );
    }

    #[test]
    fn undocumented_unwrap_is_left_to_ph001() {
        // The same site is a PH001 error already; PH004 stays quiet so
        // one problem is reported once.
        let f = run(&[(
            "crates/fault/src/campaign.rs",
            "fn run_x(v: &[u8]) {\n    let _ = v.first().unwrap();\n}\n",
        )]);
        assert!(f.is_empty(), "findings: {f:?}");
    }
}
