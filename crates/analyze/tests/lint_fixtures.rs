//! Fixture-based lint tests: every known-bad snippet must be flagged
//! with the expected lint ids, every clean snippet must pass, and the
//! shipped workspace itself must scan clean.
//!
//! The fixture sources live in `tests/fixtures/` (a subdirectory, so
//! Cargo never compiles them) and are analyzed under *claimed* paths to
//! exercise the path-based lint scoping.
#![expect(
    clippy::panic,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mpr_analyze::{analyze_source, analyze_workspace, Analysis};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Analyzes one fixture under a claimed workspace path.
fn scan(rel_path: &str, name: &str) -> Analysis {
    Analysis {
        files_scanned: 1,
        findings: analyze_source(rel_path, &fixture(name)),
    }
}

fn lint_ids(analysis: &Analysis) -> Vec<&str> {
    analysis.findings.iter().map(|f| f.lint.as_str()).collect()
}

#[test]
fn bad_precision_fixture_trips_every_pl_lint() {
    let a = scan("crates/kernels/src/fixture.rs", "bad_precision.rs");
    let ids = lint_ids(&a);
    for expected in ["PL001", "PL002", "PL003", "PL004"] {
        assert!(ids.contains(&expected), "{expected} missing from {ids:?}");
    }
    // The trailing-dot form is a float literal too.
    assert!(
        a.findings
            .iter()
            .any(|f| f.lint == "PL001" && f.message.contains("`2.`")),
        "{}",
        a.to_text()
    );
    assert!(!a.clean());
}

#[test]
fn clean_precision_fixture_passes() {
    let a = scan("crates/kernels/src/fixture.rs", "clean_precision.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

#[test]
fn precision_lints_do_not_apply_outside_kernel_crates() {
    // The same leaky source is fine in, say, the metrics crate — the
    // golden/dispatch interface legitimately works in f64.
    let a = scan("crates/metrics/src/fixture.rs", "bad_precision.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

#[test]
fn bad_fault_site_fixture_flags_each_untouched_update() {
    let a = scan("crates/nn/src/fixture.rs", "bad_fault_site.rs");
    let fs: Vec<_> = a.findings.iter().filter(|f| f.lint == "FS001").collect();
    assert_eq!(
        fs.len(),
        4,
        "one finding per untouched update: {}",
        a.to_text()
    );
    assert!(!a.clean());
}

#[test]
fn clean_fault_site_fixture_passes() {
    let a = scan("crates/kernels/src/fixture.rs", "clean_fault_site.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

#[test]
fn dyn_hook_fixture_flags_each_trait_object() {
    // Kernels and network layers take the hook generically alike.
    for path in ["crates/kernels/src/fixture.rs", "crates/nn/src/fixture.rs"] {
        let a = scan(path, "bad_dyn_hook.rs");
        let fs: Vec<_> = a.findings.iter().filter(|f| f.lint == "FS002").collect();
        // Bare, qualified, and boxed forms trip; the pragma'd boundary,
        // the unrelated trait object, and the test helper do not.
        assert_eq!(fs.len(), 3, "{path} FS002 findings: {}", a.to_text());
        assert!(fs.iter().all(|f| f.name == "fault-site"));
        assert!(!a.clean());
    }
}

#[test]
fn dyn_hook_lint_scopes_to_the_workload_crates() {
    // Campaign crates hold workloads and hooks as trait objects at the
    // dispatch boundary — the same source is legitimate there.
    let a = scan("crates/fault/src/fixture.rs", "bad_dyn_hook.rs");
    assert!(
        !a.findings.iter().any(|f| f.lint == "FS002"),
        "unexpected FS002 outside kernels and nn: {}",
        a.to_text()
    );
}

#[test]
fn pragma_hygiene_fixture_reports_bad_allows() {
    let a = scan("crates/metrics/src/fixture.rs", "bad_pragmas.rs");
    let ids = lint_ids(&a);
    for expected in ["AH001", "AH002", "AH003"] {
        assert!(ids.contains(&expected), "{expected} missing from {ids:?}");
    }
    // A leftover pragma for a family that moved to clippy names an
    // unknown lint.
    assert!(
        a.findings
            .iter()
            .any(|f| f.lint == "AH001" && f.line == 10 && f.message.contains("`panic-hygiene`")),
        "retired family not reported:\n{}",
        a.to_text()
    );
    assert!(!a.clean());
}

#[test]
fn workspace_tree_with_a_bad_file_is_flagged() {
    let dir = std::env::temp_dir().join(format!("mpr_analyze_bad_{}", std::process::id()));
    let src = dir.join("crates/kernels/src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(src.join("bad.rs"), fixture("bad_precision.rs")).expect("write fixture");
    let a = analyze_workspace(&dir).expect("scan succeeds");
    assert_eq!(a.files_scanned, 1);
    assert!(!a.clean(), "bad tree must be flagged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shipped_workspace_scans_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let a = analyze_workspace(&root).expect("scan succeeds");
    assert!(
        a.files_scanned > 50,
        "scanned only {} files",
        a.files_scanned
    );
    // No errors *and* no warnings: stale pragmas must not accumulate.
    assert!(
        a.findings.is_empty(),
        "workspace findings:\n{}",
        a.to_text()
    );
}

// ---------------------------------------------------------------------
// Flow-sensitive taint lints (PL005 / DT004)
// ---------------------------------------------------------------------

#[test]
fn precision_taint_fixture_flags_every_leak_shape() {
    let a = scan("crates/kernels/src/fixture.rs", "bad_precision_taint.rs");
    let pl5: Vec<_> = a.findings.iter().filter(|f| f.lint == "PL005").collect();
    // One per leak shape, each at the cast or call itself: cross-line
    // narrowing, from_bits reinterpretation, bit truncation, and
    // narrowing an indexed element, a parenthesised group, a call, a
    // method on an element and a group widened inside.
    let lines: Vec<usize> = pl5.iter().map(|f| f.line).collect();
    assert_eq!(lines, [12, 19, 25, 32, 33, 34, 35, 36], "\n{}", a.to_text());
    assert!(
        pl5[7].message.contains("`(x/i as f64) as f32`"),
        "{}",
        pl5[7].message
    );
    // The fns are not FloatExt-generic, so the token lints stay quiet:
    // only the flow-sensitive pass sees these.
    assert!(
        !a.findings
            .iter()
            .any(|f| matches!(f.lint.as_str(), "PL001" | "PL002" | "PL003" | "PL004")),
        "token lint fired unexpectedly:\n{}",
        a.to_text()
    );
}

#[test]
fn clean_precision_taint_fixture_passes() {
    let a = scan("crates/kernels/src/fixture.rs", "clean_precision_taint.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

#[test]
fn precision_taint_scopes_to_precision_crates() {
    let a = scan("crates/exp/src/fixture.rs", "bad_precision_taint.rs");
    assert!(
        !a.findings.iter().any(|f| f.lint == "PL005"),
        "PL005 outside kernels/nn: {}",
        a.to_text()
    );
}

#[test]
fn determinism_taint_fixture_reproduces_both_pr3_bug_shapes() {
    let a = scan("crates/fault/src/fixture.rs", "bad_determinism_taint.rs");
    let dt4: Vec<_> = a.findings.iter().filter(|f| f.lint == "DT004").collect();
    // Shape 1: untagged push inside the thread-stride loop.
    assert!(
        dt4.iter()
            .any(|f| f.line == 11 && f.message.contains("thread-stride")),
        "stride-order shape missed:\n{}",
        a.to_text()
    );
    // Shape 2: multiply-XOR seed derivation reaching the RNG.
    assert!(
        dt4.iter()
            .any(|f| f.line == 24 && f.message.contains("weak multiply-XOR")),
        "weak-seed shape missed:\n{}",
        a.to_text()
    );
}

#[test]
fn clean_determinism_taint_fixture_passes() {
    let a = scan("crates/fault/src/fixture.rs", "clean_determinism_taint.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

#[test]
fn split_statements_and_macro_bodies_are_visible_to_flow_lints() {
    // Under a kernel-crate path the macro-generated narrowing trips
    // PL005 while the token precision lints see nothing.
    let a = scan("crates/kernels/src/fixture.rs", "bad_split_and_macro.rs");
    assert!(
        a.findings.iter().any(|f| f.lint == "PL005"),
        "macro-generated narrowing missed:\n{}",
        a.to_text()
    );
    assert!(
        !a.findings
            .iter()
            .any(|f| matches!(f.lint.as_str(), "PL001" | "PL002" | "PL003" | "PL004")),
        "token lint fired unexpectedly:\n{}",
        a.to_text()
    );
    // Under a campaign-crate path the macro-generated stride push and
    // the three-line weak-seed statement trip DT004.
    let b = scan("crates/fault/src/fixture.rs", "bad_split_and_macro.rs");
    let dt4: Vec<_> = b.findings.iter().filter(|f| f.lint == "DT004").collect();
    assert!(
        dt4.iter().any(|f| f.message.contains("thread-stride")),
        "macro-generated stride push missed:\n{}",
        b.to_text()
    );
    assert!(
        dt4.iter().any(|f| f.message.contains("weak multiply-XOR")),
        "split-statement weak seed missed:\n{}",
        b.to_text()
    );
}

// ---------------------------------------------------------------------
// Allow hygiene: file-wide pragmas
// ---------------------------------------------------------------------

#[test]
fn stale_file_wide_allow_is_reported() {
    let a = scan("crates/exp/src/fixture.rs", "bad_stale_file_allow.rs");
    assert!(
        a.findings
            .iter()
            .any(|f| f.lint == "AH003" && f.message.contains("file-wide")),
        "stale mpr-allow-file not reported:\n{}",
        a.to_text()
    );
}

#[test]
fn load_bearing_file_wide_allow_passes() {
    let a = scan("crates/exp/src/fixture.rs", "clean_file_allow.rs");
    assert!(a.clean(), "unexpected findings: {}", a.to_text());
}

// ---------------------------------------------------------------------
// Deterministic report order
// ---------------------------------------------------------------------

#[test]
fn findings_are_sorted_by_path_line_and_lint() {
    // Feed files in reverse path order; the report must come back in
    // canonical (file, line, lint) order anyway.
    let noisy = fixture("bad_precision_taint.rs");
    let a = mpr_analyze::analyze_files(vec![
        ("crates/nn/src/zzz.rs".to_string(), noisy.clone()),
        ("crates/kernels/src/aaa.rs".to_string(), noisy),
    ]);
    assert!(a.findings.len() >= 4, "fixture should be noisy");
    let keys: Vec<_> = a
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.lint.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report not in canonical order");
    assert_eq!(
        keys.first().map(|k| k.0.as_str()),
        Some("crates/kernels/src/aaa.rs")
    );
}

// ---------------------------------------------------------------------
// Stock-clippy policy fixtures
// ---------------------------------------------------------------------

/// The entries of one TOML table: the non-blank, non-comment lines
/// between `header` and the next table header.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn clippy_fixtures_mirror_the_workspace_lints() {
    // The fixture package lives outside the workspace, so it carries
    // its own copy of the clippy lint levels; the copy must not drift.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let workspace = toml_table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    let fixtures = toml_table(&read("ci/clippy-fixtures/Cargo.toml"), "[lints.clippy]");
    assert!(
        workspace.iter().any(|l| l.starts_with("unwrap_used")),
        "{workspace:?}"
    );
    assert_eq!(fixtures, workspace);

    // A package's clippy.toml replaces the root one rather than merging
    // with it, so mpr-exp's must repeat every root setting (the test
    // allowances and the type bans) before adding its `std::fs` bans.
    let settings = |text: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let root_conf = settings(&read("clippy.toml"));
    let exp_conf = settings(&read("crates/exp/clippy.toml"));
    assert!(
        root_conf.contains(&"allow-indexing-slicing-in-tests = true".to_string()),
        "{root_conf:?}"
    );
    assert_eq!(exp_conf.get(..root_conf.len()), Some(&root_conf[..]));
    assert!(
        exp_conf[root_conf.len()..]
            .first()
            .is_some_and(|l| l.starts_with("disallowed-methods")),
        "{exp_conf:?}"
    );

    // `indexing_slicing` is a restriction lint, so the campaign crates
    // opt in at their roots rather than in the shared table.
    for krate in ["fault", "beam", "exp"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(
            lib.lines()
                .any(|l| l.trim() == "#![warn(clippy::indexing_slicing)]"),
            "crates/{krate}/src/lib.rs lacks the indexing lint"
        );
    }
}
