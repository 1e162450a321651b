//! The token-level domain lints (precision-leak, fault-site,
//! vfs-bypass) plus allowlist hygiene.
//!
//! Every lint is a pure function from a [`SourceFile`] to findings;
//! path-based scoping (which crates a lint applies to) lives in
//! [`crate::lint_applies`] so fixtures can exercise lints by claiming a
//! path.

use crate::lexer::{lex, TokKind};
use crate::source::SourceFile;
use crate::Finding;

/// Lint family names as used in `mpr-allow` pragmas.
pub const LINT_NAMES: [&str; 6] = [
    "precision-leak",
    "fault-site",
    "precision-taint",
    "determinism-taint",
    "panic-reachability",
    "vfs-bypass",
];

fn finding(
    file: &SourceFile,
    line: usize,
    lint: &'static str,
    name: &'static str,
    message: String,
) -> Finding {
    Finding {
        file: file.rel_path.clone(),
        line,
        lint: lint.to_string(),
        name: name.to_string(),
        message,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of `needle` in `hay` occurring as a whole word (not
/// embedded in a longer identifier).
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

// ---------------------------------------------------------------------
// precision-leak (PL)
// ---------------------------------------------------------------------

/// Inside `F: FloatExt`-generic kernel bodies, all float work must stay
/// in the generic type: native literals, casts, `f32::`/`f64::` paths,
/// and bare native float types leak a fixed precision into code that the
/// study must be able to run at double, single, and half.
pub fn precision_leak(file: &SourceFile) -> Vec<Finding> {
    let in_kernel = |idx: usize| file.in_generic_kernel[idx] && !file.in_test[idx];
    let mut out = Vec::new();
    let toks = lex(&file.masked);
    for (k, lit) in toks.iter().enumerate() {
        let idx = lit.line - 1;
        // `t.0.1` is a tuple field access, not the literal `0.1`.
        let field = k > 0 && toks[k - 1].is_punct(".");
        if lit.kind != TokKind::Float || field || !in_kernel(idx) {
            continue;
        }
        if feeds_conversion(&file.masked[idx], lit.col) {
            continue;
        }
        out.push(finding(
            file,
            lit.line,
            "PL001",
            "precision-leak",
            format!("native float literal `{}` in a precision-generic kernel; wrap it in `F::from_f64(..)`", lit.text),
        ));
    }
    for (idx, masked) in file.masked.iter().enumerate() {
        let line_no = idx + 1;
        if !in_kernel(idx) {
            continue;
        }
        for ty in ["f32", "f64"] {
            for at in unenclosed(masked, &format!(" as {ty}")) {
                let after = &masked[at + 4 + ty.len()..];
                if after.starts_with(|c: char| is_ident_char(c)) {
                    continue; // e.g. ` as f64x4` — not the native type
                }
                out.push(finding(
                    file,
                    line_no,
                    "PL002",
                    "precision-leak",
                    format!("`as {ty}` cast in a precision-generic kernel; convert through `F::from_f64`/`to_f64` at the interface instead"),
                ));
            }
            for _ in unenclosed(masked, &format!("{ty}::")) {
                out.push(finding(
                    file,
                    line_no,
                    "PL003",
                    "precision-leak",
                    format!("`{ty}::` associated item in a precision-generic kernel; use the `FloatExt` equivalent"),
                ));
            }
            for at in word_positions(masked, ty) {
                // Skip occurrences already reported as casts or paths.
                let after = &masked[at + ty.len()..];
                let before = &masked[..at];
                if after.starts_with("::") || before.ends_with("as ") {
                    continue;
                }
                if feeds_conversion(masked, at) {
                    continue;
                }
                out.push(finding(
                    file,
                    line_no,
                    "PL004",
                    "precision-leak",
                    format!("native `{ty}` type in a precision-generic kernel body; keep intermediate values in `F`"),
                ));
            }
        }
    }
    out
}

/// Byte offsets where `needle` occurs outside any enclosing
/// `from_f64`/`from_f32` call. Native-float syntax is sanctioned inside
/// the conversion's argument list — that is where the f64 master value
/// is assembled before it crosses into `F`.
fn unenclosed(line: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(needle) {
        let at = from + p;
        if !feeds_conversion(line, at) {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// True when the token at `col` sits inside a call whose chain of
/// enclosing calls (on this line) includes `from_f64`/`from_f32` — the
/// sanctioned way to introduce constants into generic code.
fn feeds_conversion(line: &str, col: usize) -> bool {
    let mut depth = 0i32;
    let bytes = line.as_bytes();
    let mut i = col;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                if depth > 0 {
                    depth -= 1;
                    continue;
                }
                // An unmatched open paren: read the identifier before it.
                let end = i;
                let mut s = i;
                while s > 0 && is_ident_char(bytes[s - 1] as char) {
                    s -= 1;
                }
                let ident = &line[s..end];
                if ident.ends_with("from_f64") || ident.ends_with("from_f32") {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------
// fault-site (FS)
// ---------------------------------------------------------------------

/// Inside kernel loops, every statement that updates a float value
/// (assignment, compound assignment, or `.push`) must route the result
/// through the fault hook (`hook.touch(..)` / `touch_bits`). A computed
/// value that bypasses the hook is invisible to injection campaigns,
/// silently shrinking the fault-site population the paper's methodology
/// samples from.
///
/// `let` bindings and control headers are setup work (constants built
/// for `from_f64`, index math) and are exempt *unless* they invoke a
/// float math method (`mul_add`, `sqrt`, …), which marks real
/// in-precision arithmetic wherever it appears.
pub fn fault_site(file: &SourceFile) -> Vec<Finding> {
    let masked = &file.masked;
    let mut flagged = std::collections::BTreeSet::new();
    for (idx, line) in masked.iter().enumerate() {
        if !file.in_generic_kernel[idx] || file.in_test[idx] {
            continue;
        }
        let trimmed = line.trim_start();
        if !(trimmed.starts_with("for ") || trimmed.starts_with("while ")) {
            continue;
        }
        let close = body_close(masked, idx);
        for stmt in statements(masked, idx + 1, close) {
            if stmt.text.contains("touch") {
                continue;
            }
            let head = stmt.text.trim_start();
            let is_setup = ["let ", "if ", "for ", "while ", "match ", "else"]
                .iter()
                .any(|k| head.starts_with(k));
            let computes = if is_setup {
                has_float_method(&stmt.text)
            } else if stmt.text.contains(".push(") || has_assignment(&stmt.text) {
                has_float_method(&stmt.text) || has_operator_arithmetic(&stmt.text)
            } else {
                false
            };
            if computes {
                flagged.insert(stmt.line);
            }
        }
    }
    flagged
        .into_iter()
        .map(|line| {
            finding(
                file,
                line,
                "FS001",
                "fault-site",
                "kernel-loop statement computes a value without routing it through the fault hook; wrap the update in `hook.touch(..)`".to_string(),
            )
        })
        .collect()
}

/// Trait-object hook dispatch in kernel or network code. `dyn FaultHook`
/// costs a virtual call per touched value — millions per run — which is
/// exactly what the monomorphized hook protocol removes. Workload code
/// must take the hook generically (`H: FaultHook + ?Sized`) so golden
/// runs and strikes instantiate it statically with a concrete hook; the
/// one trait-object boundary is the campaign-facing `dispatch` that
/// mpr-fault's `monomorphic_workload!` generates outside this scope.
pub fn dyn_hook(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, masked) in file.masked.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        for at in word_positions(masked, "dyn") {
            // Read the (possibly qualified) path after `dyn`; flag it
            // when its final segment is the hook trait.
            let path: String = masked[at + 3..]
                .trim_start()
                .chars()
                .take_while(|&c| is_ident_char(c) || c == ':')
                .collect();
            if path.rsplit("::").next() == Some("FaultHook") {
                out.push(finding(
                    file,
                    idx + 1,
                    "FS002",
                    "fault-site",
                    format!(
                        "`dyn {path}` in workload code pays a virtual call per touched value; \
                         take `H: FaultHook + ?Sized` generically so a concrete hook \
                         monomorphizes, and keep trait objects at the campaign boundary"
                    ),
                ));
            }
        }
    }
    out
}

/// True when the statement contains an assignment operator: a bare `=`
/// or a compound `+=`-family one, but not `==`, `<=`, `>=`, `!=`, `=>`.
fn has_assignment(stmt: &str) -> bool {
    let bytes = stmt.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        if matches!(bytes.get(i + 1), Some(b'=') | Some(b'>')) {
            continue;
        }
        if i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!') {
            continue;
        }
        return true;
    }
    false
}

/// 0-based line of the `}` closing the block opened at/after `open_line`.
fn body_close(masked: &[String], open_line: usize) -> usize {
    let mut depth = 0i32;
    let mut seen = false;
    for (idx, line) in masked.iter().enumerate().skip(open_line) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if seen && depth == 0 {
                return idx;
            }
        }
    }
    masked.len().saturating_sub(1)
}

struct Stmt {
    /// 1-based line the statement starts on.
    line: usize,
    text: String,
}

/// Splits lines `[from, to)` (0-based) into leaf statements: pieces are
/// cut at `;` and at `{`/`}` block boundaries (so nested loop bodies are
/// examined statement by statement), while `(..)`/`[..]` nesting keeps
/// multi-line call expressions whole.
fn statements(masked: &[String], from: usize, to: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut start_line = 0usize;
    let mut depth = 0i32;
    let mut flush = |current: &mut String, start_line: usize, terminated: bool| {
        if terminated {
            current.push(';');
        }
        let text = current.trim().to_string();
        if !text.is_empty() && text != ";" {
            out.push(Stmt {
                line: start_line,
                text,
            });
        }
        current.clear();
    };
    for (idx, line) in masked.iter().enumerate().take(to).skip(from) {
        if current.trim().is_empty() {
            current.clear();
            start_line = idx + 1;
        }
        for c in line.chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' | '}' if depth <= 0 => {
                    flush(&mut current, start_line, false);
                    start_line = idx + 1;
                    continue;
                }
                ';' if depth <= 0 => {
                    flush(&mut current, start_line, true);
                    start_line = idx + 1;
                    continue;
                }
                _ => {}
            }
            current.push(c);
        }
        current.push(' ');
    }
    flush(&mut current, start_line, false);
    out
}

/// FloatExt math-method calls — unambiguous in-precision arithmetic.
fn has_float_method(stmt: &str) -> bool {
    [".mul_add(", ".sqrt(", ".abs(", ".recip(", ".powi(", ".exp("]
        .iter()
        .any(|m| stmt.contains(m))
}

/// Binary arithmetic on values (not on indices): spaced operators
/// outside `[..]` index expressions — the workspace is
/// rustfmt-formatted, so real operators are spaced.
fn has_operator_arithmetic(stmt: &str) -> bool {
    let mut depth = 0i32;
    let mut cleaned = String::with_capacity(stmt.len());
    for c in stmt.chars() {
        match c {
            '[' => {
                depth += 1;
                cleaned.push(' ');
            }
            ']' => {
                depth -= 1;
                cleaned.push(' ');
            }
            _ if depth > 0 => cleaned.push(' '),
            _ => cleaned.push(c),
        }
    }
    [" + ", " - ", " * ", " / ", " += ", " -= ", " *= ", " /= "]
        .iter()
        .any(|op| cleaned.contains(op))
}

// ---------------------------------------------------------------------
// vfs-bypass (FS003)
// ---------------------------------------------------------------------

/// Direct `std::fs` traffic in the experiment engine outside the `Vfs`
/// implementation layer. Every byte mpr-exp persists must route
/// through the `Vfs` trait so the chaos layer sees it, the durable
/// commit protocol covers it, and the crash-consistency property tests
/// stay exhaustive — an I/O call that bypasses the seam is untestable
/// under fault injection and silently un-durable. `vfs.rs` itself (the
/// `RealFs` passthrough) carries a file-wide pragma; tests are exempt.
pub fn vfs_bypass(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, masked) in file.masked.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let line_no = idx + 1;
        for at in word_positions(masked, "fs") {
            if masked[at + 2..].starts_with("::") {
                out.push(finding(
                    file,
                    line_no,
                    "FS003",
                    "vfs-bypass",
                    "direct `fs::` call in mpr-exp bypasses the `Vfs` seam; route it through the store's `Vfs` handle so chaos injection and the durable-commit protocol cover it".to_string(),
                ));
            }
        }
        for at in word_positions(masked, "File") {
            if masked[at + 4..].starts_with("::") {
                out.push(finding(
                    file,
                    line_no,
                    "FS003",
                    "vfs-bypass",
                    "direct `File::` use in mpr-exp bypasses the `Vfs` seam; add the operation to the `Vfs` trait instead of opening handles inline".to_string(),
                ));
            }
        }
        if !word_positions(masked, "OpenOptions").is_empty() {
            out.push(finding(
                file,
                line_no,
                "FS003",
                "vfs-bypass",
                "`OpenOptions` in mpr-exp bypasses the `Vfs` seam; add the operation to the `Vfs` trait instead of opening handles inline".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// allowlist hygiene (AH)
// ---------------------------------------------------------------------

/// Pragmas are part of the lint surface: an allow without a
/// justification, or naming an unknown lint, is itself a finding.
/// `used` carries the pragma lines that suppressed at least one raw
/// finding; an allow that suppresses nothing is reported so the
/// allowlist cannot rot.
pub fn allow_hygiene(file: &SourceFile, used: &[usize]) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in &file.pragmas {
        // Lints skip test regions entirely, so pragmas there have no
        // effect and are not audited.
        if file.in_test.get(p.line - 1).copied().unwrap_or(false) {
            continue;
        }
        if !LINT_NAMES.contains(&p.lint.as_str()) {
            out.push(finding(
                file,
                p.line,
                "AH001",
                "allow-hygiene",
                format!(
                    "`mpr-allow` names unknown lint `{}` (known: {}); panic and clock/hash-type bans are clippy lints, exempted with `#[expect(clippy::…, reason = \"…\")]`",
                    p.lint,
                    LINT_NAMES.join(", ")
                ),
            ));
            continue;
        }
        if p.reason.is_empty() {
            out.push(finding(
                file,
                p.line,
                "AH002",
                "allow-hygiene",
                "`mpr-allow` without a justification; append ` -- <why this is sound>`".to_string(),
            ));
        }
        if !used.contains(&p.line) {
            // Stale-suppression audit covers both pragma forms: a line
            // allow that shields nothing nearby, and a file-wide allow
            // whose lint family produces zero findings anywhere in the
            // file.
            let message = if p.file_wide {
                format!(
                    "`mpr-allow-file: {}` suppresses nothing — the `{}` lints produce zero findings in this file; remove the stale file-wide allow",
                    p.lint, p.lint
                )
            } else {
                format!(
                    "`mpr-allow: {}` suppresses nothing on this or the next line; remove the stale entry",
                    p.lint
                )
            };
            out.push(finding(file, p.line, "AH003", "allow-hygiene", message));
        }
    }
    out
}
