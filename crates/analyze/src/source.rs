//! Source model: loads a Rust file and precomputes everything the lints
//! share — a comment/string-masked copy of the text, test regions,
//! `F: FloatExt`-generic function bodies, and the `mpr-allow`
//! suppression pragmas.
//!
//! The scanner is deliberately token-level (no rustc, no syn): it
//! understands just enough lexical structure (nested block comments,
//! string/char/raw-string literals, brace nesting) to make line-oriented
//! pattern checks reliable.

/// A line-scoped suppression: `// mpr-allow: <lint> -- <why>`.
#[derive(Debug, Clone)]
pub struct AllowPragma {
    /// 1-based line the pragma sits on.
    pub line: usize,
    /// Lint name the pragma suppresses (e.g. `fault-site`).
    pub lint: String,
    /// Justification text after ` -- ` (empty when missing).
    pub reason: String,
    /// Whether the pragma covers the whole file (`mpr-allow-file`).
    pub file_wide: bool,
}

/// A parsed source file plus the per-line facts lints consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// Lines with comments removed and string/char contents blanked;
    /// same line count and per-line length as the original text.
    pub masked: Vec<String>,
    /// Per line: inside `#[cfg(test)]` module or `#[test]` function.
    pub in_test: Vec<bool>,
    /// Per line: inside the body of a fn generic over `F: FloatExt`.
    pub in_generic_kernel: Vec<bool>,
    /// All suppression pragmas found in the file.
    pub pragmas: Vec<AllowPragma>,
}

impl SourceFile {
    /// Parses `text` as the contents of `rel_path`.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let masked = mask_lines(text, lines.len());
        let pragmas = collect_pragmas(&lines);
        let in_test = mark_test_regions(&masked);
        let in_generic_kernel = mark_generic_kernels(&masked);
        SourceFile {
            rel_path: rel_path.to_string(),
            masked,
            in_test,
            in_generic_kernel,
            pragmas,
        }
    }

    /// The pragma that suppresses `lint` at 1-based `line`, if any: a
    /// file-wide one, or one on the line itself or directly above.
    pub fn suppressor(&self, lint: &str, line: usize) -> Option<&AllowPragma> {
        self.pragmas
            .iter()
            .find(|p| p.lint == lint && (p.file_wide || p.line == line || p.line + 1 == line))
    }
}

/// Blanks comments entirely and the interiors of string/char literals,
/// preserving line structure and column positions of all other text.
fn mask_lines(text: &str, line_count: usize) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut out = String::with_capacity(text.len());
    let mut state = State::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = State::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    out.push('"');
                    i += consumed + 1;
                    continue;
                }
                '\'' => {
                    if let Some(len) = char_literal_len(&chars, i) {
                        out.push('\'');
                        for k in 1..len {
                            out.push(if chars[i + k] == '\n' { '\n' } else { ' ' });
                        }
                        i += len;
                        continue;
                    }
                    out.push('\''); // lifetime tick
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else {
                    out.push(' ');
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(if next == Some('\n') { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
        }
        i += 1;
    }
    let mut masked: Vec<String> = out.lines().map(str::to_string).collect();
    masked.resize(line_count, String::new());
    masked
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  b"..." is a plain byte string (handled
    // as Str would be overkill; treat b"..." via this path too).
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
        return chars.get(j) == Some(&'"');
    }
    // Bare b"...": only when i itself is 'b' followed by a quote.
    chars[i] == 'b' && chars.get(i + 1) == Some(&'"')
}

/// Returns (hash count, chars before the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

fn raw_string_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Length in chars of a char literal starting at `'`, or `None` for a
/// lifetime tick.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing quote (bounded).
            for k in 3..8 {
                if chars.get(i + k) == Some(&'\'') {
                    return Some(k + 1);
                }
            }
            None
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

fn collect_pragmas(lines: &[String]) -> Vec<AllowPragma> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        // A pragma is the entire content of a plain `//` comment (line
        // or trailing), or of a `//!` inner-doc line for the file-wide
        // form. Doc prose that merely mentions the syntax (backticks,
        // fenced examples) does not start the comment with `mpr-allow`.
        let rest = if let Some(doc) = trimmed.strip_prefix("//!") {
            let doc = doc.trim_start();
            if !doc.starts_with("mpr-allow-file:") {
                continue;
            }
            doc
        } else if trimmed.starts_with("///") {
            continue;
        } else {
            let Some(pos) = line.find("//") else {
                continue;
            };
            let comment = line[pos + 2..].trim_start();
            if !comment.starts_with("mpr-allow") {
                continue;
            }
            comment
        };
        let (file_wide, payload) = if let Some(p) = rest.strip_prefix("mpr-allow-file:") {
            (true, p)
        } else if let Some(p) = rest.strip_prefix("mpr-allow:") {
            (false, p)
        } else {
            continue;
        };
        let (lint, reason) = match payload.split_once("--") {
            Some((l, r)) => (l.trim().to_string(), r.trim().to_string()),
            None => (payload.trim().to_string(), String::new()),
        };
        out.push(AllowPragma {
            line: idx + 1,
            lint,
            reason,
            file_wide,
        });
    }
    out
}

/// Finds the line of the matching `}` for the first `{` at or after
/// `open_line` (0-based); returns the 0-based close line, or the last
/// line when unbalanced.
fn matching_close(masked: &[String], open_line: usize) -> usize {
    let mut depth = 0i32;
    let mut seen_open = false;
    for (idx, line) in masked.iter().enumerate().skip(open_line) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if seen_open && depth == 0 {
                return idx;
            }
        }
    }
    masked.len().saturating_sub(1)
}

fn mark_span(flags: &mut [bool], from: usize, to: usize) {
    for f in flags.iter_mut().take(to + 1).skip(from) {
        *f = true;
    }
}

fn mark_test_regions(masked: &[String]) -> Vec<bool> {
    let mut flags = vec![false; masked.len()];
    for (idx, line) in masked.iter().enumerate() {
        let t = line.trim();
        let is_mod_gate = t.contains("#[cfg(test)]");
        let is_fn_gate = t == "#[test]" || t.starts_with("#[test]");
        if !is_mod_gate && !is_fn_gate {
            continue;
        }
        // The gated item follows the attribute stack; a gated `use` or
        // other braceless item gates nothing we track.
        let mut item = idx;
        if !(t.contains("mod ") || t.contains("fn ")) {
            item += 1;
            while item < masked.len() {
                let s = masked[item].trim();
                if s.starts_with("#[") || s.is_empty() {
                    item += 1;
                } else {
                    break;
                }
            }
        }
        if item >= masked.len() {
            continue;
        }
        let s = masked[item].trim();
        if !(s.contains("mod ") || s.contains("fn ")) {
            continue;
        }
        let close = matching_close(masked, item);
        mark_span(&mut flags, idx, close);
    }
    flags
}

fn mark_generic_kernels(masked: &[String]) -> Vec<bool> {
    let mut flags = vec![false; masked.len()];
    for (idx, line) in masked.iter().enumerate() {
        if !line.contains("fn ") {
            continue;
        }
        // The signature may wrap before its opening brace; look at the
        // text from `fn` to the first `{`.
        let mut sig = String::new();
        let mut open = idx;
        'sig: for (j, l) in masked.iter().enumerate().skip(idx) {
            sig.push_str(l);
            sig.push(' ');
            if l.contains('{') {
                open = j;
                break 'sig;
            }
            if j > idx + 8 {
                break 'sig; // not a fn with a nearby body
            }
        }
        if !sig.contains(": FloatExt") {
            continue;
        }
        let close = matching_close(masked, open);
        // The body is generic; the signature lines themselves (which
        // legitimately mention `Vec<f64>` interface types) are not.
        if open < close {
            mark_span(&mut flags, open + 1, close.saturating_sub(1));
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"// not a comment\"; // real { brace }\nlet b = 1.0;\n",
        );
        assert!(!f.masked[0].contains("not"));
        assert!(!f.masked[0].contains("real"));
        assert!(!f.masked[0].contains('{'));
        assert_eq!(f.masked[1].trim(), "let b = 1.0;");
    }

    #[test]
    fn masking_handles_nested_block_comments_and_raw_strings() {
        let src = "/* a /* b */ c */ let x = r#\"quote \" here\"#; let y = 2;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.masked[0].contains('a'));
        assert!(!f.masked[0].contains("quote"));
        assert!(f.masked[0].contains("let y = 2;"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '{'; c }\n";
        let f = SourceFile::parse("x.rs", src);
        // The brace inside the char literal must not unbalance braces.
        assert_eq!(f.masked[0].matches('{').count(), 1);
        assert!(f.masked[0].contains("'a"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[2]);
        assert!(f.in_test[3]);
        assert!(f.in_test[4]);
    }

    #[test]
    fn generic_kernel_body_is_marked_signature_excluded() {
        let src = "fn run<F: FloatExt>(&self) -> Vec<f64> {\n    let x = F::zero();\n}\nfn other() {\n    let y = 1.0f64;\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_generic_kernel[0]);
        assert!(f.in_generic_kernel[1]);
        assert!(!f.in_generic_kernel[3]);
        assert!(!f.in_generic_kernel[4]);
    }

    #[test]
    fn pragmas_parse_with_reason() {
        let src = "// mpr-allow: fault-site -- index setup, not data\nx += 1;\n//! mpr-allow-file: determinism-taint -- documented\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.pragmas.len(), 2);
        assert_eq!(f.pragmas[0].lint, "fault-site");
        assert!(f.pragmas[0].reason.contains("index"));
        assert_eq!(f.suppressor("fault-site", 2).map(|p| p.line), Some(1));
        assert!(f.suppressor("fault-site", 3).is_none());
        assert!(f.pragmas[1].file_wide);
        assert_eq!(
            f.suppressor("determinism-taint", 999).map(|p| p.line),
            Some(3)
        );
    }
}
