//! Item-level parser: functions, impl blocks, calls, and panic sites
//! — no full grammar.
//!
//! The parser walks the token stream once and recovers just the
//! structure the dataflow and call-graph passes need: every `fn` with
//! its name, parameters, return type, and body token range; and, per
//! function, the names it calls and the places it can panic. Function
//! items are recognized at *any* brace depth, so item-like code inside
//! macro invocations
//! (`monomorphic_workload! { fn run<F: FloatExt>(..) {..} }`) is
//! analyzed like ordinary code instead of vanishing into an opaque
//! macro body.

use crate::lexer::{lex, TokKind, Token};
use crate::source::SourceFile;

/// One `name: Type` function parameter (pattern params are skipped).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// Type text, tokens joined by single spaces (e.g. `& [ f64 ]`).
    pub ty: String,
}

/// Where a function can panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(..)`
    Expect,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`
    Macro,
    /// Slice/array indexing with a non-literal index.
    Index,
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// What panics there.
    pub kind: PanicKind,
    /// Short source-ish rendering for the message (`.unwrap()`,
    /// `buf[idx]`).
    pub what: String,
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name (`run_strike_batch`).
    pub name: String,
    /// Qualified name when inside an `impl` block (`Gemm::run_strike_batch`),
    /// otherwise the simple name.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters with recoverable `name: Type` shape.
    pub params: Vec<Param>,
    /// Return type text (empty when the fn returns `()`).
    pub ret: String,
    /// True when the signature carries a `: FloatExt` bound.
    pub generic_float: bool,
    /// Token index range of the body: `[open_brace, close_brace]`
    /// inclusive of both braces.
    pub body: (usize, usize),
    /// Simple names of everything this body calls (`foo(..)`,
    /// `.method(..)`, `Path::assoc(..)`), in source order.
    pub calls: Vec<String>,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
}

/// Everything recovered from one file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Tokens, shared by the flow pass.
    pub tokens: Vec<Token>,
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// Parses the masked text of `file`.
    pub fn parse(file: &SourceFile) -> ParsedFile {
        let tokens = lex(&file.masked);
        let braces = match_braces(&tokens);
        let impls = impl_contexts(&tokens, &braces);
        let mut fns = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].is_ident("fn") {
                if let Some((item, next)) = parse_fn(&tokens, &braces, &impls, i) {
                    fns.push(item);
                    i = next;
                    continue;
                }
            }
            i += 1;
        }
        ParsedFile { tokens, fns }
    }

    /// The function whose signature declares parameter `param` as type
    /// text containing `ty` — used by fixtures/tests.
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }
}

/// Token index of the matching close brace for each open brace.
fn match_braces(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut map = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                map[open] = Some(i);
            }
        }
    }
    map
}

/// `(open_brace, close_brace, self_type)` for each `impl` block.
fn impl_contexts(tokens: &[Token], braces: &[Option<usize>]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        // Scan to the block's `{`; the self type is the first path
        // segment after `for` when present (`impl Trait for Type`),
        // otherwise the first identifier after any generics.
        let mut j = i + 1;
        let mut after_for = None;
        let mut first_ident = None;
        let mut angle = 0i32;
        while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
            let tok = &tokens[j];
            match tok.text.as_str() {
                "<" if tok.kind == TokKind::Punct => angle += 1,
                ">" if tok.kind == TokKind::Punct => angle -= 1,
                ">>" if tok.kind == TokKind::Punct => angle -= 2,
                "for" if tok.kind == TokKind::Ident && angle <= 0 => {
                    // `impl Trait for Type`: the self type follows.
                    first_ident = None;
                    after_for = Some(());
                }
                _ if tok.kind == TokKind::Ident && angle <= 0 => {
                    if after_for.is_some() {
                        first_ident = Some(tok.text.clone());
                        after_for = None;
                    } else if first_ident.is_none() {
                        first_ident = Some(tok.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct("{") {
            if let (Some(close), Some(ty)) = (braces[j], first_ident) {
                out.push((j, close, ty));
            }
        }
    }
    out
}

/// Parses a `fn` item starting at token `at` (the `fn` keyword).
/// Returns the item and the token index to resume scanning from (just
/// past the signature — nested fns inside the body are found by the
/// main loop continuing through it).
fn parse_fn(
    tokens: &[Token],
    braces: &[Option<usize>],
    impls: &[(usize, usize, String)],
    at: usize,
) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(..)` pointer type
    }
    let name = name_tok.text.clone();
    let mut i = at + 2;
    // Generics.
    if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "<" if tokens[i].kind == TokKind::Punct => depth += 1,
                ">" if tokens[i].kind == TokKind::Punct => depth -= 1,
                ">>" if tokens[i].kind == TokKind::Punct => depth -= 2,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    // Parameters.
    if !tokens.get(i).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let params_open = i;
    let mut depth = 0i32;
    while i < tokens.len() {
        if tokens[i].is_punct("(") {
            depth += 1;
        } else if tokens[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        i += 1;
    }
    let params_close = i;
    if params_close >= tokens.len() {
        return None;
    }
    let params = parse_params(&tokens[params_open + 1..params_close]);
    // Return type and the rest of the signature, up to `{` or `;`.
    i = params_close + 1;
    let mut ret_tokens: Vec<&Token> = Vec::new();
    let mut in_ret = false;
    while i < tokens.len() && !tokens[i].is_punct("{") && !tokens[i].is_punct(";") {
        if tokens[i].is_punct("->") {
            in_ret = true;
        } else if tokens[i].is_ident("where") {
            in_ret = false;
        } else if in_ret {
            ret_tokens.push(&tokens[i]);
        }
        i += 1;
    }
    if i >= tokens.len() || tokens[i].is_punct(";") {
        // Trait method declaration without a body.
        return None;
    }
    let body_open = i;
    let body_close = braces[body_open].unwrap_or(tokens.len() - 1);
    let generic_float = (at..body_open).any(|k| {
        tokens[k].is_punct(":") && tokens.get(k + 1).is_some_and(|t| t.is_ident("FloatExt"))
    });
    let qual = impls
        .iter()
        .find(|(open, close, _)| *open < at && at < *close)
        .map(|(_, _, ty)| format!("{ty}::{name}"))
        .unwrap_or_else(|| name.clone());
    let body_tokens = &tokens[body_open..=body_close.min(tokens.len() - 1)];
    let item = FnItem {
        name,
        qual,
        line: tokens[at].line,
        params,
        ret: ret_tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        generic_float,
        body: (body_open, body_close.min(tokens.len() - 1)),
        calls: collect_calls(body_tokens),
        panics: collect_panics(body_tokens),
    };
    Some((item, body_open + 1))
}

/// Splits a parameter token slice at top-level commas into
/// `name: Type` params; destructuring patterns are skipped.
fn parse_params(tokens: &[Token]) -> Vec<Param> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let mut flush = |range: &[Token]| {
        // `name : Type` — possibly prefixed by `mut`; `self` forms and
        // patterns have no single leading ident before the colon.
        let mut k = 0;
        while range.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let (Some(name), Some(colon)) = (range.get(k), range.get(k + 1)) else {
            return;
        };
        if name.kind != TokKind::Ident || !colon.is_punct(":") || name.text == "self" {
            return;
        }
        let ty = range[k + 2..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        out.push(Param {
            name: name.text.clone(),
            ty,
        });
    };
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" | ">" if t.kind == TokKind::Punct => depth -= 1,
            ">>" if t.kind == TokKind::Punct => depth -= 2,
            "," if t.kind == TokKind::Punct && depth <= 0 => {
                flush(&tokens[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < tokens.len() {
        flush(&tokens[start..]);
    }
    out
}

/// Simple names of every call in a body token slice.
fn collect_calls(body: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        if body[i].kind != TokKind::Ident {
            continue;
        }
        let Some(next) = body.get(i + 1) else {
            continue;
        };
        let called = next.is_punct("(")
            || (next.is_punct("!") && body.get(i + 2).is_some_and(|t| t.is_punct("(")));
        if !called {
            continue;
        }
        // `fn name(..)` nested item — a definition, not a call.
        if i > 0 && body[i - 1].is_ident("fn") {
            continue;
        }
        out.push(body[i].text.clone());
    }
    out
}

/// True when `tokens[i]` starts exactly where `tokens[i-1]` ends (no
/// whitespace between them on the same line).
fn adjacent(prev: &Token, tok: &Token) -> bool {
    prev.line == tok.line && prev.col + prev.text.len() == tok.col
}

/// Potential panic sites in a body token slice.
fn collect_panics(body: &[Token]) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind == TokKind::Ident {
            let next = body.get(i + 1);
            let prev_dot = i > 0 && body[i - 1].is_punct(".");
            if prev_dot && next.is_some_and(|n| n.is_punct("(")) {
                match t.text.as_str() {
                    "unwrap" => out.push(PanicSite {
                        line: t.line,
                        kind: PanicKind::Unwrap,
                        what: ".unwrap()".to_string(),
                    }),
                    "expect" => out.push(PanicSite {
                        line: t.line,
                        kind: PanicKind::Expect,
                        what: ".expect(..)".to_string(),
                    }),
                    _ => {}
                }
            }
            if next.is_some_and(|n| n.is_punct("!"))
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                out.push(PanicSite {
                    line: t.line,
                    kind: PanicKind::Macro,
                    what: format!("{}!", t.text),
                });
            }
        }
        // Indexing: `expr[..]` — `[` glued to an ident/`)`/`]`, with a
        // non-literal index inside. `let x = [0; n]`, slice types
        // `&[f64]`, and `vec![..]` never have an ident/close directly
        // before the bracket.
        if t.is_punct("[") && i > 0 {
            let prev = &body[i - 1];
            let indexable = (prev.kind == TokKind::Ident
                && !matches!(prev.text.as_str(), "return" | "in" | "else"))
                || prev.is_punct(")")
                || prev.is_punct("]");
            if !(indexable && adjacent(prev, t)) {
                continue;
            }
            // Find the matching `]` and require a variable index.
            let mut depth = 0i32;
            let mut j = i;
            let mut has_ident = false;
            while j < body.len() {
                if body[j].is_punct("[") {
                    depth += 1;
                } else if body[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth >= 1 && body[j].kind == TokKind::Ident {
                    has_ident = true;
                }
                j += 1;
            }
            if has_ident {
                let base = if prev.kind == TokKind::Ident {
                    prev.text.clone()
                } else {
                    "..".to_string()
                };
                out.push(PanicSite {
                    line: t.line,
                    kind: PanicKind::Index,
                    what: format!("{base}[..]"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&SourceFile::parse("x.rs", src))
    }

    #[test]
    fn fn_signature_is_recovered() {
        let p = parse("fn scale(x: f64, n: usize) -> f32 {\n    helper(x)\n}\n");
        let f = p.fn_named("scale").expect("parsed");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "x");
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.ret, "f32");
        assert_eq!(f.calls, vec!["helper".to_string()]);
    }

    #[test]
    fn generic_float_bound_is_detected() {
        let p = parse("fn run<F: FloatExt>(a: &mut [F]) {\n}\nfn plain(a: f64) {}\n");
        assert!(p.fn_named("run").expect("run").generic_float);
        assert!(!p.fn_named("plain").expect("plain").generic_float);
    }

    #[test]
    fn impl_methods_are_qualified() {
        let p = parse("impl Gemm {\n    fn run_strike_batch(&self) {}\n}\nimpl Workload for Lud {\n    fn run(&self) {}\n}\n");
        assert_eq!(
            p.fn_named("run_strike_batch").expect("m").qual,
            "Gemm::run_strike_batch"
        );
        assert_eq!(p.fn_named("run").expect("m").qual, "Lud::run");
    }

    #[test]
    fn fns_inside_macro_invocations_are_found() {
        let p = parse("monomorphic_workload! {\n    fn kernel<F: FloatExt>(x: F) {\n        touch(x);\n    }\n}\n");
        let f = p.fn_named("kernel").expect("macro-wrapped fn parsed");
        assert!(f.generic_float);
        assert_eq!(f.calls, vec!["touch".to_string()]);
    }

    #[test]
    fn panic_sites_are_collected() {
        let p = parse(
            "fn f(v: &[f64], i: usize) -> f64 {\n    let x = v.first().unwrap();\n    let y = v.get(1).expect(\"one\");\n    if *x > 0.0 { panic!(\"no\") }\n    v[i + 1]\n}\n",
        );
        let f = p.fn_named("f").expect("f");
        let kinds: Vec<PanicKind> = f.panics.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&PanicKind::Unwrap));
        assert!(kinds.contains(&PanicKind::Expect));
        assert!(kinds.contains(&PanicKind::Macro));
        assert!(kinds.contains(&PanicKind::Index));
    }

    #[test]
    fn literal_indexing_and_slice_types_are_not_panic_sites() {
        let p = parse("fn f(v: &[f64]) -> f64 {\n    let a = [0.0; 4];\n    a[0] + v[1]\n}\n");
        let f = p.fn_named("f").expect("f");
        assert!(f.panics.is_empty(), "sites: {:?}", f.panics);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let p = parse("trait Hook {\n    fn touch(&self, x: f64) -> f64;\n}\n");
        assert!(p.fns.is_empty());
    }
}
