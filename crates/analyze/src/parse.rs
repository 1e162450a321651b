//! Item-level parser: function signatures and bodies — no full
//! grammar.
//!
//! The parser walks the token stream once and recovers just the
//! structure the dataflow pass needs: every `fn` with its name,
//! parameters, return type, and body token range. Function items are
//! recognized at *any* brace depth, so item-like code inside macro
//! invocations
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

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name (`run_strike_batch`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters with recoverable `name: Type` shape.
    pub params: Vec<Param>,
    /// Return type text (empty when the fn returns `()`).
    pub ret: String,
    /// Token index range of the body: `[open_brace, close_brace]`
    /// inclusive of both braces.
    pub body: (usize, usize),
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
        let mut fns = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].is_ident("fn") {
                if let Some((item, next)) = parse_fn(&tokens, &braces, i) {
                    fns.push(item);
                    i = next;
                    continue;
                }
            }
            i += 1;
        }
        ParsedFile { tokens, fns }
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

/// Parses a `fn` item starting at token `at` (the `fn` keyword).
/// Returns the item and the token index to resume scanning from (just
/// past the signature — nested fns inside the body are found by the
/// main loop continuing through it).
fn parse_fn(tokens: &[Token], braces: &[Option<usize>], at: usize) -> Option<(FnItem, usize)> {
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
    let item = FnItem {
        name,
        line: tokens[at].line,
        params,
        ret: ret_tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        body: (body_open, body_close.min(tokens.len() - 1)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&SourceFile::parse("x.rs", src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("`{name}` not parsed"))
    }

    #[test]
    fn fn_signature_is_recovered() {
        let p = parse("fn scale(x: f64, n: usize) -> f32 {\n    helper(x)\n}\n");
        let f = fn_named(&p, "scale");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "x");
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.ret, "f32");
    }

    #[test]
    fn fns_inside_macro_invocations_are_found() {
        let p = parse("monomorphic_workload! {\n    fn kernel<F: FloatExt>(x: F) {\n        touch(x);\n    }\n}\n");
        let f = fn_named(&p, "kernel");
        assert_eq!(f.line, 2);
        assert_eq!(f.params[0].ty, "F");
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let p = parse("trait Hook {\n    fn touch(&self, x: f64) -> f64;\n}\n");
        assert!(p.fns.is_empty());
    }
}
