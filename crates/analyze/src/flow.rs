//! Flow-sensitive taint analysis over function bodies.
//!
//! Two lint families run here, both working on the tokens of one
//! function at a time with an environment mapping bindings to taints:
//!
//! * **PL005 precision-taint** — a value known to be binary16 (`Half`),
//!   `f32`, or `f64` reaching an op or sink of a *different* precision
//!   (mixed arithmetic, a lossy `as` narrowing, a call parameter, a
//!   return, a struct field, or a cross-width `from_bits`
//!   reinterpretation) without passing through one of the blessed
//!   conversion fns (`from_f64`/`to_f64`/`from_f32`/`to_f32`,
//!   `Half::from_bits`). Unlike PL001–PL004 this follows the value
//!   through `let` bindings across lines, and it is not limited to
//!   `FloatExt`-generic bodies.
//! * **DT004 determinism-taint** — a nondeterminism source (`Instant`,
//!   `SystemTime`, thread ids/counts, `HashMap`/`HashSet` iteration,
//!   `RandomState`, or a weak multiply-XOR seed derivation) flowing
//!   into a determinism sink: RNG seeding, `CellKey` construction,
//!   cache byte writes, or campaign result vectors. Two shapes this
//!   catches are exactly the PR 3 bugs: per-strike seeds derived with
//!   `seed * C ^ i` instead of a full avalanche, and worker loops
//!   pushing results in thread-stride order without an index tag.
//!
//! The analysis is intraprocedural and flow-sensitive in statement
//! order; call boundaries are checked against same-file signatures
//! (the workspace call graph handles reachability, see
//! [`crate::callgraph`]). It is a lint, not a type checker: unknown
//! constructs default to untainted, so the cost of imprecision is a
//! missed finding, never a spurious gate failure from code the parser
//! cannot see through.

use crate::lexer::{TokKind, Token};
use crate::parse::{FnItem, ParsedFile};
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeMap;

/// A concrete floating-point precision a value can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prec {
    /// binary16 (`Half` or its `u16` bit pattern).
    B16,
    /// binary32.
    F32,
    /// binary64.
    F64,
}

impl Prec {
    fn name(self) -> &'static str {
        match self {
            Prec::B16 => "binary16",
            Prec::F32 => "f32",
            Prec::F64 => "f64",
        }
    }
}

/// A nondeterminism source class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Det {
    /// `Instant`/`SystemTime` reads.
    Clock,
    /// Thread identity or thread count.
    Thread,
    /// `HashMap`/`HashSet` iteration order or `RandomState`.
    HashIter,
    /// Weak (non-avalanche) seed derivation: `*`/`^` arithmetic on a
    /// seed that did not pass through `mix_seed`/`splitmix64`.
    WeakSeed,
    /// A loop index whose iteration schedule depends on the worker
    /// stride (thread-count-dependent order).
    Schedule,
}

impl Det {
    fn describe(self) -> &'static str {
        match self {
            Det::Clock => "a wall/monotonic clock read",
            Det::Thread => "thread identity or thread count",
            Det::HashIter => "hash-order iteration",
            Det::WeakSeed => "a weak multiply-XOR seed derivation",
            Det::Schedule => "a thread-stride iteration schedule",
        }
    }
}

/// The taint carried by one binding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Taint {
    /// Known concrete precision, when any.
    pub prec: Option<Prec>,
    /// Determinism taints (sorted, deduped).
    pub det: Vec<Det>,
    /// True when the value is a `HashMap`/`HashSet` container (its
    /// *iteration* yields `Det::HashIter`).
    pub hash_container: bool,
}

impl Taint {
    fn join(&mut self, other: &Taint) {
        // Mixed precision joins keep the first; the mixing itself is
        // reported at the op, not stored.
        if self.prec.is_none() {
            self.prec = other.prec;
        }
        for d in &other.det {
            if !self.det.contains(d) {
                self.det.push(*d);
            }
        }
        self.det.sort();
        self.hash_container |= other.hash_container;
    }

    fn with_det(d: Det) -> Taint {
        Taint {
            det: vec![d],
            ..Taint::default()
        }
    }

    fn with_prec(p: Prec) -> Taint {
        Taint {
            prec: Some(p),
            ..Taint::default()
        }
    }
}

/// Blessed precision-conversion fns: flowing through one is the
/// audited way to change precision.
const BLESSED_CONV: [&str; 6] = [
    "from_f64", "to_f64", "from_f32", "to_f32", "widen", "narrow",
];

/// Blessed seed mixers: a derivation through one is a full avalanche.
const BLESSED_MIX: [&str; 4] = ["mix_seed", "splitmix64", "fnv1a64", "seed_for"];

/// Identifiers that denote a worker/thread count or index when they
/// shape an iteration schedule.
const THREAD_IDENTS: [&str; 9] = [
    "threads",
    "n_threads",
    "num_threads",
    "workers",
    "n_workers",
    "worker",
    "worker_idx",
    "worker_id",
    "thread_idx",
];

/// Sinks whose argument seeds an RNG stream.
const SEED_SINKS: [&str; 3] = ["seed_from_u64", "from_seed", "new_seeded"];

/// Signature knowledge for one file: fn name → (param precisions,
/// return precision), struct field → precision.
struct FileSigs {
    fns: BTreeMap<String, (Vec<Option<Prec>>, Option<Prec>)>,
    fields: BTreeMap<String, Prec>,
    structs: Vec<String>,
}

/// Precision named by a type's token text, when unambiguous.
fn prec_of_type(ty: &str) -> Option<Prec> {
    let has = |w: &str| {
        ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|t| t == w)
    };
    match (has("Half") || has("u16"), has("f32"), has("f64")) {
        (true, false, false) => Some(Prec::B16),
        (false, true, false) => Some(Prec::F32),
        (false, false, true) => Some(Prec::F64),
        _ => None,
    }
}

impl FileSigs {
    fn build(parsed: &ParsedFile) -> FileSigs {
        let mut fns = BTreeMap::new();
        for f in &parsed.fns {
            let params = f
                .params
                .iter()
                .map(|p| prec_of_type(&p.ty))
                .collect::<Vec<_>>();
            fns.insert(f.name.clone(), (params, prec_of_type(&f.ret)));
        }
        let mut fields = BTreeMap::new();
        let mut structs = Vec::new();
        for s in &parsed.structs {
            structs.push(s.name.clone());
            for (name, ty) in &s.fields {
                if let Some(p) = prec_of_type(ty) {
                    fields.insert(name.clone(), p);
                }
            }
        }
        FileSigs {
            fns,
            fields,
            structs,
        }
    }
}

/// Runs both taint lints over every function of `parsed`.
/// `precision` / `determinism` gate the two families independently so
/// path scoping stays in [`crate::lint_applies`].
pub fn taint_lints(
    file: &SourceFile,
    parsed: &ParsedFile,
    precision: bool,
    determinism: bool,
) -> Vec<Finding> {
    let sigs = FileSigs::build(parsed);
    let mut out = Vec::new();
    for f in &parsed.fns {
        if file.in_test.get(f.line - 1).copied().unwrap_or(false) {
            continue;
        }
        let mut fa = FnFlow::new(file, parsed, f, &sigs, precision, determinism);
        fa.run();
        out.extend(fa.findings);
    }
    out
}

/// One function's flow state.
struct FnFlow<'a> {
    file: &'a SourceFile,
    toks: &'a [Token],
    item: &'a FnItem,
    sigs: &'a FileSigs,
    precision: bool,
    determinism: bool,
    env: BTreeMap<String, Taint>,
    /// Innermost-last stack of (loop variable, schedule-tainted).
    loops: Vec<(String, bool)>,
    /// Bindings declared inside the current loop nest.
    loop_locals: Vec<String>,
    findings: Vec<Finding>,
}

impl<'a> FnFlow<'a> {
    fn new(
        file: &'a SourceFile,
        parsed: &'a ParsedFile,
        item: &'a FnItem,
        sigs: &'a FileSigs,
        precision: bool,
        determinism: bool,
    ) -> FnFlow<'a> {
        let mut env = BTreeMap::new();
        for p in &item.params {
            let mut t = Taint {
                prec: prec_of_type(&p.ty),
                hash_container: p.ty.contains("HashMap") || p.ty.contains("HashSet"),
                ..Taint::default()
            };
            if THREAD_IDENTS.contains(&p.name.as_str()) {
                t.det.push(Det::Thread);
            }
            env.insert(p.name.clone(), t);
        }
        FnFlow {
            file,
            toks: &parsed.tokens,
            item,
            sigs,
            precision,
            determinism,
            env,
            loops: Vec::new(),
            loop_locals: Vec::new(),
            findings: Vec::new(),
        }
    }

    fn flag(&mut self, line: usize, lint: &'static str, name: &'static str, message: String) {
        self.findings.push(Finding {
            file: self.file.rel_path.clone(),
            line,
            lint: lint.to_string(),
            name: name.to_string(),
            message,
        });
    }

    /// Walks the body, splitting statements at `;`/`{`/`}` (paren and
    /// bracket nesting kept whole) and tracking `for` loop contexts.
    fn run(&mut self) {
        let (open, close) = self.item.body;
        let mut i = open + 1;
        let mut stmt_start = i;
        let mut depth = 0i32;
        // Brace-token indices at which a loop context ends.
        let mut loop_ends: Vec<usize> = Vec::new();
        while i < close {
            let t = &self.toks[i];
            // Nested fn items are separate analysis units: skip them.
            if t.is_ident("fn")
                && self
                    .toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident)
            {
                if let Some(end) = skip_to_body_close(self.toks, i, close) {
                    i = end + 1;
                    stmt_start = i;
                    continue;
                }
            }
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
                "{" if t.kind == TokKind::Punct && depth <= 0 => {
                    let stmt = &self.toks[stmt_start..i];
                    let head_is_for = stmt.first().is_some_and(|t| t.is_ident("for"));
                    if head_is_for {
                        if let Some(end) = matching_brace(self.toks, i, close) {
                            self.enter_loop(stmt);
                            loop_ends.push(end);
                        }
                    } else {
                        self.statement(stmt);
                    }
                    stmt_start = i + 1;
                }
                "}" if t.kind == TokKind::Punct && depth <= 0 => {
                    self.statement(&self.toks[stmt_start..i]);
                    if loop_ends.last() == Some(&i) {
                        loop_ends.pop();
                        self.exit_loop();
                    }
                    stmt_start = i + 1;
                }
                ";" if t.kind == TokKind::Punct && depth <= 0 => {
                    self.statement(&self.toks[stmt_start..i]);
                    stmt_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        // Tail expression: an unterminated final statement is the
        // function's return value.
        let tail = &self.toks[stmt_start.min(close)..close];
        if !tail.is_empty() {
            self.statement(tail);
            self.check_return(tail, tail[0].line);
        }
    }

    /// Handles `for <var> in <range> {` — decides whether the loop
    /// variable carries a schedule taint.
    fn enter_loop(&mut self, head: &[Token]) {
        // head = `for pat in expr`
        let var = head
            .get(1)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let in_pos = head.iter().position(|t| t.is_ident("in"));
        let range = in_pos.map(|p| &head[p + 1..]).unwrap_or(&[]);
        let range_taint = self.expr_taint(range);
        let mentions_thread = range.iter().any(|t| {
            t.kind == TokKind::Ident
                && (THREAD_IDENTS.contains(&t.text.as_str())
                    || self
                        .env
                        .get(&t.text)
                        .is_some_and(|tt| tt.det.contains(&Det::Thread)))
        });
        let strided = range.iter().any(|t| t.is_ident("step_by"));
        let schedule = mentions_thread && strided;
        if !var.is_empty() {
            let mut t = Taint::default();
            if schedule {
                t.det.push(Det::Schedule);
            }
            // Iterating a hash container (directly or via
            // `.iter()/.keys()/.values()/.drain()`) yields items in
            // hash order.
            if range_taint.hash_container || range_taint.det.contains(&Det::HashIter) {
                t.det.push(Det::HashIter);
            }
            self.env.insert(var.clone(), t);
        }
        self.loops.push((var, schedule));
    }

    fn exit_loop(&mut self) {
        self.loops.pop();
        if self.loops.is_empty() {
            for name in self.loop_locals.drain(..) {
                self.env.remove(&name);
            }
        }
    }

    /// Analyzes one statement: sink checks first (on the pre-statement
    /// environment), then the binding update.
    fn statement(&mut self, stmt: &[Token]) {
        if stmt.is_empty() {
            return;
        }
        let line = stmt[0].line;
        if self.precision {
            self.check_mixed_arith(stmt, line);
            self.check_narrowing(stmt, line);
            self.check_from_bits(stmt, line);
            self.check_call_params(stmt, line);
            self.check_struct_fields(stmt, line);
            if stmt.first().is_some_and(|t| t.is_ident("return")) {
                self.check_return(&stmt[1..], line);
            }
        }
        if self.determinism {
            self.check_seed_sinks(stmt, line);
            self.check_collection_sinks(stmt, line);
            self.check_write_sinks(stmt, line);
        }
        self.bind(stmt);
    }

    // -- environment -------------------------------------------------

    /// Applies `let x = ..` / `x = ..` / `x op= ..` to the env.
    fn bind(&mut self, stmt: &[Token]) {
        let mut k = 0;
        let is_let = stmt.first().is_some_and(|t| t.is_ident("let"));
        if is_let {
            k += 1;
        }
        while stmt.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name_tok) = stmt.get(k) else { return };
        if name_tok.kind != TokKind::Ident {
            return; // destructuring patterns are not tracked
        }
        let name = name_tok.text.clone();
        // Optional ascription `: Type` up to `=`.
        let eq = stmt.iter().position(|t| t.is_punct("="));
        let compound = stmt.iter().position(|t| {
            matches!(
                t.text.as_str(),
                "+=" | "-=" | "*=" | "/=" | "^=" | "|=" | "&=" | "<<=" | ">>="
            ) && t.kind == TokKind::Punct
        });
        let (assign_at, joins) = match (eq, compound) {
            (Some(e), None) => (e, false),
            (None, Some(c)) => (c, true),
            (Some(e), Some(c)) => {
                if e < c {
                    (e, false)
                } else {
                    (c, true)
                }
            }
            (None, None) => return,
        };
        // Plain assignments only bind when the LHS is a bare ident
        // (field/index stores do not rebind).
        if !is_let && assign_at != k + 1 {
            return;
        }
        let mut taint = self.expr_taint(&stmt[assign_at + 1..]);
        if is_let {
            // Ascribed type wins for precision and container class.
            let ty_text: String = stmt[k + 1..assign_at]
                .iter()
                .filter(|t| !t.is_punct(":"))
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if let Some(p) = prec_of_type(&ty_text) {
                taint.prec = Some(p);
            }
            if ty_text.contains("HashMap") || ty_text.contains("HashSet") {
                taint.hash_container = true;
            }
            if !self.loops.is_empty() {
                self.loop_locals.push(name.clone());
            }
            self.env.insert(name, taint);
        } else if joins {
            self.env.entry(name).or_default().join(&taint);
        } else {
            self.env.insert(name, taint);
        }
    }

    /// Joined taint of an expression token slice.
    fn expr_taint(&self, expr: &[Token]) -> Taint {
        let mut t = Taint::default();
        // Token ranges consumed by blessed mixer calls — excluded from
        // the weak-derivation scan below (feeding raw arithmetic *into*
        // an avalanche is exactly what the mixers are for).
        let mut mixed: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < expr.len() {
            let tok = &expr[i];
            match tok.kind {
                TokKind::Ident => {
                    let name = tok.text.as_str();
                    let next_open = expr.get(i + 1).is_some_and(|n| n.is_punct("("));
                    if next_open {
                        // A call: conversions and mixers transform
                        // taint instead of propagating it raw.
                        if BLESSED_CONV.contains(&name) {
                            let target = match name {
                                "to_f64" => Some(Prec::F64),
                                "to_f32" => Some(Prec::F32),
                                _ => self.conv_target(expr, i),
                            };
                            if let Some(end) = matching_paren(expr, i + 1) {
                                i = end + 1;
                            } else {
                                i += 1;
                            }
                            let conv = Taint {
                                prec: target,
                                ..Taint::default()
                            };
                            t.join(&conv);
                            continue;
                        }
                        if BLESSED_MIX.contains(&name) {
                            // A full avalanche cleanses weak-derivation
                            // taint but not clock/thread/hash taints.
                            if let Some(end) = matching_paren(expr, i + 1) {
                                let mut inner = self.expr_taint(&expr[i + 2..end]);
                                inner.det.retain(|d| *d != Det::WeakSeed);
                                inner.prec = None;
                                t.join(&inner);
                                mixed.push((i, end));
                                i = end + 1;
                                continue;
                            }
                        }
                        if let Some((_, Some(p))) = self.sigs.fns.get(name) {
                            t.join(&Taint::with_prec(*p));
                        }
                        match name {
                            "now" | "elapsed" | "duration_since" => {
                                t.join(&Taint::with_det(Det::Clock))
                            }
                            // `thread::current()` / thread counts.
                            "current" if path_prefix(expr, i).as_deref() != Some("thread") => {}
                            "available_parallelism" | "current" => {
                                t.join(&Taint::with_det(Det::Thread));
                            }
                            "iter" | "keys" | "values" | "drain" | "into_iter" => {
                                if let Some(recv) = receiver_ident(expr, i) {
                                    if self.env.get(&recv).is_some_and(|rt| rt.hash_container) {
                                        t.join(&Taint::with_det(Det::HashIter));
                                    }
                                }
                            }
                            "new" | "with_capacity" | "default" => {
                                if matches!(
                                    path_prefix(expr, i).as_deref(),
                                    Some("HashMap") | Some("HashSet")
                                ) {
                                    t.hash_container = true;
                                }
                                if path_prefix(expr, i).as_deref() == Some("RandomState") {
                                    t.join(&Taint::with_det(Det::HashIter));
                                }
                            }
                            "from_bits" => {
                                if let Some(p) = self.conv_target(expr, i) {
                                    t.join(&Taint::with_prec(p));
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                        continue;
                    }
                    match name {
                        "Instant" | "SystemTime" => t.join(&Taint::with_det(Det::Clock)),
                        "RandomState" => t.join(&Taint::with_det(Det::HashIter)),
                        "ThreadId" => t.join(&Taint::with_det(Det::Thread)),
                        _ => {
                            if let Some(known) = self.env.get(name) {
                                t.join(known);
                            }
                        }
                    }
                }
                TokKind::Float => {
                    let p = if tok.text.ends_with("f32") {
                        Prec::F32
                    } else {
                        Prec::F64
                    };
                    t.join(&Taint::with_prec(p));
                }
                _ => {}
            }
            i += 1;
        }
        // Weak seed derivation: xor/multiply arithmetic on a seed-like
        // operand outside any blessed mixer call.
        let outside_mixers = |k: usize| !mixed.iter().any(|&(a, b)| a <= k && k <= b);
        let weak_ops = expr.iter().enumerate().any(|(k, t)| {
            outside_mixers(k)
                && (t.kind == TokKind::Punct && matches!(t.text.as_str(), "^" | "^=")
                    || t.is_ident("wrapping_mul")
                    || t.is_ident("rotate_left"))
        });
        let seedish = expr
            .iter()
            .enumerate()
            .any(|(k, t)| outside_mixers(k) && t.kind == TokKind::Ident && t.text.contains("seed"));
        if weak_ops && seedish {
            t.join(&Taint::with_det(Det::WeakSeed));
        }
        t
    }

    /// Target precision of a conversion/`from_bits` call at `i`, read
    /// from its path qualifier (`Half::from_bits`, `f32::from_bits`)
    /// or receiver taint.
    fn conv_target(&self, expr: &[Token], i: usize) -> Option<Prec> {
        match path_prefix(expr, i).as_deref() {
            Some("Half") => Some(Prec::B16),
            Some("f32") => Some(Prec::F32),
            Some("f64") => Some(Prec::F64),
            Some("F") => None, // generic: no concrete precision
            _ => None,
        }
    }

    // -- precision sinks (PL005) -------------------------------------

    /// Arithmetic mixing two known, different precisions in one
    /// statement without a blessed conversion.
    fn check_mixed_arith(&mut self, stmt: &[Token], line: usize) {
        let has_arith = stmt
            .iter()
            .any(|t| t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*" | "/"));
        if !has_arith || stmt.iter().any(is_blessed_tok) {
            return;
        }
        let mut precs: Vec<Prec> = Vec::new();
        for tok in stmt {
            let p = match tok.kind {
                TokKind::Ident => self.env.get(&tok.text).and_then(|t| t.prec),
                TokKind::Float => Some(if tok.text.ends_with("f32") {
                    Prec::F32
                } else {
                    Prec::F64
                }),
                _ => None,
            };
            if let Some(p) = p {
                if !precs.contains(&p) {
                    precs.push(p);
                }
            }
        }
        if precs.len() >= 2 {
            precs.sort();
            let names: Vec<&str> = precs.iter().map(|p| p.name()).collect();
            self.flag(
                line,
                "PL005",
                "precision-taint",
                format!(
                    "arithmetic mixes {} values in one expression; convert explicitly through `to_f64`/`from_f64` (or the `Half` conversions) at an audited boundary",
                    names.join(" and ")
                ),
            );
        }
    }

    /// `x as f32` where `x` is f64-tainted: a lossy narrowing outside
    /// the blessed conversion fns, possibly far from where `x` was
    /// produced.
    fn check_narrowing(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            if !stmt[i].is_ident("as") {
                continue;
            }
            let Some(target) = stmt.get(i + 1) else {
                continue;
            };
            let target_prec = match target.text.as_str() {
                "f32" => Prec::F32,
                "u16" => Prec::B16, // truncating bits toward binary16
                _ => continue,
            };
            let Some(source) = primary_before(stmt, i) else {
                continue;
            };
            let src_prec = self.env.get(&source).and_then(|t| t.prec);
            if src_prec == Some(Prec::F64) {
                self.flag(
                    line,
                    "PL005",
                    "precision-taint",
                    format!(
                        "`{source} as {}` narrows an f64-tainted value lossily; route the conversion through a blessed fn (`from_f64` on the target precision) so the rounding is audited",
                        target.text
                    ),
                );
            } else if src_prec == Some(Prec::F32) && target_prec == Prec::B16 {
                self.flag(
                    line,
                    "PL005",
                    "precision-taint",
                    format!(
                        "`{source} as u16` truncates f32-tainted bits toward binary16; use `Half::from_f32` so round-to-nearest-even is applied",
                    ),
                );
            }
        }
    }

    /// `f32::from_bits(x)`/`f64::from_bits(x)`/`Half::from_bits(x)`
    /// where `x` carries bits of a *different* precision.
    fn check_from_bits(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            if !stmt[i].is_ident("from_bits") {
                continue;
            }
            let Some(target) = self.conv_target(stmt, i) else {
                continue;
            };
            let Some(open) = stmt.get(i + 1).filter(|t| t.is_punct("(")) else {
                continue;
            };
            let _ = open;
            let Some(end) = matching_paren(stmt, i + 1) else {
                continue;
            };
            let arg_taint = self.expr_taint(&stmt[i + 2..end]);
            if let Some(src) = arg_taint.prec {
                if src != target {
                    self.flag(
                        line,
                        "PL005",
                        "precision-taint",
                        format!(
                            "`from_bits` reinterprets {}-tainted bits as {}; bit patterns are not convertible across IEEE-754 layouts — convert the *value* through the blessed fns instead",
                            src.name(),
                            target.name()
                        ),
                    );
                }
            }
        }
    }

    /// Calls to same-file fns with a precision-typed parameter: the
    /// argument's taint must match the declared parameter precision.
    fn check_call_params(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            if stmt[i].kind != TokKind::Ident {
                continue;
            }
            let Some((params, _)) = self.sigs.fns.get(&stmt[i].text) else {
                continue;
            };
            if !stmt.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
            let Some(end) = matching_paren(stmt, i + 1) else {
                continue;
            };
            let args = split_args(&stmt[i + 2..end]);
            for (k, arg) in args.iter().enumerate() {
                let Some(Some(want)) = params.get(k) else {
                    continue;
                };
                if arg.iter().any(is_blessed_tok) {
                    continue;
                }
                let got = self.expr_taint(arg);
                if let Some(gp) = got.prec {
                    if gp != *want {
                        self.flag(
                            line,
                            "PL005",
                            "precision-taint",
                            format!(
                                "argument {} of `{}` carries {} but the parameter is declared {}; convert through the blessed fns at the call boundary",
                                k + 1,
                                stmt[i].text,
                                gp.name(),
                                want.name()
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Struct literals (`Name { field: expr }`) against declared field
    /// precisions.
    fn check_struct_fields(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            if stmt[i].kind != TokKind::Ident
                || !self.sigs.structs.contains(&stmt[i].text)
                || !stmt.get(i + 1).is_some_and(|t| t.is_punct("{"))
            {
                continue;
            }
            // Walk `field : expr ,` pairs at depth 1.
            let mut k = i + 2;
            let mut depth = 1i32;
            while k < stmt.len() && depth > 0 {
                if stmt[k].is_punct("{") {
                    depth += 1;
                } else if stmt[k].is_punct("}") {
                    depth -= 1;
                } else if depth == 1
                    && stmt[k].kind == TokKind::Ident
                    && stmt.get(k + 1).is_some_and(|t| t.is_punct(":"))
                {
                    let field = stmt[k].text.clone();
                    if let Some(want) = self.sigs.fields.get(&field).copied() {
                        let vend = stmt[k + 2..]
                            .iter()
                            .position(|t| t.is_punct(",") || t.is_punct("}"))
                            .map(|p| k + 2 + p)
                            .unwrap_or(stmt.len());
                        let arg = &stmt[k + 2..vend];
                        if !arg.iter().any(is_blessed_tok) {
                            let got = self.expr_taint(arg);
                            if let Some(gp) = got.prec {
                                if gp != want {
                                    self.flag(
                                        line,
                                        "PL005",
                                        "precision-taint",
                                        format!(
                                            "field `{field}` is declared {} but is initialized with a {}-tainted value; convert through the blessed fns first",
                                            want.name(),
                                            gp.name()
                                        ),
                                    );
                                }
                            }
                        }
                        k = vend;
                        continue;
                    }
                }
                k += 1;
            }
        }
    }

    /// Return-position check against the declared return precision.
    fn check_return(&mut self, expr: &[Token], line: usize) {
        if !self.precision {
            return;
        }
        let Some(want) = prec_of_type(&self.item.ret) else {
            return;
        };
        if expr.iter().any(is_blessed_tok) {
            return;
        }
        let got = self.expr_taint(expr);
        if let Some(gp) = got.prec {
            if gp != want {
                self.flag(
                    line,
                    "PL005",
                    "precision-taint",
                    format!(
                        "returning a {}-tainted value from a fn declared `-> {}`; convert through the blessed fns before returning",
                        gp.name(),
                        self.item.ret
                    ),
                );
            }
        }
    }

    // -- determinism sinks (DT004) -----------------------------------

    /// RNG seeding and seed mixing: the seed expression must be free
    /// of clock/thread/hash taints and must not be a raw multiply-XOR
    /// derivation.
    fn check_seed_sinks(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            let tok = &stmt[i];
            if tok.kind != TokKind::Ident {
                continue;
            }
            let is_seed_sink = SEED_SINKS.contains(&tok.text.as_str())
                || (tok.text == "new" && path_prefix(stmt, i).as_deref() == Some("SplitMix"));
            let is_mixer = BLESSED_MIX.contains(&tok.text.as_str());
            if !is_seed_sink && !is_mixer {
                continue;
            }
            if !stmt.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
            let Some(end) = matching_paren(stmt, i + 1) else {
                continue;
            };
            let arg = &stmt[i + 2..end];
            let t = self.expr_taint(arg);
            let bad: Vec<Det> = t
                .det
                .iter()
                .copied()
                .filter(|d| {
                    if is_mixer {
                        // Mixers avalanche their inputs, so a weak
                        // derivation *feeding* one is fine; ambient
                        // nondeterminism is not.
                        matches!(d, Det::Clock | Det::Thread | Det::HashIter)
                    } else {
                        true
                    }
                })
                .collect();
            if let Some(d) = bad.first() {
                self.flag(
                    line,
                    "DT004",
                    "determinism-taint",
                    format!(
                        "seed expression reaching `{}` is tainted by {}; campaign seeds must be pure functions of the cell key — derive per-strike seeds with `mix_seed(seed, index)`",
                        tok.text,
                        d.describe()
                    ),
                );
            }
        }
    }

    /// Result-vector sinks: pushing a det-tainted value, or pushing
    /// from inside a thread-stride loop without tagging the element
    /// with its schedule index (the PR 3 result-order bug shape).
    fn check_collection_sinks(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            let tok = &stmt[i];
            if tok.kind != TokKind::Ident
                || !matches!(tok.text.as_str(), "push" | "extend" | "insert")
                || !stmt.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                continue;
            }
            let Some(end) = matching_paren(stmt, i + 1) else {
                continue;
            };
            let arg = &stmt[i + 2..end];
            let t = self.expr_taint(arg);
            let ambient: Vec<Det> = t
                .det
                .iter()
                .copied()
                .filter(|d| matches!(d, Det::Clock | Det::Thread | Det::HashIter))
                .collect();
            if let Some(d) = ambient.first() {
                self.flag(
                    line,
                    "DT004",
                    "determinism-taint",
                    format!(
                        "a value tainted by {} is stored into a result collection; results must be pure functions of the cell key and seed",
                        d.describe()
                    ),
                );
                continue;
            }
            // Stride-order shape: inside a schedule-tainted loop, a
            // push to a collection declared *outside* the loop must
            // carry the loop index so the merge can restore canonical
            // order.
            if let Some((var, true)) = self.loops.last().cloned() {
                let recv_local =
                    receiver_ident(stmt, i).is_some_and(|r| self.loop_locals.contains(&r));
                // The blessed shape tags the element with the loop
                // index itself: `out.push((i, v))` or `map.insert(i, v)`
                // — the index must be a standalone element, not merely
                // mentioned somewhere inside the value (`push(f(i))`
                // still lands in completion order).
                let tagged = split_args(arg).iter().any(|a| {
                    (a.len() == 1 && a[0].kind == TokKind::Ident && a[0].text == var)
                        || (a.first().is_some_and(|t| t.is_punct("("))
                            && a.last().is_some_and(|t| t.is_punct(")"))
                            && split_args(&a[1..a.len() - 1]).iter().any(|e| {
                                e.len() == 1 && e[0].kind == TokKind::Ident && e[0].text == var
                            }))
                });
                if !recv_local && !tagged {
                    self.flag(
                        line,
                        "DT004",
                        "determinism-taint",
                        format!(
                            "push inside a thread-stride loop does not carry the loop index `{var}`; element order will depend on `--threads` — tag elements with the index and sort after the merge",
                        ),
                    );
                }
            }
        }
    }

    /// Cache byte sinks: serialized bytes must be det-taint free.
    fn check_write_sinks(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            let tok = &stmt[i];
            if tok.kind != TokKind::Ident
                || !matches!(tok.text.as_str(), "write_all" | "save" | "serialize")
                || !stmt.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                continue;
            }
            let Some(end) = matching_paren(stmt, i + 1) else {
                continue;
            };
            let t = self.expr_taint(&stmt[i + 2..end]);
            if let Some(d) = t
                .det
                .iter()
                .find(|d| matches!(d, Det::Clock | Det::Thread | Det::HashIter | Det::Schedule))
            {
                self.flag(
                    line,
                    "DT004",
                    "determinism-taint",
                    format!(
                        "bytes tainted by {} reach a cache/serialization sink; cached artifacts must be byte-stable across runs",
                        d.describe()
                    ),
                );
            }
        }
    }
}

/// True for tokens naming a blessed conversion fn (their presence in
/// an expression marks an audited precision change).
fn is_blessed_tok(t: &Token) -> bool {
    t.kind == TokKind::Ident && BLESSED_CONV.contains(&t.text.as_str())
}

/// The `::`-qualifier directly before the ident at `i`, if any.
fn path_prefix(expr: &[Token], i: usize) -> Option<String> {
    if i >= 2 && expr[i - 1].is_punct("::") && expr[i - 2].kind == TokKind::Ident {
        Some(expr[i - 2].text.clone())
    } else {
        None
    }
}

/// The receiver ident of a method call at `i` (`recv.method(`), seeing
/// through one field access (`self.out.push(` → `out`).
fn receiver_ident(expr: &[Token], i: usize) -> Option<String> {
    if i >= 2 && expr[i - 1].is_punct(".") && expr[i - 2].kind == TokKind::Ident {
        return Some(expr[i - 2].text.clone());
    }
    None
}

/// The primary expression ident directly before token `i` (used for
/// `x as f32` — walks back over one `)`-balanced group or field chain).
fn primary_before(stmt: &[Token], i: usize) -> Option<String> {
    if i == 0 {
        return None;
    }
    let prev = &stmt[i - 1];
    if prev.kind == TokKind::Ident {
        return Some(prev.text.clone());
    }
    if prev.is_punct(")") {
        // Walk back to the matching `(` and take the ident before it.
        let mut depth = 0i32;
        let mut k = i - 1;
        loop {
            if stmt[k].is_punct(")") {
                depth += 1;
            } else if stmt[k].is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k >= 1 && stmt[k - 1].kind == TokKind::Ident {
            return Some(stmt[k - 1].text.clone());
        }
    }
    None
}

/// Token index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Token index of the `}` matching the `{` at `open`, bounded by `end`.
fn matching_brace(toks: &[Token], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks
        .iter()
        .enumerate()
        .skip(open)
        .take(end.saturating_sub(open) + 1)
    {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// For a nested `fn` at token `at`, the index of its body's closing
/// brace (so the outer walk can skip it).
fn skip_to_body_close(toks: &[Token], at: usize, end: usize) -> Option<usize> {
    let mut k = at;
    let mut paren = 0i32;
    while k < end {
        if toks[k].is_punct("(") {
            paren += 1;
        } else if toks[k].is_punct(")") {
            paren -= 1;
        } else if toks[k].is_punct(";") && paren <= 0 {
            return Some(k); // bodyless declaration
        } else if toks[k].is_punct("{") && paren <= 0 {
            return matching_brace(toks, k, end);
        }
        k += 1;
    }
    None
}

/// Splits a call's argument tokens at top-level commas.
fn split_args(toks: &[Token]) -> Vec<Vec<Token>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut depth = 0i32;
    for t in toks {
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
            "," if t.kind == TokKind::Punct && depth <= 0 => {
                out.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ParsedFile;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/kernels/src/x.rs", src);
        let parsed = ParsedFile::parse(&file);
        taint_lints(&file, &parsed, true, true)
    }

    #[test]
    fn cross_line_narrowing_is_flagged() {
        let f = run("fn g(golden: &[f64], i: usize) -> f32 {\n    let master = golden[i];\n    let out = master as f32;\n    out\n}\n");
        assert!(
            f.iter().any(|x| x.lint == "PL005" && x.line == 3),
            "findings: {f:?}"
        );
    }

    #[test]
    fn blessed_conversion_is_clean() {
        let f = run("fn g(golden: &[f64], i: usize) -> f32 {\n    let master = golden[i];\n    narrow(master)\n}\nfn narrow(x: f64) -> f32 { from_f64(x) }\n");
        assert!(f.is_empty(), "findings: {f:?}");
    }

    #[test]
    fn weak_seed_derivation_reaching_rng_is_flagged() {
        let f = run("fn seeds(seed: u64, i: u64) {\n    let s = seed.wrapping_mul(31) ^ i;\n    let rng = StdRng::seed_from_u64(s);\n    let _ = rng;\n}\n");
        assert!(
            f.iter().any(|x| x.lint == "DT004" && x.line == 3),
            "findings: {f:?}"
        );
    }

    #[test]
    fn avalanche_seed_derivation_is_clean() {
        let f = run("fn seeds(seed: u64, i: u64) {\n    let s = mix_seed(seed, i);\n    let rng = StdRng::seed_from_u64(s);\n    let _ = rng;\n}\n");
        assert!(f.iter().all(|x| x.lint != "DT004"), "findings: {f:?}");
    }

    #[test]
    fn thread_stride_push_without_tag_is_flagged() {
        let f = run("fn worker(worker: usize, threads: usize, out: &mut Vec<u8>) {\n    for i in (worker..100).step_by(threads) {\n        out.push(run_one(i));\n    }\n}\nfn run_one(i: usize) -> u8 { 0 }\n");
        assert!(f.iter().any(|x| x.lint == "DT004"), "findings: {f:?}");
    }

    #[test]
    fn tagged_stride_push_is_clean() {
        let f = run("fn worker(worker: usize, threads: usize, out: &mut Vec<(usize, u8)>) {\n    for i in (worker..100).step_by(threads) {\n        out.push((i, run_one(i)));\n    }\n}\nfn run_one(i: usize) -> u8 { 0 }\n");
        assert!(f.iter().all(|x| x.lint != "DT004"), "findings: {f:?}");
    }

    #[test]
    fn clock_value_into_results_is_flagged() {
        let f = run("fn record(out: &mut Vec<u128>) {\n    let t0 = Instant::now();\n    let dt = t0.elapsed();\n    out.push(dt);\n}\n");
        assert!(
            f.iter().any(|x| x.lint == "DT004" && x.line == 4),
            "findings: {f:?}"
        );
    }

    #[test]
    fn hashmap_iteration_into_results_is_flagged() {
        let f = run("fn collect(m: HashMap<u64, f64>, out: &mut Vec<f64>) {\n    for v in m.values() {\n        out.push(v);\n    }\n}\n");
        assert!(f.iter().any(|x| x.lint == "DT004"), "findings: {f:?}");
    }

    #[test]
    fn mixed_precision_arithmetic_is_flagged() {
        let f = run("fn mixy(a: f32, b: f64) -> f64 {\n    let x = a;\n    let y = b;\n    let z = x * y;\n    z\n}\n");
        assert!(
            f.iter().any(|x| x.lint == "PL005" && x.line == 4),
            "findings: {f:?}"
        );
    }

    #[test]
    fn from_bits_reinterpretation_is_flagged() {
        let f = run(
            "fn reinterpret(h: Half) -> f32 {\n    let bits = h;\n    f32::from_bits(bits)\n}\n",
        );
        assert!(
            f.iter().any(|x| x.lint == "PL005" && x.line == 3),
            "findings: {f:?}"
        );
    }
}
