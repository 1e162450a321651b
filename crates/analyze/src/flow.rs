//! Flow-sensitive taint analysis over function bodies.
//!
//! Two lint families run here, both working on the tokens of one
//! function at a time with an environment mapping bindings to taints.
//! Each keeps only the shapes rustc and clippy cannot see:
//!
//! * **PL005 precision-taint** — a value known to be binary16 (`Half`
//!   or its `u16` bits), `f32`, or `f64` narrowed by a lossy `as` cast
//!   or reinterpreted by a cross-width `from_bits` without passing
//!   through one of the blessed conversion fns
//!   (`from_f64`/`to_f64`/`from_f32`/`to_f32`). The cast is judged on
//!   its whole operand (a path or field chain, a call, an index, or a
//!   parenthesised group), so a taint acquired lines earlier through
//!   `let` bindings still counts. Mixed arithmetic, call arguments,
//!   struct fields and returns of the wrong precision are rustc type
//!   errors and are not re-checked here.
//! * **DT004 determinism-taint** — thread identity or count, or a weak
//!   multiply-XOR seed derivation, flowing into a determinism sink: RNG
//!   seeding, result vectors, or cache byte writes. The two shapes it
//!   exists for are campaign bugs this workspace once shipped:
//!   per-strike seeds derived with `seed * C ^ i` instead of a full
//!   avalanche, and worker loops pushing results in thread-stride order
//!   without an index tag. Clock reads and hash-ordered collections
//!   are clippy `disallowed_types` bans (`clippy.toml`), not sources
//!   here.
//!
//! The analysis is intraprocedural and flow-sensitive in statement
//! order; a call to a same-file fn carries its declared return
//! precision (the workspace call graph handles reachability, see
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
    /// Thread identity or thread count.
    Thread,
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
            Det::Thread => "thread identity or thread count",
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
}

impl Taint {
    fn join(&mut self, other: &Taint) {
        // An expression mixing precisions keeps the first; rustc
        // rejects the mix itself.
        if self.prec.is_none() {
            self.prec = other.prec;
        }
        for d in &other.det {
            if !self.det.contains(d) {
                self.det.push(*d);
            }
        }
        self.det.sort();
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

/// Runs both taint lints over every function of `parsed`.
/// `precision` / `determinism` gate the two families independently so
/// path scoping stays in [`crate::lint_applies`].
pub fn taint_lints(
    file: &SourceFile,
    parsed: &ParsedFile,
    precision: bool,
    determinism: bool,
) -> Vec<Finding> {
    // Same-file fns with a float return type: a call carries it.
    let returns: BTreeMap<String, Prec> = parsed
        .fns
        .iter()
        .filter_map(|f| Some((f.name.clone(), prec_of_type(&f.ret)?)))
        .collect();
    let mut out = Vec::new();
    for f in &parsed.fns {
        if file.in_test.get(f.line - 1).copied().unwrap_or(false) {
            continue;
        }
        let mut fa = FnFlow::new(file, parsed, f, &returns, precision, determinism);
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
    returns: &'a BTreeMap<String, Prec>,
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
        returns: &'a BTreeMap<String, Prec>,
        precision: bool,
        determinism: bool,
    ) -> FnFlow<'a> {
        let mut env = BTreeMap::new();
        for p in &item.params {
            let mut t = Taint {
                prec: prec_of_type(&p.ty),
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
            returns,
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
        // The unterminated tail expression is a statement too.
        self.statement(&self.toks[stmt_start.min(close)..close]);
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
            let t = if schedule {
                Taint::with_det(Det::Schedule)
            } else {
                Taint::default()
            };
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
            self.check_narrowing(stmt);
            self.check_from_bits(stmt, line);
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
            // Ascribed type wins for precision.
            let ty_text: String = stmt[k + 1..assign_at]
                .iter()
                .filter(|t| !t.is_punct(":"))
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if let Some(p) = prec_of_type(&ty_text) {
                taint.prec = Some(p);
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
        // `(operand start, end, resume, precision)` of every retyped
        // operand: a cast (`x as f32`) or a size (`v.len()`,
        // `it.count()`), which is no float whatever it counts.
        let retyped: Vec<(usize, usize, usize, Option<Prec>)> = (0..expr.len())
            .filter_map(|k| {
                if let Some(p) = cast_target(expr, k) {
                    return Some((operand_start(expr, k)?, k, k + 2, Some(p)));
                }
                let size = expr[k].is_punct(".")
                    && expr
                        .get(k + 1)
                        .is_some_and(|m| m.is_ident("len") || m.is_ident("count"))
                    && expr.get(k + 2).is_some_and(|t| t.is_punct("("))
                    && expr.get(k + 3).is_some_and(|t| t.is_punct(")"));
                size.then(|| Some((operand_start(expr, k)?, k, k + 4, None)))?
            })
            .collect();
        // Token ranges already scanned for weak derivations: blessed
        // mixer calls (feeding raw arithmetic *into* an avalanche is
        // exactly what the mixers are for) and retyped cast operands.
        let mut scanned: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < expr.len() {
            // The outermost retyping whose operand starts here: the
            // operand keeps its determinism taints, the retyping sets
            // its precision.
            if let Some(&(_, end, resume, prec)) =
                retyped.iter().filter(|c| c.0 == i).max_by_key(|c| c.1)
            {
                let mut inner = self.expr_taint(&expr[i..end]);
                inner.prec = prec;
                t.join(&inner);
                scanned.push((i, resume - 1));
                i = resume;
                continue;
            }
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
                                _ => path_prec(expr, i),
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
                            // taint but not thread taint.
                            if let Some(end) = matching_paren(expr, i + 1) {
                                let mut inner = self.expr_taint(&expr[i + 2..end]);
                                inner.det.retain(|d| *d != Det::WeakSeed);
                                inner.prec = None;
                                t.join(&inner);
                                scanned.push((i, end));
                                i = end + 1;
                                continue;
                            }
                        }
                        if let Some(p) = self.returns.get(name) {
                            t.join(&Taint::with_prec(*p));
                        }
                        match name {
                            // `thread::current()` / thread counts.
                            "current" if path_prefix(expr, i).as_deref() != Some("thread") => {}
                            "available_parallelism" | "current" => {
                                t.join(&Taint::with_det(Det::Thread));
                            }
                            "from_bits" => {
                                if let Some(p) = path_prec(expr, i) {
                                    t.join(&Taint::with_prec(p));
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                        continue;
                    }
                    if name == "ThreadId" {
                        t.join(&Taint::with_det(Det::Thread));
                    } else if let Some(known) = self.env.get(name) {
                        t.join(known);
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
        // operand outside any range scanned on its own.
        let outside = |k: usize| !scanned.iter().any(|&(a, b)| a <= k && k <= b);
        let weak_ops = expr.iter().enumerate().any(|(k, t)| {
            outside(k)
                && (t.kind == TokKind::Punct && matches!(t.text.as_str(), "^" | "^=")
                    || t.is_ident("wrapping_mul")
                    || t.is_ident("rotate_left"))
        });
        let seedish = expr
            .iter()
            .enumerate()
            .any(|(k, t)| outside(k) && t.kind == TokKind::Ident && t.text.contains("seed"));
        if weak_ops && seedish {
            t.join(&Taint::with_det(Det::WeakSeed));
        }
        t
    }

    // -- precision sinks (PL005) -------------------------------------

    /// `x as f32` / `x as u16` where the whole operand `x` is
    /// f64-tainted (or f32-tainted, for `u16`): a lossy narrowing
    /// outside the blessed conversion fns, possibly far from where the
    /// taint was acquired. Reported at the cast's line.
    fn check_narrowing(&mut self, stmt: &[Token]) {
        for i in 0..stmt.len() {
            let Some(target) = cast_target(stmt, i) else {
                continue;
            };
            let Some(start) = operand_start(stmt, i) else {
                continue;
            };
            let operand = &stmt[start..i];
            // Adjacent words keep a space: `n as f64`, not `nasf64`.
            let word = |t: &Token| t.kind != TokKind::Punct;
            let mut source = String::new();
            for (k, tok) in operand.iter().enumerate() {
                if k > 0 && word(&operand[k - 1]) && word(tok) {
                    source.push(' ');
                }
                source.push_str(&tok.text);
            }
            let message = match (self.expr_taint(operand).prec, target) {
                (Some(Prec::F64), Prec::F32 | Prec::B16) => format!(
                    "`{source} as {}` narrows an f64-tainted value lossily; route the conversion through a blessed fn (`from_f64` on the target precision) so the rounding is audited",
                    stmt[i + 1].text
                ),
                (Some(Prec::F32), Prec::B16) => format!(
                    "`{source} as u16` truncates f32-tainted bits toward binary16; use `Half::from_f32` so round-to-nearest-even is applied",
                ),
                _ => continue,
            };
            self.flag(stmt[i].line, "PL005", "precision-taint", message);
        }
    }

    /// `f32::from_bits(x)`/`f64::from_bits(x)`/`Half::from_bits(x)`
    /// where `x` carries bits of a *different* precision.
    fn check_from_bits(&mut self, stmt: &[Token], line: usize) {
        for i in 0..stmt.len() {
            if !stmt[i].is_ident("from_bits") {
                continue;
            }
            let Some(target) = path_prec(stmt, i) else {
                continue;
            };
            if !stmt.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
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

    // -- determinism sinks (DT004) -----------------------------------

    /// RNG seeding and seed mixing: the seed expression must be free
    /// of thread taint and must not be a raw multiply-XOR derivation.
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
            let t = self.expr_taint(&stmt[i + 2..end]);
            // Mixers avalanche their inputs, so a weak derivation
            // *feeding* one is fine; thread identity is not.
            if let Some(d) = t.det.iter().find(|d| !is_mixer || **d == Det::Thread) {
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
            if self.expr_taint(arg).det.contains(&Det::Thread) {
                self.flag(
                    line,
                    "DT004",
                    "determinism-taint",
                    format!(
                        "a value tainted by {} is stored into a result collection; results must be pure functions of the cell key and seed",
                        Det::Thread.describe()
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
                .find(|d| matches!(d, Det::Thread | Det::Schedule))
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

/// Precision named by the `::`-qualifier of the call at `i`
/// (`Half::from_bits`, `f32::from_bits`); a generic `F::` names none.
fn path_prec(expr: &[Token], i: usize) -> Option<Prec> {
    prec_of_type(&path_prefix(expr, i)?)
}

/// The precision an `as` at `i` retypes its operand to: `as f32`,
/// `as f64`, or `as u16` (binary16 bits).
fn cast_target(expr: &[Token], i: usize) -> Option<Prec> {
    if !expr[i].is_ident("as") {
        return None;
    }
    match expr.get(i + 1)?.text.as_str() {
        "f32" => Some(Prec::F32),
        "f64" => Some(Prec::F64),
        "u16" => Some(Prec::B16),
        _ => None,
    }
}

/// Start of the operand of the `as` at `i`: a path or field chain, a
/// call, an index, or a parenthesised group, with any postfix calls
/// and indexes on it. `None` for literals and other shapes.
fn operand_start(expr: &[Token], i: usize) -> Option<usize> {
    let mut k = i.checked_sub(1)?;
    loop {
        let t = &expr[k];
        if t.is_punct(")") || t.is_punct("]") {
            k = matching_open(expr, k)?;
            // A callee or indexed base before the group belongs to it.
            match k.checked_sub(1).map(|p| &expr[p]) {
                Some(p) if p.kind == TokKind::Ident || p.is_punct(")") || p.is_punct("]") => k -= 1,
                _ => return Some(k),
            }
        } else if t.kind == TokKind::Ident {
            match k.checked_sub(2) {
                Some(p) if expr[k - 1].is_punct(".") || expr[k - 1].is_punct("::") => k = p,
                _ => return Some(k),
            }
        } else {
            return None;
        }
    }
}

/// Token index of the `(`/`[` matching the `)`/`]` at `close`.
fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let (open, shut) = if toks[close].is_punct(")") {
        ("(", ")")
    } else {
        ("[", "]")
    };
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if toks[k].is_punct(shut) {
            depth += 1;
        } else if toks[k].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
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
    fn casts_retype_the_taint() {
        // `as u16` makes the f64 binary16 bits, which widen to f32
        // cleanly; `as f64` makes the f32 an f64, which `as f32` then
        // narrows.
        let f = run("fn g(x: f64, a: f32) -> f32 {\n    let bits = x as u16;\n    let wide = a as f64;\n    let back = bits as f32;\n    wide as f32\n}\n");
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [2, 5], "findings: {f:?}");
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
    fn from_bits_reinterpretation_is_flagged() {
        let f = run(
            "fn reinterpret(h: Half) -> f32 {\n    let bits = h.to_bits();\n    f32::from_bits(u32::from(bits))\n}\n",
        );
        assert!(
            f.iter().any(|x| x.lint == "PL005" && x.line == 3),
            "findings: {f:?}"
        );
    }
}
