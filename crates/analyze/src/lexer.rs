//! Token-level lexer over masked source text.
//!
//! The flow-sensitive lints (PL005/DT004/PH004) need more structure
//! than line patterns: identifiers, literals with their suffixes, and
//! multi-character operators, each carrying its source position. This
//! lexer runs over [`SourceFile::masked`] lines — comments are already
//! blanked and string/char interiors erased — so it only has to
//! tokenize live code. It is deliberately small: no keywords table
//! beyond what the parser asks about, no macro expansion, no spans
//! finer than (line, column).
//!
//! [`SourceFile::masked`]: crate::source::SourceFile

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `foo`).
    Ident,
    /// Integer literal, including any suffix (`42`, `0xFF`, `7u16`).
    Int,
    /// Float literal, including any suffix (`1.0`, `2e9`, `0.5f32`).
    Float,
    /// A (masked) string literal — contents are blanks, only the
    /// delimiters survive masking.
    Str,
    /// Lifetime tick or (masked) char literal.
    Life,
    /// Punctuation/operator, possibly multi-char (`::`, `->`, `..=`).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// The token text (for `Str`/`Life` just the delimiters survive).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 0-based byte column on that line.
    pub col: usize,
}

impl Token {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }
}

/// Multi-character operators, longest first so maximal munch works.
const PUNCTS: [&str; 24] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes masked lines (1-based line numbers follow the slice order).
pub fn lex(masked: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in masked.iter().enumerate() {
        lex_line(line, idx + 1, &mut out);
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn lex_line(line: &str, line_no: usize, out: &mut Vec<Token>) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Masked strings survive as `"   "`; emit one Str token and
        // skip to the closing quote (masking guarantees it is on this
        // line or the literal continues — treat end-of-line as close).
        if c == b'"' {
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            i = (i + 1).min(bytes.len());
            out.push(Token {
                kind: TokKind::Str,
                text: "\"\"".to_string(),
                line: line_no,
                col: start,
            });
            continue;
        }
        // Lifetime tick or masked char literal: `'a`, `' '`.
        if c == b'\'' {
            let start = i;
            i += 1;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                i += 1; // masked char literal's closing quote
            }
            out.push(Token {
                kind: TokKind::Life,
                text: line[start..i].to_string(),
                line: line_no,
                col: start,
            });
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            out.push(Token {
                kind: TokKind::Ident,
                text: line[start..i].to_string(),
                line: line_no,
                col: start,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let (tok, len) = lex_number(line, i);
            out.push(Token {
                kind: tok,
                text: line[i..i + len].to_string(),
                line: line_no,
                col: i,
            });
            i += len;
            continue;
        }
        // Maximal-munch punctuation.
        let rest = &line[i..];
        let mut matched = 1;
        for p in PUNCTS {
            if rest.starts_with(p) {
                matched = p.len();
                break;
            }
        }
        out.push(Token {
            kind: TokKind::Punct,
            text: line[i..i + matched].to_string(),
            line: line_no,
            col: i,
        });
        i += matched;
    }
}

/// Lexes a numeric literal at byte `at`; returns (kind, length).
fn lex_number(line: &str, at: usize) -> (TokKind, usize) {
    let bytes = line.as_bytes();
    let mut i = at;
    let mut float = false;
    if line[i..].starts_with("0x") || line[i..].starts_with("0b") || line[i..].starts_with("0o") {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return (TokKind::Int, i - at);
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // Fractional part — but `0..n` is a range and `x.0` is a field.
    if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
        float = true;
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    }
    // Trailing `1.` (not `1..` or `1.max(..)`), end of line included:
    // still a float.
    let dot_ends = |n: &u8| *n != b'.' && !is_ident_start(*n);
    if !float && bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_none_or(dot_ends) {
        float = true;
        i += 1;
    }
    // Exponent.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    // Suffix (`f32`, `u16`, `usize`, …) glues onto the literal.
    if i < bytes.len() && is_ident_start(bytes[i]) {
        let suffix_start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        if line[suffix_start..i].starts_with('f') {
            float = true;
        }
    }
    (if float { TokKind::Float } else { TokKind::Int }, i - at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(&[src.to_string()])
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let toks = kinds("let x = a.mul_add(1.0f32, 2) ;");
        assert_eq!(toks[0], (TokKind::Ident, "let".to_string()));
        assert_eq!(toks[1], (TokKind::Ident, "x".to_string()));
        assert!(toks.contains(&(TokKind::Float, "1.0f32".to_string())));
        assert!(toks.contains(&(TokKind::Int, "2".to_string())));
    }

    #[test]
    fn trailing_dot_floats_end_anywhere() {
        for src in ["x * 2.;", "x * 2."] {
            assert!(
                kinds(src).contains(&(TokKind::Float, "2.".to_string())),
                "{src}"
            );
        }
        assert!(kinds("2.max(y)").contains(&(TokKind::Int, "2".to_string())));
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = kinds("for i in 0..n { a[i] = i; }");
        assert!(toks.contains(&(TokKind::Int, "0".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "..".to_string())));
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Float));
    }

    #[test]
    fn multi_char_operators_munch_maximally() {
        let toks = kinds("a ^= b >> 2; c :: d -> e");
        assert!(toks.contains(&(TokKind::Punct, "^=".to_string())));
        assert!(toks.contains(&(TokKind::Punct, ">>".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "::".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "->".to_string())));
    }

    #[test]
    fn suffixed_ints_and_hex_stay_ints() {
        let toks = kinds("let b = 0xCBF2_u64 + 7u16;");
        assert!(toks.contains(&(TokKind::Int, "0xCBF2_u64".to_string())));
        assert!(toks.contains(&(TokKind::Int, "7u16".to_string())));
    }

    #[test]
    fn positions_are_line_and_column() {
        let toks = lex(&["let x;".to_string(), "  y".to_string()]);
        assert_eq!((toks[0].line, toks[0].col), (1, 0));
        let y = toks.iter().find(|t| t.is_ident("y")).expect("y lexed");
        assert_eq!((y.line, y.col), (2, 2));
    }
}
