//! Fixture: allowlist-hygiene violations.

fn configure(&self) -> u64 {
    // mpr-allow: no-such-lint -- typo in the lint name
    let a = 1;
    // mpr-allow: fault-site
    let b = 2;
    // mpr-allow: precision-leak -- suppresses nothing below
    let c = 3;
    // mpr-allow: panic-hygiene -- a leftover from before the clippy lints
    let d = self.cells.first().expect("nonempty");
    a + b + c + d
}
