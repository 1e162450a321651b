//! Fixed-width text tables for experiment reports.

use std::fmt;

/// Arity mismatch from fallible [`Table`] construction: a row whose cell
/// count differs from the table's header count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableError {
    expected: usize,
    got: usize,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row has {} cells, table has {} columns",
            self.got, self.expected
        )
    }
}

impl std::error::Error for TableError {}

/// A simple aligned text table with an optional title, used by every
/// table/figure regenerator in `mpr-core` and by the examples.
///
/// # Example
///
/// ```rust
/// use mpr_metrics::Table;
///
/// let mut t = Table::new(vec!["Benchmark", "Double", "Single", "Half"]);
/// t.row(vec!["MxM".into(), "2.730".into(), "2.100".into(), "2.310".into()]);
/// let text = t.to_string();
/// assert!(text.contains("MxM"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            title: None,
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Table {
        self.title = Some(title.into());
        self
    }

    /// Appends a row, rejecting arity mismatches as a value.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] when the row length differs from the
    /// header count.
    pub fn try_row(&mut self, cells: Vec<String>) -> Result<&mut Table, TableError> {
        if cells.len() != self.headers.len() {
            return Err(TableError {
                expected: self.headers.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells);
        Ok(self)
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count; the
    /// figure regenerators build rows with statically known arity, so a
    /// mismatch is a programming error. Use [`Table::try_row`] to handle
    /// it as a value instead.
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        if let Err(e) = self.try_row(cells) {
            panic!("{e}");
        }
        self
    }

    /// Renders as CSV (no quoting; cells must not contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "{title}")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..ncols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:<width$}", cells[i], width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]).with_title("Demo");
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Demo");
        assert!(lines[1].starts_with("name"));
        // Both data rows align the value column at the same offset.
        let off_a = lines[3].find('1').unwrap();
        let off_b = lines[4].find('2').unwrap();
        assert_eq!(off_a, off_b);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn wrong_arity_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
