//! Fixed-width table printing for the harness output.

/// A simple left-aligned-first-column, right-aligned-rest text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub(crate) fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width[i] - c.chars().count();
                if i == 0 {
                    out.push_str(c);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(c);
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds like the paper's tables (3 decimal places, or `--` for
/// skipped entries).
pub fn secs(t: Option<f64>) -> String {
    match t {
        Some(t) => format!("{t:.3}"),
        None => "--".to_string(),
    }
}

/// Format a speedup with 2 decimals.
pub fn speedup(s: Option<f64>) -> String {
    match s {
        Some(s) => format!("{s:.2}"),
        None => "--".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["Instance", "Time"]);
        t.row(vec!["Dengue_Lr-Lb".into(), "0.123".into()]);
        t.row(vec!["X".into(), "12.000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Instance"));
        assert!(lines[2].starts_with("Dengue_Lr-Lb"));
        // Right-aligned numeric column: both rows end at the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Some(1.23456)), "1.235");
        assert_eq!(secs(None), "--");
        assert_eq!(speedup(Some(15.988)), "15.99");
    }
}
