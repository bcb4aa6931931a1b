//! Table formatting and JSON persistence for the `figures` experiments.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One labeled row of numeric cells.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Row label (method name, sweep value, …).
    pub label: String,
    /// Cell values, aligned with the table's column headers.
    pub values: Vec<f64>,
}

/// A printable, serializable result table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. `"Fig. 7(a) total energy %"`).
    pub title: String,
    /// Column headers (not counting the label column).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Renders the table to stdout. `NaN` cells print as `-`, matching the
    /// paper's omitted bars (e.g. 2TFM-8GB at the 64 GB data set).
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        print!("{:16}", "");
        for c in &self.columns {
            print!(" {c:>11}");
        }
        println!();
        for row in &self.rows {
            print!("{:16}", row.label);
            for v in &row.values {
                if v.is_nan() {
                    print!(" {:>11}", "-");
                } else if v.abs() >= 1000.0 {
                    print!(" {v:>11.0}");
                } else {
                    print!(" {v:>11.3}");
                }
            }
            println!();
        }
    }
}

impl Table {
    /// Renders one column of the table as a horizontal ASCII bar chart —
    /// the closest terminal analogue of the paper's grouped-bar figures.
    /// `NaN` cells render as `(omitted)`, matching the paper's missing
    /// bars.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range.
    pub fn print_bars(&self, column: usize) {
        assert!(column < self.columns.len(), "column out of range");
        println!("\n-- {} @ {} --", self.title, self.columns[column]);
        let max = self
            .rows
            .iter()
            .map(|r| r.values[column])
            .filter(|v| v.is_finite())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        const WIDTH: usize = 48;
        for row in &self.rows {
            let v = row.values[column];
            if v.is_nan() {
                println!("{:16} (omitted)", row.label);
                continue;
            }
            let filled = ((v / max) * WIDTH as f64).round().clamp(0.0, WIDTH as f64) as usize;
            println!(
                "{:16} {:bar$}{:space$} {v:.3}",
                row.label,
                "#".repeat(filled),
                "",
                bar = filled.clamp(1, WIDTH),
                space = WIDTH - filled,
            );
        }
    }

    /// Renders the table as CSV (label column first, `NaN` as empty cell)
    /// for spreadsheet/plotting pipelines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.label);
            for v in &row.values {
                out.push(',');
                if !v.is_nan() {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Writes any serializable result to `results/<name>.json` relative to the
/// workspace root (or the current directory when run elsewhere).
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = workspace_results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    fs::write(&path, json)?;
    println!("[saved {}]", path.display());
    Ok(())
}

fn workspace_results_dir() -> std::path::PathBuf {
    // crates/bench -> workspace root, when run via cargo from anywhere.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_checks_width() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push("row", vec![1.0, 2.0]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_width_panics() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push("row", vec![1.0, 2.0]);
    }

    #[test]
    fn bars_render_without_panicking() {
        let mut t = Table::new("t", vec!["x".into()]);
        t.push("a", vec![10.0]);
        t.push("b", vec![f64::NAN]);
        t.push("c", vec![0.0]);
        t.print_bars(0); // visual smoke: must not panic on NaN/zero/max
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn bars_check_column_bounds() {
        let t = Table::new("t", vec!["x".into()]);
        t.print_bars(1);
    }

    #[test]
    fn csv_renders_nan_as_empty() {
        let mut t = Table::new("t", vec!["x".into(), "y".into()]);
        t.push("a", vec![1.5, f64::NAN]);
        t.push("b", vec![2.0, 3.0]);
        assert_eq!(t.to_csv(), "label,x,y\na,1.5,\nb,2,3\n");
    }
}
