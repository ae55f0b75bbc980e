//! Rendering helpers: ASCII tables, CSV series, JSON reports, and PGM
//! heatmaps.
//!
//! JSON documents are [`serde::Value`] trees (re-exported here as
//! [`Json`]); this crate no longer maintains a parallel serializer — the
//! bench reports render through the same deterministic JSON machinery as
//! the `gtl-api` wire contracts.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value for machine-readable bench reports — an alias for
/// [`serde::Value`], which provides the [`Json::num`] / [`Json::str`] /
/// [`Json::arr`] / [`Json::obj`] constructors the bench binaries use.
///
/// # Example
///
/// ```
/// use gtl_bench::report::Json;
///
/// let doc = Json::obj([
///     ("bench", Json::str("finder_parallel")),
///     ("threads", Json::arr([Json::num(1.0), Json::num(8.0)])),
/// ]);
/// assert_eq!(
///     doc.render(),
///     r#"{"bench":"finder_parallel","threads":[1,8]}"#
/// );
/// ```
pub use serde::Value as Json;

/// Writes a [`Json`] document (with a trailing newline).
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_json(path: impl AsRef<Path>, value: &Json) -> std::io::Result<()> {
    std::fs::write(path, value.render() + "\n")
}

/// A simple left-aligned ASCII table, printed like the paper's tables.
///
/// # Example
///
/// ```
/// use gtl_bench::report::Table;
///
/// let mut t = Table::new(&["case", "|V|", "found"]);
/// t.row(&["1", "10000", "1"]);
/// let text = t.render();
/// assert!(text.contains("case"));
/// assert!(text.contains("10000"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row; missing cells render empty, extras are kept.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.rows.push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Renders the table with column-aligned padding.
    pub fn render(&self) -> String {
        let columns = self.rows.iter().map(Vec::len).chain([self.header.len()]).max().unwrap_or(0);
        let mut widths = vec![0usize; columns];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            #[allow(clippy::needless_range_loop)] // rows may be shorter than `columns`
            for i in 0..columns {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
                if i + 1 < columns {
                    out.push_str("  ");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Writes named columns of equal length as a CSV file.
///
/// # Panics
///
/// Panics if the column lengths differ.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_csv(path: impl AsRef<Path>, columns: &[(&str, &[f64])]) -> std::io::Result<()> {
    let len = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
    assert!(columns.iter().all(|(_, c)| c.len() == len), "column length mismatch");
    let mut out = String::new();
    let _ = writeln!(out, "{}", columns.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(","));
    for i in 0..len {
        let line: Vec<String> = columns.iter().map(|(_, c)| format!("{}", c[i])).collect();
        let _ = writeln!(out, "{}", line.join(","));
    }
    std::fs::write(path, out)
}

/// Writes a row-major grid of values in `[0, max]` as a binary PGM
/// heatmap (renderable by any image viewer; used for the congestion and
/// placement figures).
///
/// # Panics
///
/// Panics if `grid.len() != width * height`.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_pgm(
    path: impl AsRef<Path>,
    grid: &[f64],
    width: usize,
    height: usize,
) -> std::io::Result<()> {
    assert_eq!(grid.len(), width * height, "grid dimensions mismatch");
    let peak = grid.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let mut data = format!("P5\n{width} {height}\n255\n").into_bytes();
    // Flip vertically: row 0 of the grid is the bottom of the die.
    for y in (0..height).rev() {
        for x in 0..width {
            let v = (grid[y * width + x] / peak * 255.0).round().clamp(0.0, 255.0);
            data.push(v as u8);
        }
    }
    std::fs::write(path, data)
}

/// Renders a grid as a coarse ASCII heatmap (for terminal output), using
/// ten brightness levels.
pub fn ascii_heatmap(grid: &[f64], width: usize, height: usize) -> String {
    assert_eq!(grid.len(), width * height, "grid dimensions mismatch");
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let peak = grid.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let mut out = String::with_capacity((width + 1) * height);
    for y in (0..height).rev() {
        for x in 0..width {
            let level = (grid[y * width + x] / peak * 9.0).round() as usize;
            out.push(RAMP[level.min(9)]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_alias_keeps_report_conventions() {
        // Integral numbers render without a decimal point, non-finite as
        // null — the conventions results/*.json consumers rely on.
        let doc = Json::arr([Json::num(f64::NAN), Json::num(f64::INFINITY), Json::num(1.5)]);
        assert_eq!(doc.render(), "[null,null,1.5]");
        assert_eq!(Json::num(8.0).render(), "8");
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxx", "1"]);
        t.row(&["y"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("xxxx"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = gtl_core::testdir::test_dir("gtl_report_test", "csv_roundtrip");
        let path = dir.join("t.csv");
        write_csv(&path, &[("x", &[1.0, 2.0]), ("y", &[3.5, 4.5])]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "x,y\n1,3.5\n2,4.5\n");
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn csv_mismatched_columns_panic() {
        let dir = gtl_core::testdir::test_dir("gtl_report_test", "csv_mismatched_columns_panic");
        let _ = write_csv(dir.join("bad.csv"), &[("x", &[1.0]), ("y", &[1.0, 2.0])]);
    }

    #[test]
    fn pgm_header_and_size() {
        let dir = gtl_core::testdir::test_dir("gtl_report_test", "pgm_header_and_size");
        let path = dir.join("t.pgm");
        write_pgm(&path, &[0.0, 0.5, 1.0, 0.25], 2, 2).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P5\n2 2\n255\n"));
        assert_eq!(data.len(), b"P5\n2 2\n255\n".len() + 4);
        // Brightest pixel is value 1.0 → 255.
        assert!(data.ends_with(&[128, 255, 0, 64]) || data[data.len() - 4..].contains(&255));
    }

    #[test]
    fn ascii_heatmap_shape() {
        let text = ascii_heatmap(&[0.0, 1.0, 0.5, 0.0], 2, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().count(), 2);
        // Peak maps to '@'.
        assert!(text.contains('@'));
    }
}
