//! # lc-bench — the experiment harness
//!
//! One binary per figure/experiment of DESIGN.md §4 (`cargo run -p
//! lc-bench --release --bin <id>`), plus Criterion micro-benchmarks for
//! the hot paths (`cargo bench`). Every binary prints the table (or
//! figure facsimile) it regenerates; EXPERIMENTS.md records the outputs
//! and compares them against the paper's qualitative claims.

use std::fmt::Write as _;

pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub(crate) mod json;
pub mod micro;

/// What one experiment run renders: the printed report and its JSON
/// artefact.
pub struct Output {
    /// Human-readable report; any wall-clock column is marked `wall`.
    pub report: String,
    /// The JSON artefact, rendered by `json::Obj`.
    pub json: String,
}

/// Render a titled ASCII table with aligned columns.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut doc = String::new();
    let _ = writeln!(doc, "\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(doc, "{line}");
    let _ = writeln!(doc, "{}", "-".repeat(line.len().min(100)));
    for row in rows {
        let mut out = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "{cell:>w$}  ");
        }
        let _ = writeln!(doc, "{out}");
    }
    doc
}

/// Print a titled ASCII table with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, headers, rows));
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format bytes human-readably.
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Print `{tag}: {msg}` and exit 2 (a bad command line).
pub fn die(tag: &str, msg: &str) -> ! {
    eprintln!("{tag}: {msg}");
    std::process::exit(2);
}

/// Write each `(path, body)` artefact, or exit 1 naming the file.
pub fn write_artefacts(tag: &str, files: &[(&str, &str)]) {
    for (path, body) in files {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("{tag}: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Command line of the sweep drivers E13–E15:
/// `[--max-nodes N] [GATE_FLAG T] [JSON_PATH]`.
pub struct SweepArgs {
    /// Largest sweep point.
    pub max_nodes: u32,
    /// The threshold given with the driver's gate flag, if any.
    pub gate: Option<f64>,
    /// JSON artefact path (default `target/BENCH_{tag}.json`).
    pub path: String,
}

impl SweepArgs {
    /// Parse the process arguments; a bad value exits through [`die`].
    pub fn parse(tag: &str, gate_flag: &str, max_nodes: u32) -> SweepArgs {
        let mut out = SweepArgs { max_nodes, gate: None, path: format!("target/BENCH_{tag}.json") };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--max-nodes" {
                let v = args.next().unwrap_or_default();
                out.max_nodes =
                    v.parse().unwrap_or_else(|_| die(tag, &format!("bad --max-nodes {v}")));
            } else if a == gate_flag {
                let v = args.next().unwrap_or_default();
                out.gate = Some(v.parse().unwrap_or_else(|_| die(tag, &format!("bad gate {v}"))));
            } else {
                out.path = a;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // rounds
        assert_eq!(human_bytes(100), "100 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["col1", "column2"],
            &[vec!["a".into(), "b".into()], vec!["longer".into(), "x".into()]],
        );
    }
}
