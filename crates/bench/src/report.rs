//! Result recording: aligned stdout tables plus JSON rows under `results/`,
//! so the README and CI can cite machine-readable numbers.
//!
//! JSON is emitted by hand (the offline build has no serde): the schema is
//! the fixed four-field record below, so a small writer is all we need.

use chm_obs::{json_f64, json_string};
use std::fs;
use std::path::Path;

/// One experiment's output: an id (e.g. "fig04a"), axis labels, and rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. `fig04a`): the stem of `results/<id>.json`. The
    /// experiment module that builds the table quotes the paper's value.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers; first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Prints an aligned table to stdout.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.id, self.title);
        let width = 14;
        let header: Vec<String> =
            self.columns.iter().map(|c| format!("{c:>width$}")).collect();
        println!("{}", header.join(" "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                        format!("{v:>width$.3e}")
                    } else {
                        format!("{v:>width$.4}")
                    }
                })
                .collect();
            println!("{}", cells.join(" "));
        }
    }

    /// Writes the table as JSON under `results/<id>.json` (creating the
    /// directory if needed) and prints it.
    pub fn finish(&self) {
        self.print();
        if let Err(e) = self.write_json("results") {
            eprintln!("warning: could not write results json: {e}");
        }
    }

    /// Writes the JSON record to `<dir>/<id>.json`.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        fs::create_dir_all(&dir)?;
        let path = dir.as_ref().join(format!("{}.json", self.id));
        fs::write(path, self.to_json())
    }

    /// Renders the table as a pretty-printed JSON object.
    fn to_json(&self) -> String {
        let columns = self
            .columns
            .iter()
            .map(|c| json_string(c))
            .collect::<Vec<_>>()
            .join(", ");
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let cells = row.iter().map(|v| json_f64(*v)).collect::<Vec<_>>().join(", ");
                format!("    [{cells}]")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"columns\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_string(&self.id),
            json_string(&self.title),
            columns,
            rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("test01", "a test", &["x", "y"]);
        t.push(vec![1.0, 2.0]);
        t.push(vec![3.0, 4.5]);
        assert_eq!(t.rows.len(), 2);
        let dir = std::env::temp_dir().join("chm_bench_test");
        t.write_json(&dir).unwrap();
        let s = std::fs::read_to_string(dir.join("test01.json")).unwrap();
        assert!(s.contains("\"id\": \"test01\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.push(vec![1.0]);
    }
}
