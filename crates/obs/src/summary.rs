//! The summary renderer the bench binaries report through.
//!
//! A [`Summary`] is an ordered document of titled sections: free-form
//! notes, key/value blocks, and fixed-width [`SummaryTable`]s. Binaries
//! build one per experiment and render it once, so every experiment's
//! stdout has the same shape and golden outputs can be diffed line by
//! line. A summary can also fold in a [`MetricsRegistry`] snapshot,
//! rendering counters/gauges/histograms as a key/value section in
//! lexicographic order.

use std::fmt::Display;

use crate::metrics::MetricsRegistry;

/// A minimal fixed-width table, column-aligned on render.
#[derive(Debug, Clone, Default)]
pub struct SummaryTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl SummaryTable {
    /// A table with the given column headers.
    pub fn new<S: Display>(header: &[S]) -> Self {
        SummaryTable { header: header.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with two-space column gutters and a rule
    /// under the header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout under a `== title ==` heading.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n");
        print!("{}", self.render());
    }
}

#[derive(Debug, Clone)]
enum Section {
    Note(String),
    KeyVals { title: String, pairs: Vec<(String, String)> },
    Table { title: String, table: SummaryTable },
}

/// An ordered, titled report document for one experiment run.
#[derive(Debug, Clone)]
pub struct Summary {
    title: String,
    sections: Vec<Section>,
}

impl Summary {
    /// Starts a summary with a top-level title.
    pub fn new(title: &str) -> Self {
        Summary { title: title.to_string(), sections: Vec::new() }
    }

    /// Appends a free-form note paragraph.
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.sections.push(Section::Note(text.to_string()));
        self
    }

    /// Appends a titled key/value block; pairs render in given order.
    pub fn key_vals<K: Display, V: Display>(&mut self, title: &str, pairs: &[(K, V)]) -> &mut Self {
        self.sections.push(Section::KeyVals {
            title: title.to_string(),
            pairs: pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        });
        self
    }

    /// Appends a titled table section.
    pub fn table(&mut self, title: &str, table: SummaryTable) -> &mut Self {
        self.sections.push(Section::Table { title: title.to_string(), table });
        self
    }

    /// Appends the non-empty parts of a metrics registry as key/value
    /// sections (`counters`, `gauges`, `histograms`), names in
    /// lexicographic order. Histograms render as
    /// `count/sum/min/max/mean`.
    pub fn metrics(&mut self, registry: &MetricsRegistry) -> &mut Self {
        let counters: Vec<(String, String)> =
            registry.counters().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        if !counters.is_empty() {
            self.key_vals("counters", &counters);
        }
        let gauges: Vec<(String, String)> =
            registry.gauges().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        if !gauges.is_empty() {
            self.key_vals("gauges", &gauges);
        }
        let histograms: Vec<(String, String)> = registry
            .histograms()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    format!(
                        "count={} sum={} min={} max={} mean={}",
                        h.count(),
                        h.sum(),
                        h.min().map_or_else(|| "-".into(), |v| v.to_string()),
                        h.max().map_or_else(|| "-".into(), |v| v.to_string()),
                        h.mean().map_or_else(|| "-".into(), |v| v.to_string()),
                    ),
                )
            })
            .collect();
        if !histograms.is_empty() {
            self.key_vals("histograms", &histograms);
        }
        self
    }

    /// Renders the whole document deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for section in &self.sections {
            out.push('\n');
            match section {
                Section::Note(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
                Section::KeyVals { title, pairs } => {
                    out.push_str(&format!("-- {title} --\n"));
                    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
                    for (k, v) in pairs {
                        out.push_str(&format!("{k:<width$}  {v}\n"));
                    }
                }
                Section::Table { title, table } => {
                    out.push_str(&format!("-- {title} --\n"));
                    out.push_str(&table.render());
                }
            }
        }
        out
    }

    /// Prints the rendered document to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = SummaryTable::new(&["name", "n"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("alpha  1"));
        assert!(lines[3].starts_with("b      22"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_row_width() {
        let mut t = SummaryTable::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn summary_renders_sections_in_order() {
        let mut registry = MetricsRegistry::new();
        registry.count("net.sent", 3);
        let mut table = SummaryTable::new(&["k"]);
        table.row(&["v"]);
        let mut summary = Summary::new("demo");
        summary
            .note("a note")
            .key_vals("params", &[("seed", 2013u64)])
            .table("rows", table)
            .metrics(&registry);
        let out = summary.render();
        assert_eq!(
            out,
            "== demo ==\n\na note\n\n-- params --\nseed  2013\n\n\
             -- rows --\nk\n-\nv\n\n-- counters --\nnet.sent  3\n"
        );
    }

    #[test]
    fn empty_metrics_add_no_sections() {
        let mut summary = Summary::new("t");
        summary.metrics(&MetricsRegistry::new());
        assert_eq!(summary.render(), "== t ==\n");
    }
}
