//! # stellar-bench — regenerates every table and figure of the paper
//!
//! One module per experiment. Each exposes a `run(quick)` function
//! returning rows declared with [`json_row!`](stellar_sim::json::json_row)
//! plus a `render` function producing the text table of the rows/series
//! the paper reports. Every `render` hands its title and columns (header,
//! width, cell formatter) to one private table builder in this module,
//! which owns the table format. [`EXPERIMENTS`] declares each experiment
//! and its module once; the `reproduce` binary, the conformance test and
//! the figure benches all read it.
//!
//! `quick` trades statistical smoothness for speed (smaller fabrics,
//! shorter runs); the *relative* results — who wins, roughly by how much,
//! where the crossovers sit — are stable across both modes.

#![warn(missing_docs)]

use std::any::Any;
use std::fmt::{Display, Write as _};

use stellar_sim::json::{rows_to_json, ToJsonRow};

/// One reproducible experiment of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name `reproduce` selects it by and labels its JSON line with.
    pub name: &'static str,
    /// Whether it runs the discrete-event simulator; `reproduce --perf`
    /// reports `null` events for an analytic (closed-form) one.
    pub event_driven: bool,
    /// Simulate it; `quick` picks the scaled-down configuration.
    pub run: fn(quick: bool) -> Box<dyn Rows>,
}

/// An experiment's rows, rendered the two ways `reproduce` prints them.
pub trait Rows: Any + Send + Sync {
    /// The `--json` line: `{"experiment":"<name>","rows":[...]}` and `\n`.
    fn json(&self, name: &str) -> String;
    /// The text table, followed by the blank line `reproduce` prints.
    fn table(&self) -> String;
}

impl dyn Rows {
    /// The typed rows, if they are `R`s.
    pub fn rows<R: 'static>(&self) -> Option<&[R]> {
        (self as &dyn Any).downcast_ref::<Rendered<R>>().map(|r| &r.rows[..])
    }
}

/// One module's rows and its `render`.
struct Rendered<R> {
    rows: Vec<R>,
    render: fn(&[R]) -> String,
}

impl<R: ToJsonRow + Send + Sync + 'static> Rows for Rendered<R> {
    fn json(&self, name: &str) -> String {
        format!("{{\"experiment\":\"{name}\",\"rows\":{}}}\n", rows_to_json(&self.rows))
    }

    fn table(&self) -> String {
        (self.render)(&self.rows) + "\n"
    }
}

/// Declare each experiment's module and its [`EXPERIMENTS`] entry.
macro_rules! experiments {
    ($(($name:literal, $module:ident, $event_driven:literal)),* $(,)?) => {
        $(pub mod $module;)*

        /// Every experiment, in the order `reproduce all` prints them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: $name,
            event_driven: $event_driven,
            run: |quick| Box::new(Rendered { rows: $module::run(quick), render: $module::render }),
        }),*];
    };
}

experiments![
    ("fig6", fig06_startup, false),
    ("fig8", fig08_atc, false),
    ("fig9", fig09_permutation, true),
    ("fig10", fig10_background, true),
    ("fig11", fig11_failures, true),
    ("fig12", fig12_imbalance, true),
    ("fig13", fig13_micro, false),
    ("fig14", fig14_gdr, false),
    ("fig15", fig15_virt, true),
    ("fig16", fig16_llm, true),
    ("table1", table1_comm, false),
    ("claims", claims, false),
    ("timeline", timeline, true),
    ("chaos", chaos, true),
    ("scale", scale, true),
    ("recovery", recovery, true),
    ("cluster", cluster, true),
];

/// A text table built one column at a time: a title line, a header line,
/// then one line per row. Each column right-aligns its header and every
/// cell to its one width; a single space separates columns.
struct Table<'r, R> {
    rows: &'r [R],
    /// The title, the header, then one line per row.
    lines: Vec<String>,
}

impl<'r, R> Table<'r, R> {
    fn new(title: &str, rows: &'r [R]) -> Self {
        let mut lines = vec![String::new(); rows.len() + 2];
        lines[0] = title.to_string();
        Table { rows, lines }
    }

    /// Append a column: `header` over `cell(row)` for every row, each
    /// right-aligned to `width`. `cell` returns a field or a `format!`ed
    /// string: any value whose `Display` honours the width. A header
    /// wider than its column would sit off its cells, so that is refused.
    fn col<T: Display>(mut self, header: &str, width: usize, cell: impl Fn(&R) -> T) -> Self {
        debug_assert!(
            header.chars().count() <= width,
            "header '{header}' is wider than its column ({width})"
        );
        let sep = if self.lines[1].is_empty() { "" } else { " " };
        write!(self.lines[1], "{sep}{header:>width$}").unwrap();
        for (line, row) in self.lines[2..].iter_mut().zip(self.rows) {
            write!(line, "{sep}{:>width$}", cell(row)).unwrap();
        }
        self
    }

    /// Finish the table with an unpadded `verdict` column, set two
    /// spaces off the last padded one.
    fn verdict<T: Display>(mut self, cell: impl Fn(&R) -> T) -> String {
        self.lines[1].push_str("  verdict");
        for (line, row) in self.lines[2..].iter_mut().zip(self.rows) {
            write!(line, "  {}", cell(row)).unwrap();
        }
        self.finish()
    }

    /// Every line, each ending in a newline.
    fn finish(self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

/// A fault window's busbw relative to healthy, or `-1` if undefined.
fn rel(window: Option<f64>, healthy: f64) -> f64 {
    match window {
        Some(bw) if healthy > 0.0 => bw / healthy,
        _ => -1.0,
    }
}

/// `n/a` for the negative sentinel an undefined ratio or time carries,
/// else `value` formatted by `fmt`.
fn or_na(value: f64, fmt: impl FnOnce(f64) -> String) -> String {
    if value < 0.0 {
        "n/a".to_string()
    } else {
        fmt(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_marks_exactly_the_analytic_experiments() {
        let analytic: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| !e.event_driven)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            analytic,
            ["fig6", "fig8", "fig13", "fig14", "table1", "claims"],
            "registry event_driven flags drifted from the bench modules"
        );
    }
}
