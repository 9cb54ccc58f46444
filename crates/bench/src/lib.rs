//! # stellar-bench — regenerates every table and figure of the paper
//!
//! One module per experiment. Each exposes a `run(quick)` function
//! returning rows declared with [`json_row!`](stellar_sim::json::json_row)
//! plus a `render` function producing the text table of the rows/series
//! the paper reports. Every `render` hands its title and columns (header,
//! width, cell formatter) to one private table builder in this module,
//! which owns the table format. The `reproduce` binary dispatches on
//! experiment id and prints either `render` or [`json_line`]; the benches
//! reuse the same runners with `quick = true`.
//!
//! `quick` trades statistical smoothness for speed (smaller fabrics,
//! shorter runs); the *relative* results — who wins, roughly by how much,
//! where the crossovers sit — are stable across both modes.

#![warn(missing_docs)]

use std::fmt::{Display, Write as _};

use stellar_sim::json::{rows_to_json, ToJsonRow};

pub mod chaos;
pub mod claims;
pub mod cluster;
pub mod fig06_startup;
pub mod fig08_atc;
pub mod fig09_permutation;
pub mod fig10_background;
pub mod fig11_failures;
pub mod fig12_imbalance;
pub mod fig13_micro;
pub mod fig14_gdr;
pub mod fig15_virt;
pub mod fig16_llm;
pub mod recovery;
pub mod scale;
pub mod table1_comm;
pub mod timeline;

/// Render one experiment's rows as the line `reproduce --json` prints:
/// `{"experiment":"<name>","rows":[...]}` and a newline.
pub fn json_line<T: ToJsonRow>(experiment: &str, rows: &[T]) -> String {
    format!(
        "{{\"experiment\":\"{experiment}\",\"rows\":{}}}\n",
        rows_to_json(rows)
    )
}

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

/// `n/a` for the negative sentinel an undefined ratio or time carries,
/// else `value` formatted by `fmt`.
fn or_na(value: f64, fmt: impl FnOnce(f64) -> String) -> String {
    if value < 0.0 {
        "n/a".to_string()
    } else {
        fmt(value)
    }
}
