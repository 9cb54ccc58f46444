//! # stellar-bench — regenerates every table and figure of the paper
//!
//! One module per experiment. Each exposes a `run(quick)` function
//! returning rows declared with [`json_row!`](stellar_sim::json::json_row)
//! plus a `render` function producing the text table of the rows/series
//! the paper reports. The `reproduce` binary dispatches on experiment id
//! and prints either `render` or [`json_line`]; the benches reuse the
//! same runners with `quick = true`.
//!
//! `quick` trades statistical smoothness for speed (smaller fabrics,
//! shorter runs); the *relative* results — who wins, roughly by how much,
//! where the crossovers sit — are stable across both modes.

#![warn(missing_docs)]

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
