//! Table 1 — parallel strategy and communication ratio of typical models.
//!
//! Paper values for comparison (measured in Alibaba production):
//!
//! | Job | TP | DP | PP |
//! |-----|----|----|----|
//! | Megatron Llama-33B | 4.57% | 20.95% | 2.65% |
//! | Megatron GPT-200B | 10.88% | 1.49% | 20.14% |
//! | DeepSpeed-Zero1 Llama-2B | — | 17.3% | — |
//! | DeepSpeed-Zero3 Llama-13B | — | 10.5% | — |

use stellar_workloads::llm::{comm_ratios, LlmJobConfig};
use stellar_sim::json::json_row;

use crate::Table;

json_row! {
    /// One row of Table 1, measured and paper-reported.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Job name.
        pub name: &'static str,
        /// Parallel parameters "(tp,pp,dp,mb,ga,gb)".
        pub parameters: String,
        /// Measured TP ratio (percent), if applicable.
        pub tp_pct: Option<f64>,
        /// Measured DP ratio (percent).
        pub dp_pct: f64,
        /// Measured PP ratio (percent), if applicable.
        pub pp_pct: Option<f64>,
        /// Paper-reported `(tp, dp, pp)` percentages.
        pub paper: (Option<f64>, f64, Option<f64>),
    }
}

/// Paper-reported ratios per row.
fn paper_values(name: &str) -> (Option<f64>, f64, Option<f64>) {
    match name {
        "Megatron Llama-33B" => (Some(4.57), 20.95, Some(2.65)),
        "Megatron GPT-200B" => (Some(10.88), 1.49, Some(20.14)),
        "DeepSpeed-Zero1 Llama-2B" => (None, 17.3, None),
        "DeepSpeed-Zero3 Llama-13B" => (None, 10.5, None),
        _ => unreachable!("unknown Table 1 row"),
    }
}

/// Compute all four rows.
pub fn run(_quick: bool) -> Vec<Row> {
    LlmJobConfig::table1()
        .iter()
        .map(|job| {
            let r = comm_ratios(job);
            Row {
                name: job.name,
                parameters: format!(
                    "({},{},{},{},{},{})",
                    job.tp, job.pp, job.dp, job.micro_batch, job.grad_accum, job.global_batch
                ),
                tp_pct: r.tp_ratio.map(|v| v * 100.0),
                dp_pct: r.dp_ratio * 100.0,
                pp_pct: r.pp_ratio.map(|v| v * 100.0),
                paper: paper_values(job.name),
            }
        })
        .collect()
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "N/A".to_string(), |x| format!("{x:.2}%"))
}

/// Render the table as `reproduce` prints it.
pub fn render(rows: &[Row]) -> String {
    let pair = |measured, paper| format!("{:>7}|{:>7}", fmt_opt(measured), fmt_opt(paper));
    Table::new("Table 1 — communication ratios (measured | paper)", rows)
        .col("job", 26, |r| r.name)
        .col("(tp,pp,dp,mb,ga,gb)", 22, |r| r.parameters.clone())
        .col("TP", 15, |r| pair(r.tp_pct, r.paper.0))
        .col("DP", 15, |r| pair(Some(r.dp_pct), Some(r.paper.1)))
        .col("PP", 15, |r| pair(r.pp_pct, r.paper.2))
        .finish()
}
