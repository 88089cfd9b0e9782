//! One module per reproduced experiment (see DESIGN.md §2 for the index).
//! These are the paper's figures and theorems, run in-process; the hosted
//! service is measured by `ledger/`, kernels by `benches/micro.rs`.

pub mod e01_opess_distribution;
pub mod e02_division_of_work;
pub mod e03_vs_naive;
pub mod e04_fig9_schemes;
pub mod e05_fig10_saving_ratios;
pub mod e06_encryption_cost;
pub mod e07_candidate_counts;
pub mod e08_attacks;
pub mod e09_belief;
pub mod e10_cover_ablation;
pub mod e11_dsi_ablation;
pub mod e12_updates;
pub mod e13_scaling;

use crate::report::Table;
use crate::{robust_mean, ExpConfig};
use exq_core::system::{HostedDatabase, PhaseTiming};
use std::time::Duration;

/// An experiment entry: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&ExpConfig) -> Vec<Table>);

/// Every experiment id with its runner and a one-line description.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "Figure 6: value distribution before/after OPESS",
            e01_opess_distribution::run,
        ),
        (
            "e2",
            "§7.2: division of work between client and server",
            e02_division_of_work::run,
        ),
        (
            "e3",
            "§7.3: our approach vs the naive method",
            e03_vs_naive::run,
        ),
        (
            "e4",
            "Figure 9: query performance of the four schemes",
            e04_fig9_schemes::run,
        ),
        (
            "e5",
            "Figure 10: app/opt saving ratios over top/sub",
            e05_fig10_saving_ratios::run,
        ),
        (
            "e6",
            "§7.4: encryption time and encrypted-document size",
            e06_encryption_cost::run,
        ),
        (
            "e7",
            "Theorems 4.1/5.1/5.2: exact candidate-database counts",
            e07_candidate_counts::run,
        ),
        (
            "e8",
            "§3.3: frequency- and size-based attacks",
            e08_attacks::run,
        ),
        (
            "e9",
            "Theorem 6.1: belief under query observation",
            e09_belief::run,
        ),
        (
            "e10",
            "§4.2 ablation: exact vs approximate vertex cover",
            e10_cover_ablation::run,
        ),
        (
            "e11",
            "§5.1 ablation: DSI vs continuous interval index",
            e11_dsi_ablation::run,
        ),
        (
            "e12",
            "extension: incremental update performance (§8 future work)",
            e12_updates::run,
        ),
        (
            "e13",
            "extension: document-size scalability sweep",
            e13_scaling::run,
        ),
    ]
}

/// Robust-mean phase timings for one query measured `trials` times.
pub(crate) fn measure_query(
    hosted: &HostedDatabase,
    query: &str,
    trials: usize,
    naive: bool,
) -> (PhaseTiming, usize, usize) {
    let mut samples: Vec<PhaseTiming> = Vec::with_capacity(trials);
    let mut bytes = 0;
    let mut blocks = 0;
    for _ in 0..trials.max(1) {
        let out = if naive {
            hosted.query_naive(query).expect("query failed")
        } else {
            hosted.query(query).expect("query failed")
        };
        bytes = out.bytes_to_client;
        blocks = out.blocks_shipped;
        samples.push(out.timing);
    }
    (combine(&samples), bytes, blocks)
}

fn combine(samples: &[PhaseTiming]) -> PhaseTiming {
    let pick =
        |f: fn(&PhaseTiming) -> Duration| robust_mean(&samples.iter().map(f).collect::<Vec<_>>());
    PhaseTiming {
        client_translate: pick(|t| t.client_translate),
        server_translate: pick(|t| t.server_translate),
        server_process: pick(|t| t.server_process),
        transmit: pick(|t| t.transmit),
        decrypt: pick(|t| t.decrypt),
        post_process: pick(|t| t.post_process),
    }
}

/// Sums phase timings across a query set (the per-class aggregate the paper
/// reports).
pub(crate) fn sum_phases(list: &[PhaseTiming]) -> PhaseTiming {
    let mut out = PhaseTiming::default();
    for t in list {
        out.client_translate += t.client_translate;
        out.server_translate += t.server_translate;
        out.server_process += t.server_process;
        out.transmit += t.transmit;
        out.decrypt += t.decrypt;
        out.post_process += t.post_process;
    }
    out
}
