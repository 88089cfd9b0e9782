//! E11 — §5.1 ablation: the DSI index vs the classic continuous interval
//! index.
//!
//! Two comparisons:
//!
//! 1. **grouping leak** — with continuous labels the gap-free layout lets
//!    the server compute exactly how many label events hide inside a grouped
//!    interval (`hi − lo − 1` is fully determined), so the candidate
//!    structure count collapses to 1; DSI's random gaps keep the count at
//!    the Theorem 5.1 value. We measure the attacker's success at inferring
//!    the exact number of nodes behind each grouped interval.
//! 2. **join speed** — structural joins run at the same asymptotic cost on
//!    both labelings (the security is free in query-processing terms).

use crate::report::{fmt_duration, Table};
use crate::ExpConfig;
use exq_index::dsi::DsiLabeling;
use exq_index::sjoin::{join_anc_desc, sort_intervals};
use exq_workload::nasa;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let doc = nasa::generate_datasets(400, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dsi = DsiLabeling::assign(&doc, &mut rng);
    let cont = DsiLabeling::assign_continuous(&doc);

    // --- 1. Grouping leak ------------------------------------------------
    // Group each dataset's author run (adjacent same-tag siblings) the way
    // the metadata builder would, then let the attacker infer the hidden
    // node count from the interval width.
    let mut t1 = Table::new(
        "e11_grouping_leak",
        "Continuous vs DSI: attacker inferring hidden node counts behind grouped intervals",
        &["labeling", "groups", "exact inferences", "success rate"],
    );
    for (name, labeling, deterministic_gap) in [("continuous", &cont, true), ("DSI", &dsi, false)] {
        let mut groups = 0usize;
        let mut exact = 0usize;
        for ds in doc.elements_by_tag("dataset") {
            let authors: Vec<_> = doc
                .node(ds)
                .children()
                .iter()
                .copied()
                .filter(|&c| doc.element_name(c) == Some("author"))
                .collect();
            if authors.len() < 2 {
                continue;
            }
            groups += 1;
            let lo = labeling.interval(authors[0]).unwrap().lo;
            let hi = labeling.interval(*authors.last().unwrap()).unwrap().hi;
            // The true number of structural events inside the grouped span:
            let truth: u64 = authors
                .iter()
                .map(|&a| doc.descendants(a).count() as u64 * 2)
                .sum();
            // Continuous labels advance by exactly 1 per event, so the
            // width reveals the event count exactly.
            let inferred = hi - lo + 1;
            if deterministic_gap {
                if inferred == truth {
                    exact += 1;
                }
            } else {
                // DSI attacker applies the same rule; gaps randomize it.
                if inferred == truth {
                    exact += 1;
                }
            }
        }
        t1.row(vec![
            name.to_owned(),
            groups.to_string(),
            exact.to_string(),
            format!("{:.2}", exact as f64 / groups.max(1) as f64),
        ]);
    }

    // --- 2. Join speed ----------------------------------------------------
    let mut t2 = Table::new(
        "e11_join_speed",
        "Structural-join speed: DSI vs continuous labels (dataset ⋈ author)",
        &["labeling", "pairs", "join time"],
    );
    for (name, labeling) in [("continuous", &cont), ("DSI", &dsi)] {
        let mut anc: Vec<_> = doc
            .elements_by_tag("dataset")
            .iter()
            .map(|&n| labeling.interval(n).unwrap())
            .collect();
        let mut desc: Vec<_> = doc
            .elements_by_tag("author")
            .iter()
            .map(|&n| labeling.interval(n).unwrap())
            .collect();
        sort_intervals(&mut anc);
        sort_intervals(&mut desc);
        let t0 = Instant::now();
        let mut pairs = 0usize;
        for _ in 0..20 {
            pairs = join_anc_desc(&anc, &desc).len();
        }
        let dt = t0.elapsed() / 20;
        t2.row(vec![name.to_owned(), pairs.to_string(), fmt_duration(dt)]);
    }
    vec![t1, t2]
}
