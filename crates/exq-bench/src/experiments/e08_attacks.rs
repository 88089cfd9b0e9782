//! E8 — §3.3 attack model, operationally: the frequency-based attack against
//! (a) naive deterministic per-leaf encryption and (b) the system's OPESS
//! value index; plus the size-based attack against decoy-equalized blocks.
//!
//! Paper shape: (a) cracks every uniquely-frequent value, (b) cracks
//! (essentially) nothing; decoys make equal-plaintext blocks differ so the
//! size-based attack cannot separate candidates.

use crate::report::Table;
use crate::setup::Dataset;
use crate::ExpConfig;
use exq_core::analysis::attack;
use exq_core::scheme::SchemeKind;

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let small = ExpConfig {
        size_bytes: cfg.size_bytes.min(512 * 1024),
        ..cfg.clone()
    };
    let mut t = Table::new(
        "e8_frequency_attack",
        "Frequency-based attack: correct cracks (claims in parentheses)",
        &[
            "dataset",
            "attribute",
            "naive correct",
            "OPESS correct",
            "OPESS claimed",
            "distinct values",
        ],
    );
    for ds in Dataset::both(&small) {
        let hosted = ds.host(SchemeKind::Opt, cfg.seed);
        let plain_hists = ds.doc.value_histogram();
        // Attack every attribute that the system actually indexes.
        let state = hosted.client.state();
        let mut attrs: Vec<&String> = state.opess.keys().collect();
        attrs.sort();
        for attr in attrs {
            let Some(plain) = plain_hists.get(attr) else {
                continue;
            };
            // (a) naive: ciphertext histogram == plaintext histogram, with
            //     every owner exposed by the deterministic mapping.
            let naive_hist: Vec<(u64, Option<String>)> = plain
                .iter()
                .map(|(k, &c)| (c as u64, Some(k.clone())))
                .collect();
            let naive = attack::frequency_attack_strings(plain, &naive_hist);
            // (b) ours: the attacker reads the OPESS histogram; ground
            //     truth comes from the plan.
            let cipher_hist = attack::opess_cipher_histogram(&state.opess[attr], plain);
            let ours = attack::frequency_attack_strings(plain, &cipher_hist);
            t.row(vec![
                ds.name.to_owned(),
                attr.clone(),
                naive.correct.to_string(),
                ours.correct.to_string(),
                ours.claimed.to_string(),
                plain.len().to_string(),
            ]);
        }
    }

    // Size-based attack: candidate databases that differ only in sensitive
    // values have identical encrypted sizes thanks to padding-free stream
    // encryption of equal-length serializations + decoys making equal
    // plaintexts distinct.
    let mut t2 = Table::new(
        "e8_size_attack",
        "Size-based attack: blocks with equal plaintext values stay distinct and equal-sized",
        &[
            "dataset",
            "blocks",
            "distinct ciphertexts",
            "size-identical pairs",
        ],
    );
    for ds in Dataset::both(&small) {
        let hosted = ds.host(SchemeKind::Opt, cfg.seed);
        let sizes: Vec<usize> = (0..hosted.setup.block_count).map(|_| 0).collect();
        let _ = sizes;
        let mut distinct = std::collections::HashSet::new();
        let mut size_hist: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let resp = hosted.server.answer_naive().unwrap();
        for b in &resp.blocks {
            distinct.insert(b.ciphertext);
            *size_hist.entry(b.ciphertext.len()).or_default() += 1;
        }
        let identical_pairs: usize = size_hist
            .values()
            .map(|&c| c * c.saturating_sub(1) / 2)
            .sum();
        t2.row(vec![
            ds.name.to_owned(),
            resp.blocks.len().to_string(),
            distinct.len().to_string(),
            identical_pairs.to_string(),
        ]);
    }
    vec![t, t2]
}
