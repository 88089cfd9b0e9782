//! A guided walkthrough of the paper's running artifacts, section by
//! section, printed side by side with what this implementation produces:
//!
//! * §3.2 / Example 3.1 — the security constraints;
//! * §4.1 / Figure 2    — the encrypted health-care database (blocks, decoys);
//! * §5.1 / Figure 4    — the DSI index table and encryption block table;
//! * §5.2 / Figure 6    — OPESS frequency flattening;
//! * §6.1 / Figure 7    — client query translation;
//! * §6.2               — server-side evaluation (EXPLAIN view);
//! * Theorems 4.1/5.2   — the candidate counts for this very database.
//!
//! ```sh
//! cargo run --release --example paper_walkthrough
//! ```

use encrypted_xml::core::analysis::counting;
use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::workload::hospital;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== §3.2 / Example 3.1: security constraints =====================");
    let doc = hospital::document();
    let constraints = hospital::constraints();
    for (i, sc) in constraints.iter().enumerate() {
        println!("  SC{}: {sc}", i + 1);
    }

    println!("\n== §4.1 / Figure 2: the encrypted database ======================");
    let hosted = Outsourcer::new(OutsourceConfig::default()).outsource(
        &doc,
        &constraints,
        SchemeKind::Opt,
        2006,
    )?;
    println!(
        "  optimal secure scheme: {} blocks, |S| = {}",
        hosted.setup.block_count, hosted.setup.scheme_size
    );
    println!(
        "  server-visible document (sensitive subtrees cut out, each block at a byte offset):"
    );
    println!("    {}", hosted.server.visible_xml());

    println!("\n== §5.1 / Figure 4: metadata on the server ======================");
    let meta = hosted.server.metadata();
    println!(
        "  (b) DSI index table ({} tags):",
        meta.dsi_table.tag_count()
    );
    let mut rows: Vec<(String, usize)> = meta
        .dsi_table
        .iter()
        .map(|(tag, ivs)| (tag.to_owned(), ivs.len()))
        .collect();
    rows.sort();
    for (tag, n) in rows.iter().take(8) {
        let display_tag = if tag.len() > 12 { &tag[..12] } else { tag };
        println!("      {display_tag:<14} {n} interval(s)");
    }
    if rows.len() > 8 {
        println!("      … {} more tags", rows.len() - 8);
    }
    let blocks = || meta.block_table.iter(&meta.dsi_table);
    println!(
        "  (a) encryption block table ({} blocks):",
        blocks().count()
    );
    for (iv, id) in blocks().take(4) {
        println!(
            "      block {id}: representative interval [{}, {}]",
            iv.lo, iv.hi
        );
    }

    println!("\n== §5.2 / Figure 6: OPESS value index ===========================");
    let state = hosted.client.state();
    let mut attrs: Vec<&String> = state.opess.keys().collect();
    attrs.sort();
    for attr in attrs {
        let plan = &state.opess[attr].plan;
        println!(
            "  attribute `{attr}`: m = {}, K = {} keys, {} plaintext values -> {} ciphertexts",
            plan.m(),
            plan.key_count(),
            plan.entries().len(),
            plan.split_histogram().len(),
        );
    }

    println!("\n== §6.1 / Figure 7: query translation on the client =============");
    let q = "//patient[.//insurance//@coverage >= 10000]//SSN";
    println!("  original query Q:   {q}");
    let tq = hosted.client.translate(q)?;
    let sq = tq.server_query.as_ref().expect("server-evaluable");
    println!("  translated query Q': {sq}");

    println!("\n== §6.2: server-side evaluation (EXPLAIN) =======================");
    let explain = hosted.server.explain(sq);
    for (i, step) in explain.steps.iter().enumerate() {
        let marker = if i == explain.anchor {
            "  <- anchor"
        } else {
            ""
        };
        println!(
            "  step {i}: {} candidate interval(s) -> {} survivor(s){marker}",
            step.candidates, step.survivors
        );
    }
    let outcome = hosted.query(q)?;
    println!(
        "  answer after decryption + post-processing: {:?}",
        outcome.results
    );
    assert_eq!(outcome.results, ["<SSN>763895</SSN>"]);

    println!("\n== Theorems 4.1 / 5.2 on this database ==========================");
    let hist = doc.value_histogram();
    let disease_freqs: Vec<u64> = hist["disease"].values().map(|&c| c as u64).collect();
    println!(
        "  Thm 4.1, `disease` histogram {disease_freqs:?}: {} candidate databases",
        counting::encryption_candidates(&disease_freqs)
    );
    println!(
        "  Thm 5.2, paper's (n=15, k=5) example: {} order-preserving splittings",
        counting::value_candidates(15, 5)
    );
    println!("\nwalkthrough complete ✓");
    Ok(())
}
