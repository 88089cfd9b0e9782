//! Security-property assertions over the hosted system: what the paper
//! proves analytically, checked operationally against what the server
//! actually stores.

use encrypted_xml::core::analysis::{attack, counting};
use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::core::SecurityConstraint;
use encrypted_xml::workload::{hospital, nasa, xmark};
use encrypted_xml::xml::SpanDocument;
use encrypted_xml::xpath::{eval, eval_document, eval_from};

/// Everything captured by a node-type SC must be invisible to the server:
/// its tags appear neither in the visible document nor as plaintext keys in
/// the DSI table.
#[test]
fn node_type_constraints_hide_subtrees() {
    let doc = hospital::document();
    let cs = hospital::constraints();
    for kind in SchemeKind::ALL {
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, kind, 3)
            .unwrap();
        let visible = hosted.server.visible_xml();
        for tag in ["insurance", "policy"] {
            assert!(
                !visible.contains(&format!("<{tag}")),
                "{kind:?}: {tag} visible"
            );
            assert!(
                hosted.server.metadata().dsi_table.lookup(tag).is_empty(),
                "{kind:?}: plaintext {tag} in DSI table"
            );
        }
        // Insurance leaf values must not leak either.
        for v in ["34221", "78543", "1000000"] {
            assert!(!visible.contains(v), "{kind:?}: value {v} visible");
        }
    }
}

/// For every association SC and every context binding, at least one endpoint
/// must be inside an encryption block (the `is_enforced` semantics), for all
/// schemes and both workloads.
#[test]
fn association_constraints_enforced_everywhere() {
    for (doc, cs) in [
        (xmark::generate_people(30, 5), xmark::constraints()),
        (nasa::generate_datasets(30, 5), nasa::constraints()),
    ] {
        for kind in SchemeKind::ALL {
            let hosted = Outsourcer::new(OutsourceConfig::default())
                .outsource(&doc, &cs, kind, 9)
                .unwrap();
            assert!(
                hosted.scheme.enforces(&doc, &cs),
                "{kind:?} does not enforce the constraints"
            );
        }
    }
}

/// What the server holds in the clear, `visible` (the hosted visible
/// text), satisfies `constraints`: no node-type SC path binds anything in
/// it, and no binding of an association's context holds a binding of both
/// endpoints. Returns the first violation.
fn constraints_hold_in_the_clear(
    visible: &str,
    constraints: &[SecurityConstraint],
) -> Result<(), String> {
    if visible.is_empty() {
        return Ok(());
    }
    let doc = SpanDocument::parse(visible).map_err(|e| e.to_string())?;
    for sc in constraints {
        match sc {
            SecurityConstraint::NodeType(p) => {
                if let Some(&n) = eval(&doc, p).first() {
                    let at = doc.span(n).start;
                    return Err(format!("`{sc}` binds the node at byte {at}"));
                }
            }
            SecurityConstraint::Association { context, q1, q2 } => {
                for x in eval(&doc, context) {
                    let bound = |q| !eval_from(&doc, q, &[x]).is_empty();
                    if bound(q1) && bound(q2) {
                        let at = doc.span(x).start;
                        return Err(format!("`{sc}`: the context at byte {at} holds both"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The hosted bytes satisfy the constraints right after set-up, for every
/// scheme: read back from the server's visible text, no node-type SC binds
/// anything and no association has both endpoints in the clear.
#[test]
fn hosted_text_satisfies_the_constraints_after_set_up() {
    for (doc, cs) in [
        (hospital::document(), hospital::constraints()),
        (xmark::generate_people(30, 5), xmark::constraints()),
        (nasa::generate_datasets(30, 5), nasa::constraints()),
    ] {
        // The plaintext itself breaks them: the check can fail.
        assert!(constraints_hold_in_the_clear(&doc.to_xml(), &cs).is_err());
        for kind in SchemeKind::ALL {
            let hosted = Outsourcer::new(OutsourceConfig::default())
                .outsource(&doc, &cs, kind, 9)
                .unwrap();
            let visible = hosted.server.visible_xml();
            if let Err(why) = constraints_hold_in_the_clear(visible, &cs) {
                panic!("{kind:?}: {why}");
            }
            assert_eq!(visible.is_empty(), kind == SchemeKind::Top, "{kind:?}");
        }
    }
}

/// The OPESS value index never exposes a ciphertext histogram that the
/// exact-frequency attacker can crack, for any indexed attribute.
#[test]
fn value_index_resists_frequency_attack() {
    let doc = xmark::generate_people(150, 8);
    let cs = xmark::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 8)
        .unwrap();
    let plain = doc.value_histogram();
    let state = hosted.client.state();
    let mut attrs_checked = 0;
    for (attr, opess) in &state.opess {
        let Some(p) = plain.get(attr) else { continue };
        let hist = attack::opess_cipher_histogram(opess, p);
        let out = attack::frequency_attack_strings(p, &hist);
        assert_eq!(out.correct, 0, "attribute {attr} cracked");
        attrs_checked += 1;
    }
    assert!(attrs_checked >= 2, "too few attributes exercised");
}

/// Theorem 4.1 operationally: every sealed block has a unique ciphertext
/// (decoys guarantee this even for equal plaintexts), so the size-based +
/// frequency-based attacker cannot match blocks to contents.
#[test]
fn blocks_are_pairwise_distinct() {
    let doc = hospital::scaled(120, 4);
    let cs = vec![SecurityConstraint::parse("//disease").unwrap()];
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 4)
        .unwrap();
    let resp = hosted.server.answer_naive().unwrap();
    let mut seen = std::collections::HashSet::new();
    for b in &resp.blocks {
        assert!(seen.insert(b.ciphertext), "duplicate ciphertext");
    }
    // Only five distinct disease strings back those 100+ blocks.
    let distinct_plain: std::collections::HashSet<String> = eval_document(
        &doc,
        &encrypted_xml::xpath::Path::parse("//disease").unwrap(),
    )
    .into_iter()
    .map(|n| doc.text_value(n))
    .collect();
    assert!(distinct_plain.len() <= 5);
    assert!(resp.blocks.len() > 50);
}

/// The candidate-database count for the hosted system is "large"
/// (Definition 3.3/3.4): at least exponential in the histogram size.
#[test]
fn candidate_counts_are_exponential() {
    let doc = nasa::generate_datasets(60, 6);
    let hist = doc.value_histogram();
    let ages: Vec<u64> = hist["age"].values().map(|&c| c as u64).collect();
    let count = counting::encryption_candidates(&ages);
    assert!(
        count.approx_log10() > 20.0,
        "candidate count not exponential: 10^{:.1}",
        count.approx_log10()
    );
}

/// Observing queries and answers never increases the attacker's belief
/// (Theorem 6.1) — driven through real query traffic.
#[test]
fn belief_non_increasing_over_real_traffic() {
    use encrypted_xml::core::analysis::belief::BeliefTracker;
    use encrypted_xml::workload::{generate_queries, QueryClass};
    let doc = nasa::generate_datasets(40, 6);
    let cs = nasa::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 6)
        .unwrap();
    let mut tracker = BeliefTracker::new(10, 40);
    for class in QueryClass::ALL {
        for q in generate_queries(&doc, class, 4, 6) {
            hosted.query(&q).unwrap();
            tracker.observe_query();
        }
    }
    assert!(tracker.is_non_increasing());
}

/// The Vernam tag cipher never maps two different tags of the vocabulary to
/// the same table key, and no plaintext sensitive tag string appears among
/// the server's table keys.
#[test]
fn dsi_table_keys_are_safe() {
    let doc = xmark::generate_people(40, 5);
    let cs = xmark::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 5)
        .unwrap();
    let state = hosted.client.state();
    let table = hosted.server.metadata().dsi_table.clone();
    let keys: std::collections::HashSet<&str> = table.iter().map(|(k, _)| k).collect();
    for tag in &state.encrypted_tags {
        // Encrypted-only tags must not appear in plaintext form.
        if !state.plain_tags.contains(tag) {
            assert!(!keys.contains(tag.as_str()), "{tag} leaked in table keys");
        }
    }
}
