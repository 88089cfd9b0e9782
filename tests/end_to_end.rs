//! Cross-crate integration: generated workloads through the full secure
//! pipeline, answers cross-checked against the plaintext reference.

use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::workload::{generate_queries, QueryClass};
use encrypted_xml::workload::{nasa, xmark};
use encrypted_xml::xml::{Document, TreeView};
use encrypted_xml::xpath::{eval_document, Path};

fn reference(doc: &Document, query: &str) -> Vec<String> {
    let path = Path::parse(query).unwrap();
    eval_document(doc, &path)
        .into_iter()
        .map(|n| match doc.node(n).kind() {
            encrypted_xml::xml::NodeKind::Element(_) => doc.node_to_xml(n),
            encrypted_xml::xml::NodeKind::Attribute(_, v) => v.clone(),
            encrypted_xml::xml::NodeKind::Text(t) => t.clone(),
        })
        .collect()
}

fn check_workload(
    doc: &Document,
    constraints: &[encrypted_xml::core::SecurityConstraint],
    kind: SchemeKind,
    seed: u64,
) {
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(doc, constraints, kind, seed)
        .unwrap();
    for class in QueryClass::ALL {
        for q in generate_queries(doc, class, 4, seed) {
            let mut expected = reference(doc, &q);
            let mut got = hosted
                .query(&q)
                .unwrap_or_else(|e| panic!("{q} failed: {e}"))
                .results;
            expected.sort();
            got.sort();
            assert_eq!(got, expected, "mismatch for {q} ({kind:?})");
        }
    }
}

#[test]
fn xmark_roundtrip_all_schemes() {
    let doc = xmark::generate_people(40, 7);
    let cs = xmark::constraints();
    for kind in SchemeKind::ALL {
        check_workload(&doc, &cs, kind, 21);
    }
}

#[test]
fn nasa_roundtrip_all_schemes() {
    let doc = nasa::generate_datasets(40, 7);
    let cs = nasa::constraints();
    for kind in SchemeKind::ALL {
        check_workload(&doc, &cs, kind, 22);
    }
}

#[test]
fn xmark_value_predicates() {
    let doc = xmark::generate_people(60, 9);
    let cs = xmark::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 3)
        .unwrap();
    // Pick a real name and income from the data.
    let names = eval_document(&doc, &Path::parse("//name").unwrap());
    let name = doc.text_value(names[0]);
    let queries = [
        format!("//person[name = '{name}']/age"),
        format!("//person[name = '{name}']/creditcard"),
        "//person[profile/income >= 100000]/age".to_owned(),
        "//person[profile/income < 50000]/emailaddress".to_owned(),
        "//person[address/city = 'Vancouver']/name".to_owned(),
    ];
    for q in &queries {
        let mut expected = reference(&doc, q);
        let mut got = hosted.query(q).unwrap().results;
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "mismatch for {q}");
    }
}

#[test]
fn nasa_value_predicates() {
    let doc = nasa::generate_datasets(60, 9);
    let cs = nasa::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 3)
        .unwrap();
    let queries = [
        "//dataset[date/year >= 1990]/altname",
        "//dataset[date/year < 1970]//last",
        "//author[last = 'Smith']/initial",
        "//dataset[.//publisher = 'AstroPress']/title",
        "//journal[city = 'Seoul']/publisher",
    ];
    for q in queries {
        let mut expected = reference(&doc, q);
        let mut got = hosted.query(q).unwrap().results;
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "mismatch for {q}");
    }
}

#[test]
fn quickstart_flow() {
    use encrypted_xml::prelude::*;
    let doc = Document::parse(
        "<hospital><patient><pname>Betty</pname><SSN>1213</SSN></patient></hospital>",
    )
    .unwrap();
    let constraints = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &constraints, SchemeKind::Opt, 42)
        .unwrap();
    let (client, server) = hosted.split();
    let outcome = client.query(&server, "//patient/SSN").unwrap();
    assert_eq!(outcome.results.len(), 1);
}

#[test]
fn larger_scale_smoke() {
    // ~1 MB document through the full pipeline.
    let doc = nasa::generate(&nasa::NasaConfig {
        target_bytes: 1024 * 1024,
        seed: 5,
    });
    let cs = nasa::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 5)
        .unwrap();
    let q = "//dataset[date/year = 1980]/title";
    let mut expected = reference(&doc, q);
    let mut got = hosted.query(q).unwrap().results;
    expected.sort();
    got.sort();
    assert_eq!(got, expected);
    // The secure path must ship far less than the hosted size.
    let out = hosted.query(q).unwrap();
    assert!(out.bytes_to_client < hosted.server.hosted_bytes() / 2);
}

/// A reconstruction holds nothing dead: every decoy the parse hook drops
/// becomes no node, so the exported database has as many nodes as the
/// plaintext, numbered in document order — and is the plaintext.
#[test]
fn export_reconstructs_with_no_dead_node() {
    use encrypted_xml::workload::hospital;
    let fixtures = [
        (xmark::generate_people(60, 7), xmark::constraints()),
        (hospital::scaled(40, 7), hospital::constraints()),
    ];
    for (doc, constraints) in fixtures {
        for kind in SchemeKind::ALL {
            let (client, server) = Outsourcer::new(OutsourceConfig::default())
                .outsource(&doc, &constraints, kind, 11)
                .unwrap()
                .split();
            let recovered = client.export(&server).unwrap().expect("a database");
            assert_eq!(recovered.len(), doc.len(), "{kind:?}");
            let mut ids = Vec::new();
            recovered.for_each_in_subtree(recovered.root().unwrap(), |n| ids.push(n));
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{kind:?}");
            assert_eq!(recovered.text(), doc.to_xml(), "{kind:?}");
        }
    }
}

/// An encrypted value that is only Unicode whitespace is data, not
/// indentation: a no-break space must come back out of its block. XML's
/// whitespace is space, tab, CR and LF alone.
#[test]
fn unicode_space_values_survive_the_secure_path() {
    use encrypted_xml::workload::hospital;
    let mut doc = hospital::scaled(6, 7);
    let root = doc.root().unwrap();
    for (ssn, name) in [("999001", "\u{a0}"), ("999002", "\u{2003}\u{3000}")] {
        let p = doc.add_element(Some(root), "patient");
        let pname = doc.add_element(Some(p), "pname");
        doc.add_text(pname, name);
        let s = doc.add_element(Some(p), "SSN");
        doc.add_text(s, ssn);
    }
    let queries = [
        "//patient/pname",
        "//pname/text()",
        "//patient[SSN = '999001']/pname",
        "//patient[SSN = '999002']",
    ];
    for kind in SchemeKind::ALL {
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &hospital::constraints(), kind, 13)
            .unwrap();
        for q in queries {
            let mut expected = reference(&doc, q);
            let mut got = hosted.query(q).unwrap().results;
            expected.sort();
            got.sort();
            assert_eq!(got, expected, "{q} ({kind:?})");
        }
        let got = hosted.query("//patient[SSN = '999001']/pname").unwrap();
        assert_eq!(got.results, ["<pname>\u{a0}</pname>"], "{kind:?}");
    }
}
