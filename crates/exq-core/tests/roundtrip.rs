//! End-to-end correctness: for every scheme and query, the secure pipeline
//! must return exactly `Q(D)` — the answer on the plaintext database.

use exq_core::codec::Message;
use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::answer_request;
use exq_core::wire::{SPred, SStep, ServerQuery};
use exq_crypto::ValueRange;
use exq_xml::Document;
use exq_xpath::{eval_document, Path};

fn hospital() -> Document {
    Document::parse(
        r#"<hospital>
            <patient id="1"><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
              <treat><disease>measles</disease><doctor>Walker</doctor></treat>
              <insurance><policy coverage="1000000">34221</policy>
                          <policy coverage="10000">26544</policy></insurance></patient>
            <patient id="2"><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <treat><disease>leukemia</disease><doctor>Brown</doctor></treat>
              <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
            <patient id="3"><pname>Zoe</pname><SSN>112233</SSN><age>35</age>
              <treat><disease>flu</disease><doctor>Walker</doctor></treat>
              <insurance><policy coverage="10000">91111</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap()
}

fn constraints() -> Vec<SecurityConstraint> {
    [
        "//insurance",
        "//patient:(/pname, /SSN)",
        "//patient:(/pname, //disease)",
        "//treat:(/disease, /doctor)",
    ]
    .iter()
    .map(|s| SecurityConstraint::parse(s).unwrap())
    .collect()
}

/// Reference answer on the plaintext document, rendered the same way the
/// client renders results.
fn reference(doc: &Document, query: &str) -> Vec<String> {
    let path = Path::parse(query).unwrap();
    eval_document(doc, &path)
        .into_iter()
        .map(|n| match doc.node(n).kind() {
            exq_xml::NodeKind::Element(_) => doc.node_to_xml(n),
            exq_xml::NodeKind::Attribute(_, v) => v.clone(),
            exq_xml::NodeKind::Text(t) => t.clone(),
        })
        .collect()
}

const QUERIES: &[&str] = &[
    // Structure-only, various depths and axes.
    "/hospital",
    "/hospital/patient",
    "//patient",
    "//pname",
    "//SSN",
    "//disease",
    "//insurance",
    "//policy",
    "//treat/doctor",
    "//patient/treat/disease",
    "/hospital/patient/insurance/policy",
    "//insurance//*",
    "//patient/*",
    "//policy/@coverage",
    "//patient/@id",
    // Existence predicates.
    "//patient[insurance]/pname",
    "//patient[treat]/SSN",
    "//patient[nonexistent]/pname",
    // Value predicates on encrypted categorical values.
    "//patient[pname = 'Betty']/SSN",
    "//patient[pname = 'Matt']//disease",
    "//patient[.//disease = 'diarrhea']/SSN",
    "//treat[disease = 'leukemia']/doctor",
    "//patient[pname = 'Nobody']/SSN",
    // Value predicates on encrypted numeric values.
    "//patient[.//policy/@coverage >= 10000]/pname",
    "//patient[.//policy/@coverage > 10000]/pname",
    "//patient[.//policy/@coverage = 5000]/SSN",
    "//patient[.//policy/@coverage < 6000]/pname",
    // Plain-value predicates (age is not an SC endpoint).
    "//patient[age = 40]/pname",
    "//patient[age >= 35]/SSN",
    "//patient[age < 40]/age",
    "//patient[age != 35]/pname",
    // Combined predicates.
    "//patient[age = 35][.//disease = 'flu']/pname",
    "//patient[insurance][pname = 'Zoe']/age",
    // Wildcards and deep outputs.
    "//treat/*",
    "//*",
    // Unsupported server axes → naive fallback.
    "//disease/../doctor",
    "//treat/following-sibling::treat/disease",
    // Trailing text().
    "//pname/text()",
    // Descendant-or-self attribute steps (the paper's §6 worked query).
    "//patient[.//insurance//@coverage >= 10000]//SSN",
    "//insurance//@coverage",
    "//patient//@coverage",
    // Positional and boolean predicates (client-verified).
    "//patient[2]/pname",
    "//patient[last()]/SSN",
    "//patient/treat[1]/disease",
    "//patient[age = 35 and pname = 'Betty']/SSN",
    "//patient[pname = 'Betty' or pname = 'Zoe']/age",
    "//treat[disease = 'diarrhea' and doctor = 'Smith']",
    "//patient[not(age = 35)]/pname",
    "//patient[not(insurance)]",
    "//patient[contains(pname, 'att')]/SSN",
    "//patient[starts-with(SSN, '76')]/pname",
];

fn check_all(kind: SchemeKind, seed: u64) {
    let doc = hospital();
    let cs = constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, kind, seed)
        .unwrap();
    for q in QUERIES {
        let mut expected = reference(&doc, q);
        let mut got = hosted
            .query(q)
            .unwrap_or_else(|e| panic!("query {q} failed under {kind:?}: {e}"))
            .results;
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "mismatch for {q} under {kind:?}");
    }
}

#[test]
fn roundtrip_opt() {
    check_all(SchemeKind::Opt, 42);
}

#[test]
fn roundtrip_app() {
    check_all(SchemeKind::App, 42);
}

#[test]
fn roundtrip_sub() {
    check_all(SchemeKind::Sub, 42);
}

#[test]
fn roundtrip_top() {
    check_all(SchemeKind::Top, 42);
}

#[test]
fn roundtrip_different_seeds() {
    for seed in [1, 7, 99, 12345] {
        let doc = hospital();
        let cs = constraints();
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, seed)
            .unwrap();
        let q = "//patient[pname = 'Betty']/SSN";
        let got = hosted.query(q).unwrap().results;
        assert_eq!(got, ["<SSN>763895</SSN>"], "seed {seed}");
    }
}

#[test]
fn naive_baseline_agrees() {
    let doc = hospital();
    let cs = constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 42)
        .unwrap();
    for q in QUERIES {
        let mut expected = reference(&doc, q);
        let mut got = hosted.query_naive(q).unwrap().results;
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "naive mismatch for {q}");
    }
}

#[test]
fn secure_ships_less_than_naive() {
    let doc = hospital();
    let cs = constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 42)
        .unwrap();
    let q = "//patient[pname = 'Betty']/SSN";
    let secure = hosted.query(q).unwrap();
    let naive = hosted.query_naive(q).unwrap();
    assert!(secure.bytes_to_client < naive.bytes_to_client);
    assert!(secure.blocks_shipped < naive.blocks_shipped);
}

#[test]
fn all_constraints_enforced() {
    let doc = hospital();
    let cs = constraints();
    for kind in SchemeKind::ALL {
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, kind, 42)
            .unwrap();
        assert!(
            hosted.scheme.enforces(&doc, &cs),
            "{kind:?} fails to enforce the SCs"
        );
    }
}

#[test]
fn union_queries_through_pipeline() {
    use exq_xpath::{eval_union, Path};
    let doc = hospital();
    let cs = constraints();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 42)
        .unwrap();
    for q in [
        "//pname | //SSN",
        "//patient[age = 35]/pname | //patient[age = 40]/SSN",
        "//insurance | //treat",
    ] {
        let paths = Path::parse_union(q).unwrap();
        let mut expected: Vec<String> = eval_union(&doc, &paths)
            .into_iter()
            .map(|n| match doc.node(n).kind() {
                exq_xml::NodeKind::Element(_) => doc.node_to_xml(n),
                exq_xml::NodeKind::Attribute(_, v) => v.clone(),
                exq_xml::NodeKind::Text(t) => t.clone(),
            })
            .collect();
        let mut got = hosted.query(q).unwrap().results;
        expected.sort();
        expected.dedup();
        got.sort();
        got.dedup();
        assert_eq!(got, expected, "union mismatch for {q}");
    }
}

#[test]
fn timing_phases_populated() {
    let doc = hospital();
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &constraints(), SchemeKind::Opt, 42)
        .unwrap();
    let out = hosted.query("//patient[pname = 'Betty']/SSN").unwrap();
    assert!(out.timing.total() > std::time::Duration::ZERO);
    assert!(out.timing.transmit > std::time::Duration::ZERO);
    assert!(!out.naive_fallback);
    // Fallback flag set for unsupported axes.
    let out = hosted.query("//disease/../doctor").unwrap();
    assert!(out.naive_fallback);
}

/// Turns every value range of `steps`, nested branches included, around
/// so that `lo > hi`; returns how many there were.
fn reverse_ranges(steps: &mut [SStep]) -> usize {
    let mut n = 0;
    for pred in steps.iter_mut().flat_map(|s| &mut s.preds) {
        match pred {
            SPred::Exists(branch) => n += reverse_ranges(branch),
            SPred::Value { path, range, .. } => {
                n += reverse_ranges(path);
                if let Some((_, r)) = range {
                    let (lo, hi) = if r.lo < r.hi {
                        (r.hi, r.lo)
                    } else {
                        (r.lo.saturating_add(1), r.lo.saturating_sub(1))
                    };
                    *r = ValueRange { lo, hi };
                    n += 1;
                }
            }
        }
    }
    n
}

/// The codec does not order a range's ends, so a frame can carry a value
/// range with `lo > hi`. Decoded and answered, it matches no value: an
/// empty answer, never a panic.
#[test]
fn reversed_value_ranges_answer_empty() {
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&hospital(), &constraints(), SchemeKind::Opt, 42)
        .unwrap()
        .split();
    let answer = |q: &ServerQuery| {
        let frame = Message::Query(q.clone()).encode_frame();
        let req = Message::decode_frame(&frame).unwrap();
        match answer_request(&server, &req).unwrap() {
            Message::Answer(resp) => resp,
            other => panic!("not an answer: {other:?}"),
        }
    };
    for query in [
        "//policy[@coverage >= 5000]",
        "//patient[pname = 'Betty']/SSN",
    ] {
        let mut q = client.translate(query).unwrap().server_query.unwrap();
        assert!(
            !answer(&q).pruned_xml.is_empty(),
            "{query} matches as written"
        );
        assert!(
            reverse_ranges(&mut q.steps) > 0,
            "{query} has an encrypted range"
        );
        let resp = answer(&q);
        assert!(resp.pruned_xml.is_empty(), "{query}: {}", resp.pruned_xml);
        assert!(resp.blocks.is_empty(), "{query}");
    }
}
