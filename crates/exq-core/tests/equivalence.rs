//! Serial vs. parallel equivalence: the threaded hot path (client block
//! decryption, server candidate filtering, witness collection, response
//! assembly) must be **bit-for-bit identical** to the serial path at every
//! thread count — same `results`, same `pruned_xml` bytes, same block sets.
//!
//! This is the contract that makes `--threads` purely a performance knob.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::InProcess;
use exq_core::{Client, Server};
use exq_xml::{Document, NodeKind};
use exq_xpath::Path;

const THREADS: &[usize] = &[1, 2, 8];

/// A hospital document large enough that every parallel stage actually
/// fans out (many patients → many anchor matches, blocks, and candidates).
fn big_hospital(patients: usize) -> Document {
    let mut xml = String::from("<hospital>");
    let diseases = ["flu", "measles", "leukemia", "diarrhea", "asthma"];
    let doctors = ["Smith", "Walker", "Brown", "Jones", "Lee"];
    for i in 0..patients {
        let age = 20 + (i * 7) % 60;
        let coverage = 1000 * (1 + (i * 13) % 900);
        xml.push_str(&format!(
            "<patient id=\"{i}\"><pname>P{i}</pname><SSN>{:06}</SSN><age>{age}</age>\
             <treat><disease>{}</disease><doctor>{}</doctor></treat>\
             <insurance><policy coverage=\"{coverage}\">{:05}</policy></insurance>\
             </patient>",
            100000 + i * 37,
            diseases[i % diseases.len()],
            doctors[(i / 2) % doctors.len()],
            10000 + i * 11,
        ));
    }
    xml.push_str("</hospital>");
    Document::parse(&xml).unwrap()
}

fn constraints() -> Vec<SecurityConstraint> {
    [
        "//insurance",
        "//patient:(/pname, /SSN)",
        "//treat:(/disease, /doctor)",
    ]
    .iter()
    .map(|s| SecurityConstraint::parse(s).unwrap())
    .collect()
}

fn hosted() -> (Client, Server) {
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&big_hospital(40), &constraints(), SchemeKind::Opt, 23)
        .unwrap()
        .split()
}

const QUERIES: &[&str] = &[
    "//patient",
    "//patient/pname",
    "//patient[age = 27]/SSN",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//patient[.//policy/@coverage > 500000]/pname",
    "//patient[age > 30 and .//disease = 'measles']",
    "//treat[disease = 'leukemia']/doctor",
    "//insurance/policy",
    "//nosuchtag",
];

/// Server responses are byte-identical at every thread count: the pruned
/// skeleton string, the exact block list (ids, nonces, ciphertexts), and
/// the translated answer all match the single-threaded reference.
#[test]
fn server_responses_are_thread_count_invariant() {
    let (client, mut server) = hosted();
    for q in QUERIES {
        let sq = match client.translate(q).unwrap().server_query {
            Some(sq) => sq,
            None => continue,
        };
        server.set_threads(1);
        let reference = server.answer(&sq).unwrap();
        for &t in THREADS {
            server.set_threads(t);
            let resp = server.answer(&sq).unwrap();
            assert_eq!(
                resp.pruned_xml, reference.pruned_xml,
                "pruned_xml diverged for {q} at {t} threads"
            );
            assert_eq!(
                resp.blocks, reference.blocks,
                "block set diverged for {q} at {t} threads"
            );
        }
    }
}

/// Client post-processing is result-identical at every thread count, and
/// the full client↔server round trip agrees with the serial reference.
#[test]
fn query_results_are_thread_count_invariant() {
    let (client, mut server) = hosted();
    for q in QUERIES {
        server.set_threads(1);
        let mut link = InProcess::shared(&server);
        let serial_client = client.clone().with_threads(1);
        let (_, _, reference) = serial_client.run(&mut link, q).unwrap();

        for &t in THREADS {
            server.set_threads(t);
            let mut link = InProcess::shared(&server);
            let threaded = client.clone().with_threads(t);
            let (_, resp, post) = threaded.run(&mut link, q).unwrap();
            assert_eq!(
                post.results, reference.results,
                "results diverged for {q} at {t} threads"
            );
            assert_eq!(
                post.blocks_decrypted, reference.blocks_decrypted,
                "decrypt count diverged for {q} at {t} threads"
            );
            // Blocks decrypt in any order but must be the same set the
            // serial run shipped (ids are unique per response).
            let mut ids: Vec<u32> = resp.blocks.iter().map(|b| b.id).collect();
            ids.sort_unstable();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "duplicate block shipped for {q} at {t} threads"
            );
        }
    }
}

/// `explain` (anchor/survivor counts) and `locate` (update-path intervals)
/// also run on the parallel filter; they must not depend on thread count.
#[test]
fn explain_and_locate_are_thread_count_invariant() {
    let (client, mut server) = hosted();
    for q in ["//patient[age > 40]/pname", "//treat[disease = 'flu']"] {
        let sq = client.translate(q).unwrap().server_query.unwrap();
        server.set_threads(1);
        let ref_explain = format!("{:?}", server.explain(&sq));
        let ref_locate = server.locate(&sq);
        for &t in THREADS {
            server.set_threads(t);
            assert_eq!(format!("{:?}", server.explain(&sq)), ref_explain, "{q}@{t}");
            assert_eq!(server.locate(&sq), ref_locate, "{q}@{t}");
        }
    }
}

/// The export path (decrypt-everything) agrees across thread counts.
#[test]
fn export_is_thread_count_invariant() {
    let (client, server) = hosted();
    let reference = client
        .clone()
        .with_threads(1)
        .export(&server)
        .unwrap()
        .map(|d| d.to_xml());
    for &t in THREADS {
        let xml = client
            .clone()
            .with_threads(t)
            .export(&server)
            .unwrap()
            .map(|d| d.to_xml());
        assert_eq!(xml, reference, "export diverged at {t} threads");
    }
}

/// Nested and overlapping anchors: on a recursive document `//a//a` makes
/// every inner `a` an anchor inside an outer anchor's region, a witness
/// predicate adds regions that overlap the anchors', and wildcard steps
/// make anchors of text-bearing leaves and block interiors alike. The
/// region is marked once however the anchors nest, so the answer must
/// still be the naive method's, at 1 and 8 server threads.
#[test]
fn nested_and_overlapping_anchors_answer_like_the_naive_method() {
    let doc = Document::parse(
        "<doc>\
           <a id=\"1\"><k>1</k><v>x</v><b>t</b>\
             <a id=\"2\"><k>2</k><v>y</v>\
               <a id=\"3\"><b>u</b><secret><a id=\"4\"><b>w</b><k>4</k></a></secret></a>\
             </a>\
             <c><a id=\"5\"/></c>\
           </a>\
           <a id=\"6\"><secret>s</secret><a id=\"7\"><k>7</k><v>z</v></a></a>\
         </doc>",
    )
    .unwrap();
    let cs: Vec<SecurityConstraint> = ["//secret", "//a:(/k, /v)"]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect();
    for kind in [SchemeKind::Opt, SchemeKind::Sub, SchemeKind::Top] {
        let mut hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, kind, 31)
            .unwrap();
        for q in [
            "//a//a",
            "//a[.//b]//a",
            "//a[.//b]//a[k]",
            "//a//a//a",
            "//a/*",
            "//*//a",
            "//a//*",
            "/doc/*/a/@id",
            "//a[k > 1]//a",
        ] {
            let plain: Vec<String> = exq_xpath::eval_document(&doc, &Path::parse(q).unwrap())
                .into_iter()
                .map(|n| match doc.node(n).kind() {
                    NodeKind::Element(_) => doc.node_to_xml(n),
                    _ => doc.text_value(n),
                })
                .collect();
            assert!(!plain.is_empty(), "{q} should select something");
            for t in [1, 8] {
                hosted.server.set_threads(t);
                let secure = hosted.query(q).unwrap();
                assert!(!secure.naive_fallback, "{q} must take the secure path");
                assert_eq!(secure.results, plain, "{q} under {kind:?} at {t} threads");
                assert_eq!(
                    hosted.query_naive(q).unwrap().results,
                    plain,
                    "naive {q} under {kind:?}"
                );
            }
        }
    }
}
