//! End-to-end property test: for random small documents, random constraint
//! choices, and random queries, the secure pipeline returns exactly the
//! plaintext reference answer under every scheme.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_xml::Document;
use exq_xpath::{eval_document, Path};
use proptest::prelude::*;

/// Small random "records" documents: root r with 1–6 `rec` children, each
/// carrying a subset of fields with values from tiny domains (so value
/// predicates hit and miss).
#[derive(Debug, Clone)]
struct Rec {
    name: u8,
    code: u8,
    level: u8,
    with_extra: bool,
}

fn rec() -> impl Strategy<Value = Rec> {
    (0u8..4, 0u8..4, 0u8..5, any::<bool>()).prop_map(|(name, code, level, with_extra)| Rec {
        name,
        code,
        level,
        with_extra,
    })
}

fn build_doc(recs: &[Rec]) -> Document {
    let mut d = Document::new();
    let root = d.add_element(None, "r");
    for rc in recs {
        let p = d.add_element(Some(root), "rec");
        let name = d.add_element(Some(p), "name");
        d.add_text(name, &format!("N{}", rc.name));
        let code = d.add_element(Some(p), "code");
        d.add_text(code, &format!("{}", 100 + rc.code as u32));
        let level = d.add_element(Some(p), "level");
        d.add_text(level, &rc.level.to_string());
        if rc.with_extra {
            let extra = d.add_element(Some(p), "extra");
            let note = d.add_element(Some(extra), "note");
            d.add_text(note, "aux");
        }
    }
    d
}

fn constraint_sets() -> Vec<Vec<&'static str>> {
    vec![
        vec!["//rec:(/name, /code)"],
        vec!["//rec:(/name, /code)", "//rec:(/name, /level)"],
        vec!["//extra", "//rec:(/code, /level)"],
    ]
}

const QUERIES: &[&str] = &[
    "//rec/name",
    "//rec[code = 101]/level",
    "//rec[name = 'N2']/code",
    "//rec[level >= 3]/name",
    "//rec[extra]/name",
    "//rec[not(extra)]/code",
    "/r/rec[1]/name",
    "//rec[name = 'N0' or name = 'N1']/level",
    "//name | //level",
];

fn render(doc: &Document, n: exq_xml::NodeId) -> String {
    match doc.node(n).kind() {
        exq_xml::NodeKind::Element(_) => doc.node_to_xml(n),
        exq_xml::NodeKind::Attribute(_, v) => v.clone(),
        exq_xml::NodeKind::Text(t) => t.clone(),
    }
}

fn reference(doc: &Document, query: &str) -> Vec<String> {
    let paths = Path::parse_union(query).unwrap();
    let mut out: Vec<String> = exq_xpath::eval_union(doc, &paths)
        .into_iter()
        .map(|n| render(doc, n))
        .collect();
    let _ = eval_document; // (single-branch case covered by eval_union)
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn secure_pipeline_equals_reference(
        recs in proptest::collection::vec(rec(), 1..6),
        cs_idx in 0usize..3,
        seed in 0u64..1000,
        kind_idx in 0usize..4,
    ) {
        let doc = build_doc(&recs);
        let cs: Vec<SecurityConstraint> = constraint_sets()[cs_idx]
            .iter()
            .map(|s| SecurityConstraint::parse(s).unwrap())
            .collect();
        let kind = SchemeKind::ALL[kind_idx];
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, kind, seed)
            .unwrap();
        prop_assert!(hosted.scheme.enforces(&doc, &cs));
        for q in QUERIES {
            let expected = reference(&doc, q);
            let mut got = hosted.query(q).unwrap().results;
            got.sort();
            got.dedup();
            prop_assert_eq!(&got, &expected, "mismatch for {} under {:?}", q, kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Persistence loaders never panic on arbitrary bytes.
    #[test]
    fn loaders_reject_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = exq_core::Server::load_bytes(&bytes);
        let _ = exq_core::Client::load_bytes(&bytes);
    }

    /// Loaders also survive corrupted-but-magic-prefixed inputs, under the
    /// current magic and the retired ones.
    #[test]
    fn loaders_reject_corrupted_headers(tail in proptest::collection::vec(any::<u8>(), 0..200)) {
        for version in [b'1', b'2', b'3', b'4', b'5', b'6'] {
            let s = [b"EXQSV".as_slice(), &[version], &tail].concat();
            let _ = exq_core::Server::load_bytes(&s);
            let c = [b"EXQCL".as_slice(), &[version], &tail].concat();
            let _ = exq_core::Client::load_bytes(&c);
        }
    }
}

// ---------------------------------------------------------------------------
// Observability hardening: hostile db ids.
// ---------------------------------------------------------------------------

/// Splits one exposition line into `(series, value)` with quote-aware
/// scanning: whitespace inside a `{label="…"}` section (or escaped quotes
/// within it) must not terminate the series name.
fn split_series_value(line: &str) -> Option<(String, f64)> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ' ' if !in_quotes => {
                let (name, rest) = line.split_at(i);
                let value: f64 = rest
                    .trim()
                    .parse()
                    .ok()
                    .or_else(|| (rest.trim() == "+Inf").then_some(f64::INFINITY))?;
                return (!name.is_empty() && !in_quotes).then(|| (name.to_string(), value));
            }
            _ => {}
        }
    }
    None
}

/// Alphabet of label-hostile characters: quotes, backslashes, newlines,
/// braces, spaces, and multibyte text.
fn hostile_char(idx: u8) -> char {
    const ALPHABET: &[char] = &[
        '"', '\\', '\n', '{', '}', ' ', '=', ',', 'a', 'B', '7', '-', '.', 'é', '⊕',
    ];
    ALPHABET[idx as usize % ALPHABET.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Prometheus exposition stays line-parseable no matter what a db id
    /// contains, and distinct ids never collide onto one series.
    #[test]
    fn exposition_survives_hostile_db_ids(
        raw_a in proptest::collection::vec(any::<u8>(), 1..12),
        raw_b in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let id_a: String = raw_a.iter().map(|&b| hostile_char(b)).collect();
        let id_b: String = raw_b.iter().map(|&b| hostile_char(b)).collect();
        // Distinct ids map to distinct series (escape_label is injective).
        if id_a != id_b {
            prop_assert_ne!(
                exq_core::telemetry::db_series("exq_db_requests_total", &id_a),
                exq_core::telemetry::db_series("exq_db_requests_total", &id_b),
            );
        }
        let series = exq_core::telemetry::db_series("exq_db_requests_total", &id_a);
        exq_core::telemetry::counter(&series).inc();
        let text = exq_core::telemetry::render();
        prop_assert!(text.contains(&series), "registered series must render");
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            prop_assert!(
                split_series_value(line).is_some(),
                "unparseable exposition line: {:?}",
                line
            );
        }
        // Escaped newlines must never break a series across lines.
        prop_assert!(!series.contains('\n'));
        // Clean up so repeated cases don't grow the registry unboundedly.
        let removed = exq_core::telemetry::remove_db_series(&id_a);
        prop_assert!(removed >= 1, "drop must find the series it registered");
        prop_assert!(!exq_core::telemetry::render().contains(&series));
    }
}
