//! An insert is set-up over one record: a record inserted later is
//! encrypted and filed exactly as set-up files the same record.

use encrypted_xml::core::constraints::SecurityConstraint;
use encrypted_xml::core::encrypt::{encrypt_database, EncryptedOutput, DECOY_TAG};
use encrypted_xml::core::scheme::{EncryptionScheme, SchemeKind};
use encrypted_xml::core::{Client, Server};
use encrypted_xml::crypto::{open_block, KeyChain, SealedBlock};
use encrypted_xml::index::dsi::Interval;
use encrypted_xml::workload::{hospital, xmark};
use encrypted_xml::xml::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const SEED: u64 = 51;

fn set_up(doc: &Document, scheme: &EncryptionScheme) -> EncryptedOutput {
    let mut rng = StdRng::seed_from_u64(SEED);
    encrypt_database(doc, scheme, &KeyChain::from_seed(SEED), &mut rng).unwrap()
}

/// A block's plaintext with every decoy's value blanked: which leaves are
/// decoyed shows, the random draw does not.
fn plaintext(keys: &KeyChain, block: &SealedBlock) -> String {
    let xml = String::from_utf8(open_block(&keys.block_key(), block).unwrap()).unwrap();
    let (open, close) = (format!("<{DECOY_TAG}>"), format!("</{DECOY_TAG}>"));
    let mut out = String::new();
    let mut rest = xml.as_str();
    while let Some(at) = rest.find(&open) {
        let end = rest[at..].find(&close).unwrap() + at;
        out += &rest[..at + open.len()];
        rest = &rest[end..];
    }
    out + rest
}

/// What a record's nodes give the server: DSI entries per tag key, and
/// its blocks' plaintexts (decoys blanked), sorted.
#[derive(Debug, PartialEq)]
struct Filed {
    entries: BTreeMap<String, usize>,
    blocks: Vec<String>,
}

fn filed<'a>(
    entries: impl IntoIterator<Item = (&'a str, Interval)>,
    blocks: impl IntoIterator<Item = String>,
) -> Filed {
    let mut counts = BTreeMap::new();
    for (tag, _) in entries {
        *counts.entry(tag.to_owned()).or_default() += 1;
    }
    let mut blocks: Vec<String> = blocks.into_iter().collect();
    blocks.sort();
    Filed {
        entries: counts,
        blocks,
    }
}

/// Sets up `doc`, which holds `record` as the last child of the element
/// `parent_query` names, and sets up `doc` without it under the same
/// policy and inserts it there: both file the record alike.
fn insert_files_as_set_up_does(
    doc: &Document,
    cs: &[SecurityConstraint],
    kind: SchemeKind,
    parent_query: &str,
    record: &str,
    record_tag: &str,
) {
    let full = doc.to_xml();
    let parent_close = format!("</{}>", parent_query.rsplit('/').next().unwrap());
    let without = Document::parse(&full.replacen(record, "", 1)).unwrap();
    let with_xml = without
        .to_xml()
        .replacen(&parent_close, &format!("{record}{parent_close}"), 1);
    let with = Document::parse(&with_xml).unwrap();
    let scheme = EncryptionScheme::build(&with, cs, kind).unwrap();
    let keys = KeyChain::from_seed(SEED);

    // Set-up with the record: the entries inside its interval, the last of
    // its tag's, and the blocks whose roots lie inside.
    let out = set_up(&with, &scheme);
    let table = &out.metadata.dsi_table;
    let cipher = keys.tag_cipher();
    let r = [record_tag.to_owned(), cipher.encrypt(record_tag)]
        .iter()
        .flat_map(|tag| table.lookup(tag).iter().copied().collect::<Vec<_>>())
        .max_by_key(|iv| iv.lo)
        .unwrap();
    let inside = |iv: &Interval| r.lo <= iv.lo && iv.hi <= r.hi;
    let by_set_up = filed(
        table
            .iter()
            .flat_map(|(tag, ivs)| ivs.iter().map(move |&iv| (tag, iv)))
            .filter(|(_, iv)| inside(iv)),
        out.metadata
            .block_table
            .iter(table)
            .filter(|(rep, _)| inside(rep))
            .map(|(_, id)| plaintext(&keys, &out.blocks[id as usize])),
    );

    // The same policy over the document without the record, then the
    // insert.
    let lesser = EncryptionScheme {
        targets: EncryptionScheme::targets_of(&without, &scheme.paths, scheme.lift_to_parent),
        ..scheme.clone()
    };
    let out = set_up(&without, &lesser);
    let mut server = Server::new(&out);
    let mut client = Client::new(out.client_state);
    let delta = client
        .insert(&mut server, parent_query, record, SEED)
        .unwrap();
    let by_insert = filed(
        delta
            .dsi_entries
            .iter()
            .map(|(tag, iv)| (tag.as_str(), *iv)),
        delta.blocks.iter().map(|b| plaintext(&keys, b)),
    );

    if kind == SchemeKind::Opt {
        let decoyed = by_set_up.blocks.iter().any(|b| b.contains(DECOY_TAG));
        assert!(decoyed, "the record should hold a decoyed leaf");
    }
    assert_eq!(by_insert, by_set_up, "{kind:?} under {parent_query}");
}

/// Betty of Figure 2: a treat with two doctors and an insurance with two
/// policies, same-tag siblings that set-up groups inside their block.
#[test]
fn an_inserted_record_is_filed_as_set_up_files_it() {
    let doc = hospital::document();
    let betty = doc.node_to_xml(doc.elements_by_tag("patient")[0]);
    for kind in [SchemeKind::Opt, SchemeKind::Sub] {
        insert_files_as_set_up_does(
            &doc,
            &hospital::constraints(),
            kind,
            "/hospital",
            &betty,
            "patient",
        );
    }

    // An XMark person with two interests, siblings inside `profile`.
    let doc = xmark::generate_people(40, SEED);
    let person = doc
        .elements_by_tag("person")
        .into_iter()
        .find(|&p| {
            doc.descendants(p)
                .filter(|&n| doc.element_name(n) == Some("interest"))
                .count()
                >= 2
        })
        .unwrap();
    let person = doc.node_to_xml(person);
    for kind in [SchemeKind::Opt, SchemeKind::Sub] {
        insert_files_as_set_up_does(
            &doc,
            &xmark::constraints(),
            kind,
            "/site/people",
            &person,
            "person",
        );
    }
}
