//! Hostile replies against the client's reconstruction. Real replies of a
//! small hosted database, and hand-built ones with every odd marker and
//! decoy shape, are truncated, bit-flipped and spliced — the visible text
//! and the block plaintexts alike — and post-processed. Each outcome is a
//! `CoreError` or exactly what the arena-document path answers: the reply
//! and each block parsed with `Document::parse`, decoys dropped, each
//! marker replaced by its block, and the query run with `eval_document`.

use exq_core::constraints::SecurityConstraint;
use exq_core::encrypt::{BLOCK_ID_ATTR, BLOCK_MARKER_TAG, DECOY_TAG};
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::InProcess;
use exq_core::wire::ServerResponse;
use exq_core::{Client, CoreError};
use exq_crypto::{open_block, seal_block};
use exq_xml::{Document, NodeId, NodeKind};
use exq_xpath::{eval_document, Path};
use proptest::prelude::*;
use std::sync::OnceLock;

const DOC: &str = r#"<hospital>
    <patient id="1"><pname>Betty</pname><SSN>763895</SSN><age>35</age>
      <treat><disease>flu &amp; cold</disease></treat></patient>
    <patient id="2"><pname>Matt</pname><SSN>276543</SSN><age>40</age></patient>
    <patient id="3"><pname>Al</pname><SSN>100200</SSN><age>52</age></patient>
   </hospital>"#;

const QUERIES: [&str; 5] = [
    "//patient/pname",
    "/hospital/patient",
    "//patient[age > 36]/SSN",
    "//patient/@id",
    "//pname/text()",
];

/// A client, and the replies to mutate: `(post query, plaintext reply)`,
/// each block as its id and plaintext.
type Plain = (String, Vec<(u32, Vec<u8>)>);

fn fixture() -> &'static (Client, Vec<(Path, Plain)>) {
    static FIXTURE: OnceLock<(Client, Vec<(Path, Plain)>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let doc = Document::parse(DOC).unwrap();
        let cs = [SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
        let (client, server) = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, 17)
            .unwrap()
            .split();
        let key = client.state().keys.block_key();
        let mut replies = Vec::new();
        for q in QUERIES {
            let (tq, resp, _) = client.run(&mut InProcess::shared(&server), q).unwrap();
            let blocks = resp
                .blocks
                .iter()
                .map(|b| (b.id, open_block(&key, b).unwrap()))
                .collect();
            replies.push((tq.post_query, (resp.pruned_xml, blocks)));
        }
        // The shapes no honest server writes.
        let marker = |id: u32| format!("<{BLOCK_MARKER_TAG} {BLOCK_ID_ATTR}=\"{id}\"/>");
        let decoy = |inner: &str| format!("<{DECOY_TAG}>{inner}</{DECOY_TAG}>");
        let odd = format!(
            "<h><{BLOCK_MARKER_TAG} {BLOCK_ID_ATTR}='1'><x/>t</{BLOCK_MARKER_TAG}>\
             <v a=\"1\">{}kept{}</v>{}{}<w>a{}b</w></h>",
            decoy(&marker(2)),
            decoy("<y/>"),
            marker(3),
            marker(9),
            decoy("")
        );
        let blocks = vec![
            (1, b"<one k='&#49;'>1<!-- c --></one>".to_vec()),
            (2, b"<two/>".to_vec()),
            (
                3,
                format!("<rec>{}<pname>B</pname> </rec>", decoy("9")).into_bytes(),
            ),
        ];
        for q in ["/h", "//*", "//text()", "/h/w/text()", "//@*"] {
            replies.push((Path::parse(q).unwrap(), (odd.clone(), blocks.clone())));
        }
        (client, replies)
    })
}

/// Where and how a reply is damaged.
#[derive(Debug, Clone)]
enum Damage {
    Truncate(usize),
    Flip(usize, u8),
    /// Copies `len` bytes from one place to another.
    Splice(usize, usize, usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        (any::<usize>(), 1usize..24, any::<usize>())
            .prop_map(|(from, len, to)| Damage::Splice(from, len, to)),
    ]
}

fn apply(bytes: &mut Vec<u8>, d: &Damage) {
    if bytes.is_empty() {
        return;
    }
    match *d {
        Damage::Truncate(at) => bytes.truncate(at % bytes.len()),
        Damage::Flip(at, bit) => {
            let n = bytes.len();
            bytes[at % n] ^= 1 << bit;
        }
        Damage::Splice(from, len, to) => {
            let from = from % bytes.len();
            let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
            let to = to % (bytes.len() + 1);
            bytes.splice(to..to, piece);
        }
    }
}

fn sealed(client: &Client, (pruned, blocks): &Plain) -> ServerResponse {
    let key = client.state().keys.block_key();
    ServerResponse {
        pruned_xml: pruned.clone(),
        blocks: blocks
            .iter()
            .map(|(id, bytes)| seal_block(&key, *id, [*id as u8; 12], bytes))
            .collect(),
        translate_time: std::time::Duration::ZERO,
        process_time: std::time::Duration::ZERO,
        served_from_cache: false,
        spans: Vec::new(),
    }
}

/// Copies `src`'s element `n` under `parent` in `out`, decoys dropped and
/// markers (when `markers`) replaced by their blocks.
fn copy(
    src: &Document,
    n: NodeId,
    out: &mut Document,
    parent: Option<NodeId>,
    blocks: &[(u32, &str)],
    markers: bool,
) -> Result<(), ()> {
    match src.node(n).kind() {
        NodeKind::Text(t) => drop(out.add_text(parent.unwrap(), t)),
        NodeKind::Attribute(..) => {}
        NodeKind::Element(_) => {
            let name = src.element_name(n).unwrap();
            if name == DECOY_TAG {
                return Ok(());
            }
            if markers && name == BLOCK_MARKER_TAG {
                let id = src
                    .node(n)
                    .attrs()
                    .iter()
                    .find_map(|&a| match src.node(a).kind() {
                        NodeKind::Attribute(t, v) if src.tag_name(*t) == BLOCK_ID_ATTR => Some(v),
                        _ => None,
                    });
                let id: u32 = id.and_then(|v| v.parse().ok()).ok_or(())?;
                if let Ok(i) = blocks.binary_search_by_key(&id, |(id, _)| *id) {
                    let block = Document::parse(blocks[i].1).map_err(drop)?;
                    copy(&block, block.root().unwrap(), out, parent, blocks, false)?;
                }
                return Ok(());
            }
            let el = out.add_element(parent, name);
            for &a in src.node(n).attrs() {
                if let NodeKind::Attribute(t, v) = src.node(a).kind() {
                    out.add_attr(el, src.tag_name(*t), v);
                }
            }
            for &c in src.node(n).children() {
                copy(src, c, out, Some(el), blocks, markers)?;
            }
        }
    }
    Ok(())
}

/// The arena-document path's answer; `Err` when it fails anywhere.
fn document_path(query: &Path, (pruned, blocks): &Plain) -> Result<Vec<String>, ()> {
    let mut texts = Vec::new();
    for (id, bytes) in blocks {
        texts.push((*id, std::str::from_utf8(bytes).map_err(drop)?));
    }
    texts.sort_by_key(|(id, _)| *id);
    let mut out = Document::new();
    if pruned.is_empty() {
        let parent = (texts.len() > 1).then(|| out.add_element(None, "_exq_splice"));
        for (_, xml) in &texts {
            let block = Document::parse(xml).map_err(drop)?;
            copy(
                &block,
                block.root().unwrap(),
                &mut out,
                parent,
                &texts,
                false,
            )?;
        }
    } else {
        let reply = Document::parse(pruned).map_err(drop)?;
        copy(&reply, reply.root().unwrap(), &mut out, None, &texts, true)?;
    }
    let render = |n| match out.node(n).kind() {
        NodeKind::Element(_) => out.node_to_xml(n),
        NodeKind::Attribute(_, v) | NodeKind::Text(v) => v.clone(),
    };
    Ok(eval_document(&out, query).into_iter().map(render).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_damaged_reply_is_an_error_or_the_document_paths_answer(
        pick in any::<usize>(),
        target in any::<usize>(),
        damages in proptest::collection::vec(damage(), 1..3),
    ) {
        let (client, replies) = fixture();
        let (query, plain) = &replies[pick % replies.len()];
        let (mut pruned, mut blocks) = plain.clone();
        // Damage the visible text, or one block's plaintext.
        let victim = target % (blocks.len() + 1);
        for d in &damages {
            match victim {
                0 => {
                    let mut bytes = pruned.into_bytes();
                    apply(&mut bytes, d);
                    pruned = String::from_utf8_lossy(&bytes).into_owned();
                }
                i => apply(&mut blocks[i - 1].1, d),
            }
        }
        let damaged = (pruned, blocks);
        match client.post_process(query, &sealed(client, &damaged)) {
            Ok(post) => prop_assert_eq!(Ok(post.results), document_path(query, &damaged)),
            Err(e) => prop_assert!(matches!(
                e,
                CoreError::Response(_) | CoreError::Block(_)
            ), "{e:?}"),
        }
    }
}

/// Undamaged, every reply answers as the arena-document path does.
#[test]
fn undamaged_replies_answer_as_the_document_path() {
    let (client, replies) = fixture();
    for (query, plain) in replies {
        let post = client.post_process(query, &sealed(client, plain)).unwrap();
        assert_eq!(Ok(post.results), document_path(query, plain), "{query}");
    }
}
