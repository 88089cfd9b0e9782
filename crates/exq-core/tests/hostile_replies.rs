//! Hostile replies against the client's reconstruction. Real replies of a
//! small hosted database, and hand-built ones with every odd block and
//! decoy shape, are truncated, bit-flipped and spliced — the visible text,
//! the block plaintexts and the block offsets alike — and post-processed.
//! Each outcome is a `CoreError` or exactly what the arena-document path
//! answers: the reply with an element written at each block's offset and
//! each block parsed with `Document::parse`, decoys dropped, each such
//! element replaced by its block, and the query run with `eval_document`.
//! Offsets no honest server writes are each a malformed response naming
//! the first bad one.

use exq_core::constraints::SecurityConstraint;
use exq_core::encrypt::DECOY_TAG;
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
/// a reply as its text, each block as its id and plaintext, and the
/// blocks' offsets.
type Plain = (String, Vec<(u32, Vec<u8>)>, Vec<u32>);

/// Where a hand-built reply places a block.
const B: &str = "{#}";

/// `text` with each [`B`] cut out, and the offsets they stood at.
fn placed(text: &str) -> (String, Vec<u32>) {
    let (mut out, mut offsets) = (String::new(), Vec::new());
    for (i, piece) in text.split(B).enumerate() {
        if i > 0 {
            offsets.push(out.len() as u32);
        }
        out.push_str(piece);
    }
    (out, offsets)
}

/// The element the arena-document path writes at a block's offset.
const PLACE: &str = "_place";

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
            replies.push((tq.post_query, (resp.pruned_xml, blocks, resp.offsets)));
        }
        // The shapes no honest server writes: a block inside a decoy, two
        // at one offset, one between two runs of text.
        let decoy = |inner: &str| format!("<{DECOY_TAG}>{inner}</{DECOY_TAG}>");
        let (odd, offsets) = placed(&format!(
            "<h><v a=\"1\">{}kept{}</v>{B}{B}<w>a{}b{B}c</w></h>",
            decoy(B),
            decoy("<y/>"),
            decoy("")
        ));
        let blocks = vec![
            (2, b"<two/>".to_vec()),
            (
                3,
                format!("<rec>{}<pname>B</pname> </rec>", decoy("9")).into_bytes(),
            ),
            (1, b"<one k='&#49;'>1<!-- c --></one>".to_vec()),
            (4, b"<four/>".to_vec()),
        ];
        for q in ["/h", "//*", "//text()", "/h/w/text()", "//@*"] {
            let reply = (odd.clone(), blocks.clone(), offsets.clone());
            replies.push((Path::parse(q).unwrap(), reply));
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
    /// Moves one block's offset by a few bytes.
    Move(usize, i8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        (any::<usize>(), 1usize..24, any::<usize>())
            .prop_map(|(from, len, to)| Damage::Splice(from, len, to)),
        (any::<usize>(), any::<i8>()).prop_map(|(i, by)| Damage::Move(i, by)),
    ]
}

fn apply(bytes: &mut Vec<u8>, d: &Damage) {
    if bytes.is_empty() {
        return;
    }
    match *d {
        Damage::Move(..) => {}
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

fn sealed(client: &Client, (pruned, blocks, offsets): &Plain) -> ServerResponse {
    let key = client.state().keys.block_key();
    ServerResponse {
        pruned_xml: pruned.clone(),
        blocks: blocks
            .iter()
            .map(|(id, bytes)| seal_block(&key, *id, [*id as u8; 12], bytes))
            .collect(),
        offsets: offsets.clone(),
        translate_time: std::time::Duration::ZERO,
        process_time: std::time::Duration::ZERO,
        served_from_cache: false,
        spans: Vec::new(),
    }
}

/// Copies `src`'s element `n` under `parent` in `out`, decoys dropped and
/// each [`PLACE`] element replaced by its block.
fn copy(
    src: &Document,
    n: NodeId,
    out: &mut Document,
    parent: Option<NodeId>,
    blocks: &[&str],
) -> Result<(), ()> {
    match src.node(n).kind() {
        NodeKind::Text(t) => drop(out.add_text(parent.unwrap(), t)),
        NodeKind::Attribute(..) => {}
        NodeKind::Element(_) => {
            let name = src.element_name(n).unwrap();
            if name == DECOY_TAG {
                return Ok(());
            }
            if name == PLACE {
                let i: usize = src.text_value(src.node(n).attrs()[0]).parse().unwrap();
                let block = Document::parse(blocks[i]).map_err(drop)?;
                return copy(&block, block.root().unwrap(), out, parent, blocks);
            }
            let el = out.add_element(parent, name);
            for &a in src.node(n).attrs() {
                if let NodeKind::Attribute(t, v) = src.node(a).kind() {
                    out.add_attr(el, src.tag_name(*t), v);
                }
            }
            for &c in src.node(n).children() {
                copy(src, c, out, Some(el), blocks)?;
            }
        }
    }
    Ok(())
}

/// The arena-document path's answer; `Err` when it fails anywhere.
fn document_path(query: &Path, (pruned, blocks, offsets): &Plain) -> Result<Vec<String>, ()> {
    let mut texts = Vec::new();
    for (_, bytes) in blocks {
        texts.push(std::str::from_utf8(bytes).map_err(drop)?);
    }
    if offsets.len() != texts.len() || !offsets.is_sorted() {
        return Err(());
    }
    let mut out = Document::new();
    if pruned.is_empty() {
        let parent = (texts.len() > 1).then(|| out.add_element(None, "_exq_splice"));
        for xml in &texts {
            let block = Document::parse(xml).map_err(drop)?;
            copy(&block, block.root().unwrap(), &mut out, parent, &texts)?;
        }
    } else {
        let mut marked = pruned.clone();
        for (i, &offset) in offsets.iter().enumerate().rev() {
            if !marked.is_char_boundary(offset as usize) {
                return Err(());
            }
            marked.insert_str(offset as usize, &format!("<{PLACE} i=\"{i}\"/>"));
        }
        let reply = Document::parse(&marked).map_err(drop)?;
        copy(&reply, reply.root().unwrap(), &mut out, None, &texts)?;
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
        let (mut pruned, mut blocks, mut offsets) = plain.clone();
        // Damage the visible text, one block's plaintext or offset.
        let victim = target % (blocks.len() + 1);
        for d in &damages {
            match (victim, d) {
                (_, &Damage::Move(i, by)) if !offsets.is_empty() => {
                    let n = offsets.len();
                    offsets[i % n] = offsets[i % n].saturating_add_signed(by.into());
                }
                (0, _) => {
                    let mut bytes = pruned.into_bytes();
                    apply(&mut bytes, d);
                    pruned = String::from_utf8_lossy(&bytes).into_owned();
                }
                (i, _) => apply(&mut blocks[i - 1].1, d),
            }
        }
        let damaged = (pruned, blocks, offsets);
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

/// A reply of three blocks whose second offset is moved, or whose offsets
/// are damaged otherwise: each is a malformed response naming the first
/// bad entry, however far the parse had got.
#[test]
fn offsets_no_server_writes_are_malformed_responses_naming_the_first() {
    let (client, _) = fixture();
    let (text, good) = placed(&format!(
        "<h>{B}<a k=\"v\">x</a>{B}<!-- note --><b/>{B}</h>"
    ));
    let blocks: Vec<(u32, Vec<u8>)> = ["<p/>", "<q/>", "<r/>"]
        .iter()
        .enumerate()
        .map(|(i, xml)| (i as u32, xml.as_bytes().to_vec()))
        .collect();
    let q = Path::parse("/h").unwrap();
    let answer = |offsets: &[u32], text: &str| {
        let reply = (text.to_owned(), blocks.clone(), offsets.to_vec());
        client.post_process(&q, &sealed(client, &reply))
    };
    assert_eq!(
        answer(&good, &text).unwrap().results,
        ["<h><p/><a k=\"v\">x</a><q/><b/><r/></h>"]
    );
    let at = |needle: &str| text.find(needle).unwrap() as u32;
    let second = |offset: u32| vec![good[0], offset, good[2]];
    let cases = [
        ("inside a start tag", second(at("<a ") + 2), "stop 1 "),
        (
            "inside an attribute value",
            second(at("\"v") + 1),
            "stop 1 ",
        ),
        ("inside a close tag", second(at("</a>") + 2), "stop 1 "),
        ("inside a comment", second(at("note")), "stop 1 "),
        ("descending", vec![good[0], good[2], good[1]], "stop 2 "),
        ("past the end", second(text.len() as u32 + 1), "stop 1 "),
        (
            "after the root",
            vec![good[0], good[1], text.len() as u32],
            "stop 2 ",
        ),
        ("before the root", vec![0, good[1], good[2]], "stop 0 "),
        (
            "one short",
            good[..2].to_vec(),
            "2 block offsets for 3 blocks",
        ),
        (
            "one over",
            [&good[..], &[good[2]]].concat(),
            "4 block offsets for 3 blocks",
        ),
    ];
    for (what, offsets, names) in cases {
        match answer(&offsets, &text) {
            Err(CoreError::Response(why)) => assert!(why.contains(names), "{what}: {why}"),
            other => panic!("{what}: {other:?}"),
        }
    }
    match answer(&[0, 3, 0], "") {
        Err(CoreError::Response(why)) => assert!(why.contains("block 1's offset 3"), "{why}"),
        other => panic!("a non-zero offset in an empty text: {other:?}"),
    }
}
