//! Client-side reconstruction edge cases (§6 splice step).
//!
//! Regression focus: a response whose `pruned_xml` is **empty** but that
//! still ships sealed blocks — the shape a fully-encrypted root produces —
//! must splice those blocks into a real document, not collapse to "no
//! answer". A truly empty response (no skeleton, no blocks) is the only
//! shape that reconstructs to nothing.

use exq_core::constraints::SecurityConstraint;
use exq_core::encrypt::DECOY_TAG;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::wire::ServerResponse;
use exq_core::CoreError;
use exq_crypto::seal_block;
use exq_xml::Document;
use exq_xpath::Path;
use std::time::Duration;

const DOC: &str = r#"<hospital>
    <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age></patient>
    <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age></patient>
   </hospital>"#;

fn hosted(constraints: &[&str]) -> (exq_core::Client, exq_core::Server) {
    let doc = Document::parse(DOC).unwrap();
    let cs: Vec<SecurityConstraint> = constraints
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect();
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 17)
        .unwrap()
        .split()
}

/// Where a hand-built reply places a block: each one in a reply's text is
/// cut out, and the next block shipped goes at its offset.
const B: &str = "{#}";

/// A hand-built reply: `pruned_xml` with its blocks' places written as
/// [`B`], plus `(id, plaintext)` blocks sealed under the client's key,
/// shipped in the order given. An empty text places every block at 0.
fn reply(client: &exq_core::Client, pruned_xml: &str, blocks: &[(u32, &str)]) -> ServerResponse {
    let blocks: Vec<(u32, &[u8])> = blocks
        .iter()
        .map(|&(id, xml)| (id, xml.as_bytes()))
        .collect();
    reply_of_bytes(client, pruned_xml, &blocks)
}

/// The same for plaintexts that need not be text.
fn reply_of_bytes(
    client: &exq_core::Client,
    pruned_xml: &str,
    blocks: &[(u32, &[u8])],
) -> ServerResponse {
    let key = client.state().keys.block_key();
    let mut text = String::new();
    let mut offsets = Vec::new();
    for (i, piece) in pruned_xml.split(B).enumerate() {
        if i > 0 {
            offsets.push(text.len() as u32);
        }
        text.push_str(piece);
    }
    if text.is_empty() {
        offsets = vec![0; blocks.len()];
    }
    ServerResponse {
        pruned_xml: text,
        blocks: blocks
            .iter()
            .map(|&(id, bytes)| seal_block(&key, id, [id as u8; 12], bytes))
            .collect(),
        offsets,
        translate_time: Duration::ZERO,
        process_time: Duration::ZERO,
        served_from_cache: false,
        spans: Vec::new(),
    }
}

/// Empty pruned skeleton + a shipped root-level block: the block's content
/// must be spliced in and queried, not dropped.
#[test]
fn root_level_block_splices_into_empty_pruned_doc() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);

    // Seal the *entire* document as one block, as a fully-encrypted root
    // would ship it.
    let resp = reply(&client, "", &[(42, DOC)]);

    let post = client
        .post_process(&Path::parse("//patient/pname").unwrap(), &resp)
        .unwrap();
    assert_eq!(post.blocks_decrypted, 1);
    assert_eq!(
        post.results,
        ["<pname>Betty</pname>", "<pname>Matt</pname>"],
        "root-level block content must be reachable after reconstruction"
    );
}

/// Several root-level blocks splice in the order shipped, which is
/// document order, whatever their ids.
#[test]
fn multiple_root_blocks_splice_in_shipped_order() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    // The two fragments in *descending* id order: they stay in that order.
    let resp = reply(
        &client,
        "",
        &[
            (9, "<patient><pname>Zoe</pname></patient>"),
            (3, "<patient><pname>Al</pname></patient>"),
        ],
    );

    let post = client
        .post_process(&Path::parse("//pname").unwrap(), &resp)
        .unwrap();
    assert_eq!(
        post.results,
        ["<pname>Zoe</pname>", "<pname>Al</pname>"],
        "splice order must follow the shipped order"
    );
}

/// A response with no skeleton *and* no blocks is genuinely empty: no
/// results, nothing decrypted.
#[test]
fn truly_empty_response_yields_no_results() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let resp = reply(&client, "", &[]);
    let post = client
        .post_process(&Path::parse("//pname").unwrap(), &resp)
        .unwrap();
    assert!(post.results.is_empty());
    assert_eq!(post.blocks_decrypted, 0);
}

/// End-to-end: a constraint that encrypts the whole root still answers
/// every query correctly through the real pipeline.
#[test]
fn fully_encrypted_root_round_trips() {
    let (client, server) = hosted(&["//hospital"]);
    let mut link = exq_core::transport::InProcess::shared(&server);
    let (_, _, post) = client.run(&mut link, "//patient/pname").unwrap();
    assert_eq!(
        post.results,
        ["<pname>Betty</pname>", "<pname>Matt</pname>"]
    );

    let (_, _, post) = client.run(&mut link, "//patient[age = 40]/SSN").unwrap();
    assert_eq!(post.results, ["<SSN>276543</SSN>"]);

    // Export recovers the full plaintext even with nothing visible.
    let recovered = client.export(&server).unwrap().expect("export content");
    let xml = recovered.text();
    for v in ["Betty", "763895", "Matt", "276543"] {
        assert!(xml.contains(v), "missing {v} in export");
    }
}

fn results(client: &exq_core::Client, query: &str, resp: &ServerResponse) -> Vec<String> {
    client
        .post_process(&Path::parse(query).unwrap(), resp)
        .unwrap()
        .results
}

/// Each shipped block lands at its own offset, in the order shipped,
/// whatever its id; one between two runs of text splits them.
#[test]
fn blocks_splice_at_their_offsets() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let pruned = format!(
        "<hospital><patient>{B}<age>35</age></patient><patient>{B}</patient>{B}</hospital>"
    );
    let resp = reply(
        &client,
        &pruned,
        &[
            (7, "<pname>Betty</pname>"),
            (4, "<SSN>276543</SSN>"),
            (6, "<patient><pname>Zed</pname></patient>"),
        ],
    );
    assert_eq!(
        results(&client, "//pname", &resp),
        ["<pname>Betty</pname>", "<pname>Zed</pname>"]
    );
    assert_eq!(
        results(&client, "/hospital/patient", &resp),
        [
            "<patient><pname>Betty</pname><age>35</age></patient>",
            "<patient><SSN>276543</SSN></patient>",
            "<patient><pname>Zed</pname></patient>",
        ]
    );
    // Positional predicates count spliced and visible siblings alike.
    assert_eq!(
        results(&client, "/hospital/patient[3]/pname", &resp),
        ["<pname>Zed</pname>"]
    );
    let resp = reply(&client, &format!("<h>ab{B}cd</h>"), &[(1, "<x/>")]);
    assert_eq!(results(&client, "/h", &resp), ["<h>ab<x/>cd</h>"]);
    assert_eq!(results(&client, "/h/text()", &resp), ["ab", "cd"]);
}

/// Decoys are stripped wherever they sit: in the visible skeleton beside a
/// spliced block, and inside block plaintext (at its root's level and
/// deeper).
#[test]
fn decoys_inside_and_beside_spliced_blocks_are_removed() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let decoy = format!("<{DECOY_TAG}>999</{DECOY_TAG}>");
    let pruned = format!("<hospital><patient>{decoy}{B}{decoy}<age>35</age></patient></hospital>");
    let block = format!("<rec>{decoy}<pname>Betty{decoy}</pname><SSN>763895</SSN>{decoy}</rec>");
    let resp = reply(&client, &pruned, &[(1, &block)]);
    assert_eq!(
        results(&client, "//patient", &resp),
        ["<patient><rec><pname>Betty</pname><SSN>763895</SSN></rec><age>35</age></patient>"]
    );
    assert!(results(&client, &format!("//{DECOY_TAG}"), &resp).is_empty());
    // A block that is nothing but a decoy leaves nothing behind.
    let resp = reply(&client, &format!("<h>{B}</h>"), &[(1, &decoy)]);
    assert_eq!(results(&client, "/h", &resp), ["<h/>"]);
}

/// A block whose plaintext is not XML is a `Block` error naming the parse
/// failure, and with several bad blocks the first — blocks ship in
/// document order — is the one reported.
#[test]
fn non_xml_block_is_a_block_error_and_the_first_bad_block_wins() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let pruned = format!("<h>{B}{B}{B}</h>");
    let resp = reply(
        &client,
        &pruned,
        &[(1, "<ok/>"), (2, "<a></b>"), (3, "<unclosed>")],
    );
    let err = client
        .post_process(&Path::parse("//ok").unwrap(), &resp)
        .unwrap_err();
    match err {
        CoreError::Block(m) => {
            assert!(
                m.contains("block not XML") && m.contains("mismatched"),
                "{m}"
            )
        }
        other => panic!("expected a Block error, got {other:?}"),
    }
    // Same at the root level, where blocks splice in shipped order.
    let resp = reply(&client, "", &[(2, "<a></b>"), (9, "plain text")]);
    let err = client
        .post_process(&Path::parse("//a").unwrap(), &resp)
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::Block(m) if m.contains("mismatched")),
        "{err:?}"
    );
}

/// A block that fails authentication is reported before any splicing, in
/// block order.
#[test]
fn tampered_block_is_a_block_error_before_any_parse() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let mut resp = reply(
        &client,
        "<not-even-xml",
        &[(1, "<a/>"), (2, "<b/>"), (3, "<c/>")],
    );
    let other_key = [0x5Au8; 32];
    let mut blocks: Vec<_> = resp.blocks.iter().map(|b| b.to_block()).collect();
    blocks[1] = seal_block(&other_key, 2, [2u8; 12], b"<b/>");
    resp.blocks = blocks.into_iter().collect();
    let err = client
        .post_process(&Path::parse("//a").unwrap(), &resp)
        .unwrap_err();
    assert!(matches!(err, CoreError::Block(_)), "{err:?}");
}

/// What the client reported when it opened blocks one at a time, in the
/// order shipped: the first block that fails its tag or is not text.
fn serial_verdict(client: &exq_core::Client, resp: &ServerResponse) -> Option<CoreError> {
    let key = client.state().keys.block_key();
    resp.blocks.iter().find_map(|b| {
        let bytes = match exq_crypto::open_block(&key, b) {
            Ok(bytes) => bytes,
            Err(e) => return Some(CoreError::Block(e.to_string())),
        };
        let not_text = String::from_utf8(bytes).err()?;
        Some(CoreError::Block(format!("block not UTF-8: {not_text}")))
    })
}

/// A reply of many blocks, opened sixteen to a pass, with bad blocks of
/// both kinds in it: whichever comes first in the reply is the one
/// reported, with the serial loop's words.
#[test]
fn the_first_bad_block_is_reported_as_the_serial_loop_reported_it() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let texts: Vec<String> = (0..700)
        .map(|i| format!("<p n=\"{i}\">{}</p>", "x".repeat(i % 90)))
        .collect();
    let good: Vec<(u32, &[u8])> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.as_bytes()))
        .collect();
    let not_text_early: &[u8] = b"<p>\xFF</p>";
    let not_text_late: &[u8] = b"<p>later \xC3</p>";
    let tamper = |resp: &mut ServerResponse, at: usize| {
        let mut blocks: Vec<_> = resp.blocks.iter().map(|b| b.to_block()).collect();
        blocks[at].ciphertext[1] ^= 0x10;
        resp.blocks = blocks.into_iter().collect();
    };
    type Damage<'a> = &'a dyn Fn(&mut Vec<(u32, &'a [u8])>) -> Vec<usize>;
    let cases: [(&str, Damage); 5] = [
        ("one tampered block in the last run", &|_| vec![650]),
        ("two tampered blocks", &|_| vec![300, 40]),
        ("not text ahead of a tampered block", &|b| {
            b[100].1 = not_text_early;
            vec![400]
        }),
        ("tampered ahead of not text", &|b| {
            b[400].1 = not_text_late;
            vec![100]
        }),
        ("two blocks that are not text", &|b| {
            b[600].1 = not_text_early;
            b[270].1 = not_text_late;
            vec![]
        }),
    ];
    for (what, damage) in cases {
        let mut blocks = good.clone();
        let tampered = damage(&mut blocks);
        let mut resp = reply_of_bytes(&client, "", &blocks);
        for at in tampered {
            tamper(&mut resp, at);
        }
        let expected = serial_verdict(&client, &resp).expect("the reply is damaged");
        let err = client
            .post_process(&Path::parse("//p").unwrap(), &resp)
            .unwrap_err();
        assert_eq!(err, expected, "{what}");
    }
    // Undamaged, the same reply is fine.
    let resp = reply_of_bytes(&client, "", &good);
    assert_eq!(serial_verdict(&client, &resp), None);
    let post = client
        .post_process(&Path::parse("//p").unwrap(), &resp)
        .unwrap();
    assert_eq!(post.results.len(), 700);
}

/// Plaintexts share a buffer but not their characters: a block that stops
/// in the middle of one is not text, even though the next block's first
/// byte would complete it.
#[test]
fn a_block_ending_mid_character_is_rejected_whatever_follows_it() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let whole = "<a>é</a>".as_bytes();
    let cut = whole.iter().position(|&b| b == 0xC3).unwrap() + 1;
    let halves = [(1, &whole[..cut]), (2, &whole[cut..])];
    assert!(std::str::from_utf8(&[halves[0].1, halves[1].1].concat()).is_ok());
    for pruned in [String::new(), format!("<h>{B}{B}</h>")] {
        let resp = reply_of_bytes(&client, &pruned, &halves);
        let err = client
            .post_process(&Path::parse("//a").unwrap(), &resp)
            .unwrap_err();
        assert_eq!(Some(&err), serial_verdict(&client, &resp).as_ref());
        assert!(
            matches!(&err, CoreError::Block(m) if m.contains("block not UTF-8")),
            "{err:?}"
        );
    }
}

/// Hostile nesting — in the reply or in a block, both written by the
/// untrusted server — is a typed error on a small stack, never an abort.
#[test]
fn hostile_nesting_is_a_typed_error() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let deep = "<a>".repeat(100_000) + &"</a>".repeat(100_000);
    let in_reply = reply(&client, &deep, &[]);
    let in_block = reply(&client, &format!("<h>{B}</h>"), &[(1, &deep)]);
    // Just under the cap in the reply, one level too many once spliced.
    let levels = exq_xml::MAX_DEPTH - 1;
    let straddling = reply(
        &client,
        &format!("{}{B}{}", "<a>".repeat(levels), "</a>".repeat(levels)),
        &[(1, "<x><y/></x>")],
    );
    let (e_reply, e_block, e_straddle) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let q = Path::parse("//a").unwrap();
            (
                client.post_process(&q, &in_reply).unwrap_err(),
                client.post_process(&q, &in_block).unwrap_err(),
                client.post_process(&q, &straddling).unwrap_err(),
            )
        })
        .unwrap()
        .join()
        .expect("post_process must not overflow its stack");
    assert!(
        matches!(&e_reply, CoreError::Response(m) if m.contains("nested deeper")),
        "{e_reply:?}"
    );
    assert!(
        matches!(&e_block, CoreError::Block(m) if m.contains("nested deeper")),
        "{e_block:?}"
    );
    assert!(
        matches!(&e_straddle, CoreError::Block(m) if m.contains("nested deeper")),
        "{e_straddle:?}"
    );
}

/// A start tag that names an attribute twice is ill-formed, and the writer
/// would hand it straight back: in the reply it is a malformed response, in
/// a block a block that is not XML — the first offender in document order,
/// at every thread count.
#[test]
fn a_repeated_attribute_is_a_typed_error_in_reply_and_block() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let pruned = format!("<h>{B}{B}{B}</h>");
    let in_block = reply(
        &client,
        &pruned,
        &[
            (1, "<ok k=\"1\" l=\"1\"/>"),
            (2, "<p><q n=\"1\" n=\"2\"/></p>"),
            (3, "<r id='x' id='x'/>"),
        ],
    );
    let in_reply = reply(
        &client,
        &format!("<h w=\"1\" v=\"2\" w=\"3\">{B}</h>"),
        &[(1, "<ok/>")],
    );
    let at_root = reply(&client, "", &[(1, "<ok/>"), (2, "<p a=\"\" a=\"\"/>")]);
    let error = |resp| {
        client
            .post_process(&Path::parse("//ok").unwrap(), resp)
            .unwrap_err()
    };
    let e = error(&in_block);
    assert!(
        matches!(&e, CoreError::Block(m)
            if m.contains("block not XML") && m.contains("attribute `n` repeated in <q>")),
        "{e:?}"
    );
    let e = error(&in_reply);
    assert!(
        matches!(&e, CoreError::Response(m) if m.contains("attribute `w` repeated in <h>")),
        "{e:?}"
    );
    let e = error(&at_root);
    assert!(
        matches!(&e, CoreError::Block(m) if m.contains("attribute `a` repeated in <p>")),
        "{e:?}"
    );
}

/// Shapes no honest server writes, which a reconstruction must still take
/// exactly as it always has: a decoy inside a decoy, a block whose root is
/// a decoy, and several root-level blocks with all of that in them.
#[test]
fn odd_decoy_shapes_reconstruct_as_they_always_have() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let decoy = |inner: &str| format!("<{DECOY_TAG}>{inner}</{DECOY_TAG}>");
    let nested_decoy = decoy(&format!("1{}2<x/>", decoy("3")));
    let pruned = format!("<h><v>{nested_decoy}kept</v>{B}{B}<tail/></h>");
    let blocks = [
        (1, "<one>1</one>".to_owned()),
        (2, "<two>2</two>".to_owned()),
        (3, nested_decoy.clone()),
        (
            4,
            format!("<four>{nested_decoy}<pname>Al</pname>{}</four>", decoy("9")),
        ),
    ];
    let blocks: Vec<(u32, &str)> = blocks.iter().map(|(id, xml)| (*id, xml.as_str())).collect();
    let resp = reply(&client, &pruned, &blocks[2..]);
    assert_eq!(
        results(&client, "/h", &resp),
        ["<h><v>kept</v><four><pname>Al</pname></four><tail/></h>"]
    );
    assert_eq!(
        results(&client, "/h/*[2]", &resp),
        ["<four><pname>Al</pname></four>"]
    );
    assert!(results(&client, "//x", &resp).is_empty());

    // The same blocks with no skeleton: they splice at the root level in
    // shipped order, and the block that is only a decoy leaves no trace.
    let resp = reply(&client, "", &blocks);
    assert_eq!(
        results(&client, "/*", &resp),
        ["<_exq_splice><one>1</one><two>2</two><four><pname>Al</pname></four></_exq_splice>"]
    );
    assert_eq!(results(&client, "/*/*[last()]/pname/text()", &resp), ["Al"]);
    // One root-level block that is only a decoy: a document with no root.
    let resp = reply(&client, "", &[(3, &nested_decoy)]);
    assert!(results(&client, "//*", &resp).is_empty());
    assert!(results(&client, "/*", &resp).is_empty());
}

/// A decoy is never built, but what it holds is checked exactly as if it
/// were: malformed, too deep or repeating an attribute, it is the error it
/// always was — a malformed response in the skeleton, a block that is not
/// XML in a block.
#[test]
fn a_decoy_with_hostile_content_is_still_an_error() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let decoy = |inner: &str| format!("<{DECOY_TAG}>{inner}</{DECOY_TAG}>");
    let deep = "<a>".repeat(exq_xml::MAX_DEPTH) + &"</a>".repeat(exq_xml::MAX_DEPTH);
    let cases = [
        (decoy("<a></b>"), "mismatched close tag"),
        (decoy("<a>"), "mismatched close tag"),
        (decoy(&deep), "nested deeper"),
        (
            decoy("<a x=\"1\" x=\"2\"/>"),
            "attribute `x` repeated in <a>",
        ),
        (
            format!("<{DECOY_TAG} y=\"1\" y=\"1\"/>"),
            "attribute `y` repeated in <_exq_decoy>",
        ),
        (format!("<{DECOY_TAG}>x</h>"), "mismatched close tag"),
    ];
    for (bad, why) in &cases {
        let in_skeleton = reply(&client, &format!("<h>{bad}{B}</h>"), &[(1, "<ok/>")]);
        let in_block = reply(
            &client,
            &format!("<h>{B}</h>"),
            &[(1, &format!("<ok>{bad}</ok>"))],
        );
        let q = Path::parse("//ok").unwrap();
        let e = client.post_process(&q, &in_skeleton).unwrap_err();
        assert!(
            matches!(&e, CoreError::Response(m) if m.contains(why)),
            "{bad}: {e:?}"
        );
        let e = client.post_process(&q, &in_block).unwrap_err();
        assert!(
            matches!(&e, CoreError::Block(m) if m.contains("block not XML") && m.contains(why)),
            "{bad}: {e:?}"
        );
    }
}

/// A block placed inside a decoy is never looked at: it is neither parsed
/// in nor validated, and goes with the decoy. In a block a decoy goes with
/// whatever it holds, as before.
#[test]
fn a_block_inside_a_decoy_is_neither_spliced_nor_validated() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let hidden = format!("<{DECOY_TAG}>{B}</{DECOY_TAG}>");
    // A shipped block that is not even XML, placed in a decoy: no error,
    // and its text never shows.
    let pruned = format!("<h>{hidden}{B}</h>");
    let resp = reply(&client, &pruned, &[(2, "<a></b>"), (1, "<ok/>")]);
    assert_eq!(results(&client, "/h", &resp), ["<h><ok/></h>"]);
    // A valid block: it is not spliced.
    let resp = reply(
        &client,
        &format!("<h>{hidden}</h>"),
        &[(2, "<pname>B</pname>")],
    );
    assert_eq!(results(&client, "/h", &resp), ["<h/>"]);
    // In a block.
    let block = format!("<rec><{DECOY_TAG}><x/></{DECOY_TAG}><pname>B</pname></rec>");
    let resp = reply(&client, &format!("<h>{B}</h>"), &[(1, &block)]);
    assert_eq!(
        results(&client, "/h", &resp),
        ["<h><rec><pname>B</pname></rec></h>"]
    );
}

/// Blocks with ids out of order, and several at one offset, land where
/// they are placed, in the order shipped.
#[test]
fn blocks_out_of_id_order_land_in_shipped_order() {
    let (client, _server) = hosted(&["//patient:(/pname, /SSN)"]);
    let blocks = [(3, "<c/>"), (1, "<a/>"), (9, "<e/>"), (4, "<d/>")];
    let resp = reply(&client, &format!("<h>{B}<x/>{B}{B}{B}</h>"), &blocks);
    assert_eq!(
        results(&client, "/h", &resp),
        ["<h><c/><x/><a/><e/><d/></h>"]
    );
}
