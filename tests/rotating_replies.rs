//! One client, many replies of many shapes. Nothing the client answers may
//! depend on the replies before it: not after a reply of another shape, not
//! after one from another database, and not after a reply that failed
//! halfway through its parse.

use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::core::transport::InProcess;
use encrypted_xml::core::wire::ServerResponse;
use encrypted_xml::core::{Client, CoreError};
use encrypted_xml::crypto::{open_block, seal_block};
use encrypted_xml::workload::{hospital, xmark};
use encrypted_xml::xpath::Path;

/// Post-processes on a thread of its own: a client with no reply before.
fn fresh(client: &Client, query: &Path, resp: &ServerResponse) -> Result<Vec<String>, CoreError> {
    std::thread::scope(|s| {
        s.spawn(|| client.post_process(query, resp).map(|p| p.results))
            .join()
            .unwrap()
    })
}

/// `resp` with every block opened under `from`'s key and sealed again
/// under `to`'s: the same reply, readable by the other client.
fn resealed(resp: &ServerResponse, from: &Client, to: &Client) -> ServerResponse {
    let (from, to) = (from.state().keys.block_key(), to.state().keys.block_key());
    let blocks = resp.blocks.iter().map(|b| {
        let plain = open_block(&from, b).unwrap();
        seal_block(&to, b.id, b.nonce, &plain)
    });
    ServerResponse {
        blocks: blocks.collect(),
        ..resp.clone()
    }
}

#[test]
fn one_client_answers_every_reply_as_a_fresh_one_would() {
    let doc = xmark::generate(&xmark::XmarkConfig {
        target_bytes: 192 << 10,
        seed: 2006,
    });
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &xmark::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let patients = hospital::scaled(150, 2007);
    let (other, other_server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&patients, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();

    // The three `xmark` reply shapes (one visible region, many small
    // blocks, one large region of blocks) and two `hospital` block fetches,
    // sealed again for this client.
    let mut replies = Vec::new();
    for q in [
        "/site//open_auctions",
        "/site/people/person//name",
        "//people//person",
    ] {
        let (tq, resp, _) = client.run(&mut InProcess::shared(&server), q).unwrap();
        replies.push((tq.post_query, resp));
    }
    for q in ["//patient[age > 50]/pname", "//treat/disease"] {
        let (tq, resp, _) = other.run(&mut InProcess::shared(&other_server), q).unwrap();
        let want = fresh(&other, &tq.post_query, &resp).unwrap();
        let resp = resealed(&resp, &other, &client);
        assert_eq!(fresh(&client, &tq.post_query, &resp).unwrap(), want, "{q}");
        replies.push((tq.post_query, resp));
    }
    let answers: Vec<Vec<String>> = replies
        .iter()
        .map(|(q, resp)| fresh(&client, q, resp).unwrap())
        .collect();
    assert!(answers.iter().all(|a| !a.is_empty()));
    assert!(replies[1..].iter().all(|(_, resp)| resp.blocks.len() > 50));

    // Two hostile replies of the whole-`people` shape: one block that does
    // not open, half way down the reply; one block placed inside a start
    // tag, after the reply has been parsed half way.
    let (people_query, people) = replies[2].clone();
    let mut tampered = people.clone();
    let half = tampered.blocks.len() / 2;
    let mut blocks: Vec<_> = tampered.blocks.iter().map(|b| b.to_block()).collect();
    blocks[half].ciphertext[0] ^= 0x01;
    tampered.blocks = blocks.iter().collect();
    let mut in_tag = people.clone();
    let (text, offsets) = (&in_tag.pruned_xml, &mut in_tag.offsets);
    // A block past the middle right after a start tag that follows the
    // block before it: moved one byte into that tag, its offsets still
    // ascend.
    let (k, tag) = (half..offsets.len())
        .find_map(|k| {
            let tag = text[..offsets[k] as usize].rfind('<')?;
            let opens = text.as_bytes()[tag + 1] != b'/';
            (opens && tag as u32 >= offsets[k - 1]).then_some((k, tag))
        })
        .expect("a block right after a start tag");
    offsets[k] = tag as u32 + 1;
    let hostile = [(&people_query, &tampered), (&people_query, &in_tag)];
    let want: Vec<CoreError> = hostile
        .iter()
        .map(|(q, resp)| fresh(&client, q, resp).unwrap_err())
        .collect();
    assert!(matches!(want[0], CoreError::Block(_)), "{:?}", want[0]);
    match &want[1] {
        CoreError::Response(why) => assert!(why.contains(&format!("stop {k} ")), "{why}"),
        other => panic!("{other:?}"),
    }

    // One thread, every shape after every other, the hostile replies
    // midway: each answer and each error as a fresh client gives it.
    let order = (0..3 * replies.len()).map(|i| (i * 2) % replies.len());
    for (step, i) in order.enumerate() {
        if step == replies.len() + 1 {
            for ((q, resp), want) in hostile.iter().zip(&want) {
                assert_eq!(&client.post_process(q, resp).unwrap_err(), want);
            }
        }
        let (q, resp) = &replies[i];
        let got = client.post_process(q, resp).unwrap().results;
        assert_eq!(got, answers[i], "step {step}, reply {i}");
    }
}
