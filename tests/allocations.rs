//! How many allocations one `Client::post_process` makes. The reply is
//! reconstructed as one text and one node array, the post query reuses its
//! node lists, and each result is one copied slice: so the count is one per
//! result plus a constant, however many nodes, blocks or predicate checks
//! the reply brings. The decode of a reply's frame is a constant alone: its
//! blocks are one table. Counted by a global allocator, on the calling
//! thread only, so the test harness's other threads do not add to it.

use encrypted_xml::core::codec::{
    crc32, Message, CHECKSUM_FIELD_LEN, FRAME_HEADER_LEN, REQ_ID_FIELD_LEN, TRACE_FIELD_LEN,
};
use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::core::transport::InProcess;
use encrypted_xml::core::Client;
use encrypted_xml::workload::{hospital, xmark};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some((n, bytes))` while this thread counts: `n` allocations so far,
    /// asking for `bytes` in all.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn bump(bytes: usize) {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + bytes))));
}

/// `(allocations, bytes asked for)` while `f` runs on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    (out, COUNT.with(|c| c.replace(None)).unwrap())
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the most `post_process` may make beyond one per result.
const CONSTANT: usize = 256;

/// `(results, allocations)` of one `post_process` of `query`'s reply.
fn count(client: &Client, server: &encrypted_xml::core::Server, query: &str) -> (usize, usize) {
    let (tq, resp, _) = client.run(&mut InProcess::shared(server), query).unwrap();
    let (post, (allocations, _)) = counted(|| client.post_process(&tq.post_query, &resp));
    let results = post.unwrap().results.len();
    eprintln!(
        "{query}: {results} results, {} blocks, {allocations} allocations",
        resp.blocks.len()
    );
    (results, allocations)
}

#[test]
fn post_process_allocates_once_per_result_plus_a_constant() {
    let people = xmark::generate(&xmark::XmarkConfig {
        target_bytes: 1 << 20,
        seed: 2006,
    });
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&people, &xmark::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let patients = hospital::scaled(1200, 2007);
    let (other, other_server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&patients, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    for (client, server, query) in [
        (&client, &server, "/site/people/person//name"),
        (&other, &other_server, "//patient[age > 50]/pname"),
    ] {
        let (results, allocations) = count(client, server, query);
        assert!(results > 100, "{query}");
        assert!(
            allocations <= results + CONSTANT,
            "{query}: {allocations} allocations for {results} results"
        );
    }
}

/// Allocations the most `Message::decode_frame` may make for an `Answer`:
/// the text, the block table's buffer and entries, and a few more.
const FRAME_DECODE: usize = 8;

#[test]
fn decoding_a_reply_allocates_a_constant_however_many_blocks() {
    let people = xmark::generate(&xmark::XmarkConfig {
        target_bytes: 2 << 20,
        seed: 2006,
    });
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&people, &xmark::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let patients = hospital::scaled(1200, 2007);
    let ssn = patients.text_value(patients.elements_by_tag("SSN")[600]);
    let (other, other_server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&patients, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    for (client, server, query, blocks) in [
        (&client, &server, "//people//person".to_owned(), 7488..=7488),
        (
            &other,
            &other_server,
            format!("//patient[SSN = '{ssn}']/pname"),
            1..=8,
        ),
    ] {
        let (_, resp, _) = client.run(&mut InProcess::shared(server), &query).unwrap();
        assert!(
            blocks.contains(&resp.blocks.len()),
            "{query}: {}",
            resp.blocks.len()
        );
        let frame = Message::Answer(resp.clone()).encode_frame();
        let (decoded, (allocations, _)) = counted(|| Message::decode_frame(&frame));
        assert_eq!(decoded, Ok(Message::Answer(resp)), "{query}");
        eprintln!("{query}: {allocations} allocations to decode");
        assert!(
            allocations <= FRAME_DECODE,
            "{query}: {allocations} allocations"
        );
    }
}

/// An `Answer` whose block count, a ciphertext's length or its offset
/// count claims more than the payload holds, or that stops inside a block
/// (its length and checksum made right again), is refused before the
/// decoder asks for more bytes than the payload has.
#[test]
fn a_damaged_reply_reserves_no_more_than_its_payload() {
    let patients = hospital::scaled(60, 2007);
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&patients, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    let (_, resp, _) = client
        .run(&mut InProcess::shared(&server), "//patient/pname")
        .unwrap();
    assert!(resp.blocks.len() > 2);
    let frame = Message::Answer(resp.clone()).encode_frame();
    let at = FRAME_HEADER_LEN + encrypted_xml::core::codec::FRAME_EXTRA_LEN;
    let payload = &frame[at..];
    // Where the text ends and the offsets start, each a varint after the
    // offset count; the block count follows them, and the first block's
    // ciphertext length follows its id and nonce.
    let varint_end = |at: usize| at + payload[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let text_len = varint_end(0);
    let offsets_at = text_len + resp.pruned_xml.len();
    let offsets_len = varint_end(offsets_at) - offsets_at;
    let count_at = (0..=resp.offsets.len()).fold(offsets_at, |at, _| varint_end(at));
    let count_len = varint_end(count_at) - count_at;
    let first_id = resp.blocks.iter().next().unwrap().id;
    let id_len = if first_id < 0x80 { 1 } else { 2 };
    let length_at = count_at + count_len + id_len + 12;
    let huge = [0xFF, 0xFF, 0xFF, 0x3F];
    let with = |at: usize, width: usize, bytes: &[u8]| {
        let mut damaged = payload.to_vec();
        damaged.splice(at..at + width, bytes.iter().copied());
        damaged
    };
    let cases = [
        with(count_at, count_len, &huge),
        with(length_at, 1, &huge),
        payload[..length_at + 20].to_vec(),
        with(offsets_at, offsets_len, &huge),
    ];
    for damaged in cases {
        let mut frame = frame[..at].to_vec();
        frame[4..FRAME_HEADER_LEN].copy_from_slice(&(damaged.len() as u32).to_le_bytes());
        frame.extend_from_slice(&damaged);
        let crc_at = FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN;
        let crc = crc32(&[&frame[..crc_at], &frame[crc_at + CHECKSUM_FIELD_LEN..]]);
        frame[crc_at..crc_at + CHECKSUM_FIELD_LEN].copy_from_slice(&crc.to_le_bytes());
        let (decoded, (_, bytes)) = counted(|| Message::decode_frame(&frame));
        assert!(decoded.is_err(), "{decoded:?}");
        assert!(
            bytes <= damaged.len(),
            "{bytes} bytes for a {}-byte payload",
            damaged.len()
        );
    }
}
