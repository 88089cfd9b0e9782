//! Property tests for the wire codec: arbitrary messages survive an
//! encode/decode round trip bit-exactly, and corrupted frames fail with an
//! error — never a panic, never a bogus decode that re-encodes differently.

use exq_core::codec::{
    crc32, CodecError, Message, WireCodec, WireError, CHECKSUM_FIELD_LEN, DB_ID_FIELD_LEN,
    FRAME_EXTRA_LEN, FRAME_HEADER_LEN, PROTOCOL_VERSION, REQ_ID_FIELD_LEN, TRACE_FIELD_LEN,
};
use exq_core::telemetry::{Side, SpanRec};
use exq_core::update::{DeleteOutcome, InsertDelta, InsertionSlot};
use exq_core::wire::{SAxis, SPred, SStep, ServerQuery, ServerResponse};
use exq_core::VisibleFragment;
use exq_crypto::{SealedBlock, ValueRange};
use exq_xpath::{CmpOp, Literal};
use proptest::prelude::*;
use std::time::Duration;

/// Recomputes the checksum of a hand-edited frame, so the edit reaches the
/// decoder behind it instead of tripping the CRC first.
fn refresh_crc(frame: &mut [u8]) {
    let crc_pos = FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN;
    let crc = crc32(&[&frame[..crc_pos], &frame[crc_pos + CHECKSUM_FIELD_LEN..]]);
    frame[crc_pos..crc_pos + CHECKSUM_FIELD_LEN].copy_from_slice(&crc.to_le_bytes());
}

fn arb_interval() -> impl Strategy<Value = exq_index::dsi::Interval> {
    (0u64..1 << 48, 1u64..1 << 16)
        .prop_map(|(lo, span)| exq_index::dsi::Interval::new(lo, lo + span))
}

fn arb_tag() -> impl Strategy<Value = String> {
    "[a-zA-Z@_][a-zA-Z0-9_]{0,10}".prop_map(|s| s)
}

fn arb_value_range() -> impl Strategy<Value = ValueRange> {
    (any::<u128>(), any::<u128>()).prop_map(|(a, b)| ValueRange {
        lo: a.min(b),
        hi: a.max(b),
    })
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (-1e12f64..1e12).prop_map(Literal::Number),
        "[ -~]{0,16}".prop_map(Literal::Str),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_axis() -> impl Strategy<Value = SAxis> {
    prop_oneof![
        Just(SAxis::Child),
        Just(SAxis::Descendant),
        Just(SAxis::DescendantOrSelf),
        Just(SAxis::Attribute),
    ]
}

/// A flat step (no predicates) — the recursion base.
fn arb_flat_step() -> impl Strategy<Value = SStep> {
    (arb_axis(), proptest::collection::vec(arb_tag(), 0..3)).prop_map(|(axis, tags)| SStep {
        axis,
        tags,
        preds: vec![],
    })
}

/// Steps whose predicates may nest further steps, up to a small depth.
fn arb_step() -> BoxedStrategy<SStep> {
    arb_flat_step()
        .prop_recursive(3, 12, 3, |inner| {
            let pred = prop_oneof![
                proptest::collection::vec(inner.clone(), 1..3).prop_map(SPred::Exists),
                (
                    proptest::collection::vec(inner, 1..3),
                    proptest::option::of((arb_tag(), arb_value_range())),
                    proptest::option::of((arb_cmp(), arb_literal())),
                )
                    .prop_map(|(path, range, plain)| SPred::Value {
                        path,
                        range,
                        plain
                    }),
            ];
            (
                arb_axis(),
                proptest::collection::vec(arb_tag(), 0..3),
                proptest::collection::vec(pred, 0..2),
            )
                .prop_map(|(axis, tags, preds)| SStep { axis, tags, preds })
        })
        .boxed()
}

fn arb_query() -> impl Strategy<Value = ServerQuery> {
    (proptest::collection::vec(arb_step(), 1..4), any::<u16>()).prop_map(|(steps, a)| {
        let anchor = a as usize % steps.len();
        ServerQuery { steps, anchor }
    })
}

fn arb_block() -> impl Strategy<Value = SealedBlock> {
    (
        any::<u32>(),
        any::<[u8; 12]>(),
        proptest::collection::vec(any::<u8>(), 0..200),
        any::<[u8; 16]>(),
    )
        .prop_map(|(id, nonce, ciphertext, tag)| SealedBlock {
            id,
            nonce,
            ciphertext,
            tag,
        })
}

fn arb_span() -> impl Strategy<Value = SpanRec> {
    (
        (1u64..u64::MAX, 1u64..u64::MAX, any::<u64>()),
        (
            "[a-z][a-z._]{0,20}",
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((trace, id, parent), (name, server, start_ns, dur_ns))| SpanRec {
                trace,
                id,
                parent,
                name,
                side: if server { Side::Server } else { Side::Client },
                start_ns,
                dur_ns,
            },
        )
}

/// Offsets as a reply or a fragment carries them: ascending.
fn arb_offsets() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..4).prop_map(|mut offsets| {
        offsets.sort_unstable();
        offsets
    })
}

fn arb_response() -> impl Strategy<Value = ServerResponse> {
    (
        ("[ -~]{0,200}", arb_offsets()),
        proptest::collection::vec(arb_block(), 0..4),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(arb_span(), 0..4),
    )
        .prop_map(
            |((pruned_xml, offsets), blocks, t1, t2, served_from_cache, spans)| ServerResponse {
                pruned_xml,
                blocks: blocks.into_iter().collect(),
                offsets,
                translate_time: Duration::from_nanos(t1 as u64),
                process_time: Duration::from_nanos(t2 as u64),
                served_from_cache,
                spans,
            },
        )
}

fn arb_delta() -> impl Strategy<Value = InsertDelta> {
    (
        arb_interval(),
        (
            "[ -~]{0,100}",
            proptest::collection::vec((any::<u32>(), arb_interval()), 0..4),
            (arb_offsets(), proptest::collection::vec(arb_interval(), 4)),
        ),
        proptest::collection::vec(arb_block(), 0..3),
        proptest::collection::vec((arb_tag(), arb_interval()), 0..4),
        proptest::collection::vec((arb_interval(), any::<u32>()), 0..4),
        proptest::collection::vec((arb_tag(), any::<u128>(), any::<u32>()), 0..4),
    )
        .prop_map(
            |(
                parent,
                (xml, intervals, places),
                blocks,
                dsi_entries,
                block_entries,
                value_entries,
            )| {
                let (offsets, reps) = places;
                let places = offsets.into_iter().zip(reps).collect();
                InsertDelta {
                    parent,
                    visible: VisibleFragment {
                        xml,
                        intervals,
                        blocks: places,
                    },
                    blocks,
                    dsi_entries,
                    block_entries,
                    value_entries,
                }
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_query().prop_map(Message::Query),
        Just(Message::NaiveQuery),
        any::<u32>().prop_map(Message::FetchBlock),
        (arb_tag(), any::<bool>())
            .prop_map(|(attr_key, max)| Message::ValueExtreme { attr_key, max }),
        arb_query().prop_map(Message::Locate),
        arb_interval().prop_map(Message::InsertionSlotReq),
        arb_delta().prop_map(Message::ApplyInsert),
        arb_query().prop_map(Message::DeleteWhere),
        arb_response().prop_map(Message::Answer),
        proptest::option::of(arb_block()).prop_map(Message::Block),
        proptest::option::of((any::<u128>(), any::<u32>())).prop_map(Message::Extreme),
        proptest::collection::vec(arb_interval(), 0..6).prop_map(Message::Intervals),
        (arb_interval(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(parent, a, b, id)| {
                Message::Slot(InsertionSlot {
                    parent,
                    gap_lo: a.min(b),
                    gap_hi: a.max(b),
                    next_block_id: id,
                })
            }
        ),
        Just(Message::InsertOk),
        (any::<u16>(), any::<u16>()).prop_map(|(d, s)| Message::Deleted(DeleteOutcome {
            deleted: d as usize,
            skipped_in_block: s as usize,
        })),
        (0u8..12, "[ -~]{0,40}")
            .prop_map(|(code, message)| Message::Error(WireError { code, message })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn message_frame_roundtrip(msg in arb_message()) {
        let frame = msg.encode_frame();
        prop_assert_eq!(frame.len(), msg.frame_len());
        let back = Message::decode_frame(&frame).expect("decode own frame");
        // WireError codes are canonicalized on decode (unknown → transport),
        // so compare re-encodings rather than values for error frames.
        prop_assert_eq!(back.encode_frame(), frame);
    }

    #[test]
    fn query_payload_roundtrip(q in arb_query()) {
        let bytes = q.encode();
        let back = ServerQuery::decode(&bytes).expect("decode");
        prop_assert_eq!(back, q);
    }

    #[test]
    fn response_payload_roundtrip(r in arb_response()) {
        let bytes = r.encode();
        let back = ServerResponse::decode(&bytes).expect("decode");
        prop_assert_eq!(back, r);
    }

    #[test]
    fn delta_payload_roundtrip(d in arb_delta()) {
        let bytes = d.encode();
        let back = InsertDelta::decode(&bytes).expect("decode");
        prop_assert_eq!(back, d);
    }

    /// Any truncation of a valid frame errors cleanly.
    #[test]
    fn truncation_never_panics(msg in arb_message(), cut in 0.0f64..1.0) {
        let frame = msg.encode_frame();
        let keep = (frame.len() as f64 * cut) as usize;
        if keep < frame.len() {
            prop_assert!(Message::decode_frame(&frame[..keep]).is_err());
        }
    }

    /// Single-byte corruption anywhere in the frame either fails cleanly or
    /// decodes to a message that re-encodes without panicking. (A flipped
    /// byte inside, say, a tag string can still be a valid frame.)
    #[test]
    fn corruption_never_panics(msg in arb_message(), pos in any::<u32>(), xor in 1u8..=255) {
        let mut frame = msg.encode_frame();
        let idx = pos as usize % frame.len();
        frame[idx] ^= xor;
        match Message::decode_frame(&frame) {
            Err(_) => {}
            Ok(m) => {
                let _ = m.encode_frame();
            }
        }
    }

    /// Random garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Message::decode_frame(&bytes);
    }

    /// Garbage behind a valid header and checksum never panics either —
    /// this is the path a network server actually feeds the decoder.
    #[test]
    fn framed_garbage_never_panics(
        msg_type in any::<u8>(),
        trace in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + FRAME_EXTRA_LEN + payload.len());
        frame.extend_from_slice(b"EQ");
        frame.push(PROTOCOL_VERSION);
        frame.push(msg_type);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&trace.to_le_bytes());
        frame.resize(FRAME_HEADER_LEN + FRAME_EXTRA_LEN, 0);
        frame.extend_from_slice(&payload);
        refresh_crc(&mut frame);
        let _ = Message::decode_frame(&frame);
    }

    /// There is one dialect: any valid frame whose version byte is replaced
    /// by anything else decodes to `BadVersion` naming that byte — never a
    /// panic, never another error, never a message.
    #[test]
    fn foreign_version_byte_is_bad_version(
        msg in arb_message(),
        // Every byte but the current version's.
        b in (0u8..=254).prop_map(|b| if b >= PROTOCOL_VERSION { b + 1 } else { b }),
    ) {
        let mut frame = msg.encode_frame();
        frame[2] = b;
        prop_assert_eq!(Message::decode_frame(&frame), Err(CodecError::BadVersion(b)));
    }

    /// Any trace id — including 0 — survives the frame header on any
    /// message, and the payload decodes identically to an untraced frame.
    #[test]
    fn trace_id_propagates_on_any_message(msg in arb_message(), trace in any::<u64>()) {
        let frame = msg.encode_frame_traced(trace);
        prop_assert_eq!(frame.len(), msg.frame_len());
        let d = Message::decode_frame_ext(&frame).expect("decode traced frame");
        prop_assert_eq!(d.trace, trace);
        // Compare re-encodings: WireError codes canonicalize on decode.
        prop_assert_eq!(d.msg.encode_frame_traced(trace), frame);
    }

    /// Any valid db id rides a frame unchanged, and the frame length is
    /// invariant in the id (fixed-width field — ids are not length-leaked).
    #[test]
    fn db_id_roundtrips_on_any_message(
        msg in arb_message(),
        db in "[a-z][a-z0-9._-]{0,62}",
        trace in any::<u64>(),
        req_id in any::<u64>(),
    ) {
        let frame = msg.encode_frame_db(trace, req_id, &db).unwrap();
        let bare = msg.encode_frame_db(trace, req_id, "").unwrap();
        prop_assert_eq!(frame.len(), bare.len(), "db id must not change frame length");
        let d = Message::decode_frame_ext(&frame).expect("decode db frame");
        prop_assert_eq!(d.db, db);
        prop_assert_eq!(d.trace, trace);
        prop_assert_eq!(d.req_id, req_id);
    }

    /// Single-byte corruption of a frame naming a db — including within the db-id
    /// field — never panics the decoder.
    #[test]
    fn db_frame_corruption_never_panics(
        msg in arb_message(),
        db in "[a-z][a-z0-9._-]{0,62}",
        pos in any::<u32>(),
        xor in 1u8..=255,
    ) {
        let mut frame = msg.encode_frame_db(7, 9, &db).unwrap();
        let idx = pos as usize % frame.len();
        frame[idx] ^= xor;
        match Message::decode_frame(&frame) {
            Err(_) => {}
            Ok(m) => {
                let _ = m.encode_frame();
            }
        }
    }

    /// Arbitrary bytes in the db-id field — oversized length byte, nonzero
    /// padding, non-UTF-8 — behind a *valid* checksum always yield a typed
    /// error or a clean decode, never a panic. (The CRC is recomputed so
    /// corruption reaches the db-id validator instead of tripping the
    /// checksum first.)
    #[test]
    fn garbage_db_field_is_typed_not_a_panic(
        msg in arb_message(),
        field in proptest::collection::vec(any::<u8>(), DB_ID_FIELD_LEN),
    ) {
        let mut frame = msg.encode_frame_db(1, 2, "x").unwrap();
        let db_pos = FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN + CHECKSUM_FIELD_LEN;
        frame[db_pos..db_pos + DB_ID_FIELD_LEN].copy_from_slice(&field);
        refresh_crc(&mut frame);
        match Message::decode_frame_ext(&frame) {
            Err(CodecError::DbId(_)) | Ok(_) => {}
            Err(e) => prop_assert!(false, "expected DbId error or clean decode, got {e:?}"),
        }
    }

    /// Single-byte corruption of a traced frame — including within the
    /// trace field itself — never panics the decoder.
    #[test]
    fn traced_corruption_never_panics(
        msg in arb_message(),
        trace in any::<u64>(),
        pos in any::<u32>(),
        xor in 1u8..=255,
    ) {
        let mut frame = msg.encode_frame_traced(trace);
        let idx = pos as usize % frame.len();
        frame[idx] ^= xor;
        match Message::decode_frame(&frame) {
            Err(_) => {}
            Ok(m) => {
                let _ = m.encode_frame();
            }
        }
    }
}

/// Decoded intervals always satisfy the `lo < hi` invariant, so downstream
/// `Interval` code can rely on it even on attacker-supplied frames.
#[test]
fn decoded_intervals_uphold_invariant() {
    // payload = varint(lo) + varint(hi); with lo=3, hi=9 both varints are
    // single bytes, so swapping them fabricates the inverted interval
    // (9, 3) that the constructor itself would refuse to build.
    let mut frame = Message::InsertionSlotReq(exq_index::dsi::Interval::new(3, 9)).encode_frame();
    let payload = FRAME_HEADER_LEN + FRAME_EXTRA_LEN;
    frame.swap(payload, payload + 1);
    refresh_crc(&mut frame);
    match Message::decode_frame(&frame) {
        Err(e) => assert!(matches!(e, CodecError::Invalid(_)), "got {e:?}"),
        Ok(m) => panic!("inverted interval decoded: {m:?}"),
    }
}

/// One small insert's encoding, pinned byte for byte: the visible
/// fragment, block pairs and value entries have one codec each, shared by
/// the wire, the WAL and the files, and none of them may move a wire byte.
/// The fragment's block places (`01 11 d201 a202`: one block at byte 17,
/// its interval) came with protocol version 6, which moved nothing else.
#[test]
fn a_small_insert_delta_encodes_as_pinned() {
    use exq_index::dsi::Interval;
    let iv = Interval::new;
    let delta = InsertDelta {
        parent: iv(10, 900),
        visible: VisibleFragment {
            xml: "<p k=\"1\"><n>a</n></p>".into(),
            intervals: vec![(0, iv(20, 300)), (1, iv(30, 40)), (2, iv(50, 200))],
            blocks: vec![(17, iv(210, 290))],
        },
        blocks: vec![SealedBlock {
            id: 7,
            nonce: [1; 12],
            ciphertext: vec![0xAB, 0xCD, 0xEF],
            tag: [2; 16],
        }],
        dsi_entries: vec![
            ("p".into(), iv(20, 300)),
            ("@k".into(), iv(30, 40)),
            ("zz".into(), iv(210, 290)),
        ],
        block_entries: vec![(iv(210, 290), 7)],
        value_entries: vec![("@k".into(), 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10, 7)],
    };
    let hex: String = delta.encode().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "0a8407153c70206b3d2231223e3c6e3e613c2f6e3e3c2f703e030014ac02011e280232c8010111d201a202\
         010701010101010101010101010103abcdef0202020202020202020202020202020203017014ac0202406b\
         1e28027a7ad201a20201d201a202070102406b100f0e0d0c0b0a09080706050403020107"
    );
    assert_eq!(InsertDelta::decode(&delta.encode()).unwrap(), delta);
}
