//! Pipelining over the event-loop serve path.
//!
//! The contract under test: replies echo the request's trace and request
//! ids on the wire (the correlation fix), N requests in flight on one
//! connection produce bit-identical answers to the same requests issued
//! serially — one at a time, pipelined, and pipelined with replies larger
//! than the socket takes — idle connections beyond the worker count cannot
//! starve a fresh client on the event loop, and a peer that stops reading
//! its replies is dropped within the stall budget instead of pinning a
//! worker forever.

use exq_core::codec::{
    crc32, Message, CHECKSUM_FIELD_LEN, FRAME_HEADER_LEN, PROTOCOL_VERSION, REQ_ID_FIELD_LEN,
    TRACE_FIELD_LEN,
};
use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::retry::{Retry, RetryConfig};
use exq_core::scheme::SchemeKind;
use exq_core::serve::{ServeConfig, ServeHandle};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::TenantRegistry;
use exq_core::transport::{TcpTransport, Transport};
use exq_core::{Client, Server};
use exq_xml::Document;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::read_frame;

fn hosted() -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
            <patient><pname>Ray</pname><SSN>554433</SSN><age>52</age>
              <insurance><policy coverage="250000">90121</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
    ];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 77)
        .unwrap()
        .split()
}

fn registry_with(client: &Client, server: Server) -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new("main").unwrap());
    registry
        .create("main", server, client.key_fingerprint(), 0)
        .unwrap();
    registry
}

fn start_event(registry: Arc<TenantRegistry>, config: ServeConfig) -> ServeHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve_event(listener, registry, config).unwrap()
}

/// Server-evaluable queries plus their translated request messages.
fn query_requests(client: &Client) -> Vec<(String, Message)> {
    [
        "//patient/pname",
        "//patient[age > 40]/pname",
        "//insurance/policy",
        "//patient[pname = 'Betty']/age",
        "//nosuchtag",
    ]
    .iter()
    .map(|q| {
        let tq = client.translate(q).unwrap();
        let sq = tq
            .server_query
            .unwrap_or_else(|| panic!("{q} should be server-evaluable"));
        (q.to_string(), Message::Query(sq))
    })
    .collect()
}

/// The answer a reply *is*, shorn of per-execution measurement: server
/// timings, the cache-hit flag, and telemetry spans differ between runs by
/// construction and are not part of answer equivalence.
fn canon(m: &Message) -> Message {
    match m {
        Message::Answer(r) => {
            let mut r = r.clone();
            r.translate_time = Duration::ZERO;
            r.process_time = Duration::ZERO;
            r.served_from_cache = false;
            r.spans.clear();
            Message::Answer(r)
        }
        other => other.clone(),
    }
}

// --------------------------------------------------------------- starvation

/// More idle connections than workers: on the event loop a fresh client
/// still gets answered, because idle sockets cost buffers, not threads.
#[test]
fn idle_connections_do_not_starve_fresh_clients_on_event_loop() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = start_event(registry, config);

    // 12 connections that say nothing, held open for the whole test.
    let idle: Vec<TcpStream> = (0..12)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    let out = client.query_via(&mut tcp, "//patient/pname").unwrap();
    assert_eq!(out.results.len(), 3, "fresh client starved by idle peers");

    drop(idle);
    handle.shutdown();
}

// -------------------------------------------------------------- correlation

/// Replies echo the request's trace and request ids byte-for-byte on the
/// wire — on answers and on error replies to frames that fail payload
/// decode (where the ids are salvaged from the raw frame).
#[test]
fn replies_echo_ids_on_the_wire() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let handle = start_event(registry, ServeConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let (trace, req_id) = (0xDEAD_BEEF_0000_0005u64, 0x1234_5678_0000_0005u64);
    let frame = Message::Ping.encode_frame_req(PROTOCOL_VERSION, trace, req_id);
    stream.write_all(&frame).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    let d = Message::decode_frame_ext(&reply).unwrap();
    assert_eq!(d.msg, Message::Pong);
    assert_eq!(d.trace, trace, "reply dropped the trace id");
    assert_eq!(d.req_id, req_id, "reply dropped the request id");

    // A frame whose header is fine but whose payload is garbage: the
    // error reply must still carry the ids salvaged from the frame.
    let good = Message::MetricsReq.encode_frame_req(PROTOCOL_VERSION, 0xABAD_1DEA, 777);
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF; // breaks the checksum, ids stay readable
    stream.write_all(&corrupt).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    let d = Message::decode_frame_ext(&reply).unwrap();
    assert!(
        matches!(d.msg, Message::Error(_)),
        "corrupt frame should answer Error, got {:?}",
        d.msg
    );
    assert_eq!(d.trace, 0xABAD_1DEA, "error reply dropped trace id");
    assert_eq!(d.req_id, 777, "error reply dropped request id");

    handle.shutdown();
}

/// A retired message type (0x09, once the cache-counter request) under a
/// valid checksum fails to decode like any unknown type: one `Error` frame
/// echoing the frame's ids, and a fresh connection is served after it.
#[test]
fn retired_message_type_gets_an_error_and_the_server_serves_on() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let handle = start_event(registry, ServeConfig::default());

    let mut frame = Message::MetricsReq.encode_frame_req(PROTOCOL_VERSION, 0x0909, 99);
    frame[3] = 0x09;
    let crc_pos = FRAME_HEADER_LEN + TRACE_FIELD_LEN + REQ_ID_FIELD_LEN;
    let crc = crc32(&[&frame[..crc_pos], &frame[crc_pos + CHECKSUM_FIELD_LEN..]]);
    frame[crc_pos..crc_pos + CHECKSUM_FIELD_LEN].copy_from_slice(&crc.to_le_bytes());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&frame).unwrap();
    let d = Message::decode_frame_ext(&read_frame(&mut stream).unwrap()).unwrap();
    let Message::Error(e) = &d.msg else {
        panic!("retired type should answer Error, got {:?}", d.msg);
    };
    assert!(
        e.message.contains("unknown message tag 0x09"),
        "{}",
        e.message
    );
    assert_eq!((d.trace, d.req_id), (0x0909, 99), "error reply dropped ids");

    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    let out = client.query_via(&mut tcp, "//patient/pname").unwrap();
    assert_eq!(out.results.len(), 3);
    handle.shutdown();
}

// -------------------------------------------------------------- equivalence

/// Serial (one `TcpTransport::roundtrip` at a time) vs. N-in-flight on one
/// connection: bit-identical answers.
#[test]
fn pipelined_matches_serial() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let reqs: Vec<Message> = query_requests(&client)
        .into_iter()
        .map(|(_, m)| m)
        .chain([Message::Ping])
        .collect();

    let handle = start_event(registry, ServeConfig::default());
    let mut serial = TcpTransport::connect_default(handle.addr()).unwrap();
    let serial_replies: Vec<Message> = reqs.iter().map(|r| serial.roundtrip(r).unwrap()).collect();

    let mut pipe = TcpTransport::connect_default(handle.addr()).unwrap();
    let pipelined_replies = pipe.roundtrip_many(&reqs).unwrap();

    assert_eq!(serial_replies.len(), pipelined_replies.len());
    for (i, (s, p)) in serial_replies.iter().zip(&pipelined_replies).enumerate() {
        // Identical decoded replies, and identical bytes, once
        // per-execution measurement and framing are held fixed.
        let (s, p) = (canon(s), canon(p));
        assert_eq!(s, p, "req {i}: answers differ");
        assert_eq!(
            s.encode_frame(),
            p.encode_frame(),
            "req {i}: answer bytes differ"
        );
    }
    handle.shutdown();
}

/// A database whose whole-region replies overrun the socket: one visible
/// `notes` text of `len` bytes under the first patient.
fn hosted_with_notes(len: usize) -> (Client, Server) {
    let doc = Document::parse(&format!(
        "<hospital><patient><pname>Betty</pname><notes>{}</notes></patient>\
         <patient><pname>Matt</pname></patient></hospital>",
        "n".repeat(len)
    ))
    .unwrap();
    let cs = vec![SecurityConstraint::parse("//pname").unwrap()];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 77)
        .unwrap()
        .split()
}

/// Three whole-region queries pipelined on one socket by a client that
/// reads nothing until the server has run them all. Each reply is larger
/// than the socket takes (6 MB against the ~4 MB a loopback peer that is
/// not reading accepts), so the first is left partly written and the second
/// and third are queued behind it rather than handed over: the replies
/// still arrive whole, in request order, byte-identical to serial.
#[test]
fn replies_queued_behind_a_partly_written_one_arrive_whole_and_in_order() {
    let (client, server) = hosted_with_notes(6 << 20);
    let registry = registry_with(&client, server);
    let tenant = registry.get("main").unwrap();
    // One worker, so replies complete in the order the requests came.
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start_event(registry, config);
    let reqs: Vec<Message> = ["/hospital", "/hospital/patient", "//patient/notes"]
        .iter()
        .map(|q| Message::Query(client.translate(q).unwrap().server_query.unwrap()))
        .collect();

    let mut serial = TcpTransport::connect_default(handle.addr()).unwrap();
    let serial_replies: Vec<Message> = reqs.iter().map(|r| serial.roundtrip(r).unwrap()).collect();
    drop(serial);

    let served = tenant.requests_total();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for (i, req) in reqs.iter().enumerate() {
        let frame = req.encode_frame_req(PROTOCOL_VERSION, 0, i as u64 + 1);
        stream.write_all(&frame).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while tenant.requests_total() < served + 3 || tenant.inflight() > 0 {
        assert!(Instant::now() < deadline, "the server never ran all three");
        std::thread::sleep(Duration::from_millis(5));
    }

    for (i, want) in serial_replies.iter().enumerate() {
        let d = Message::decode_frame_ext(&read_frame(&mut stream).unwrap()).unwrap();
        assert_eq!(d.req_id, i as u64 + 1, "reply {i} out of request order");
        let Message::Answer(resp) = &d.msg else {
            panic!("reply {i} is not an Answer: {:?}", d.msg);
        };
        assert!(
            resp.pruned_xml.len() > 6 << 20,
            "reply {i} is not a whole region"
        );
        assert_eq!(
            canon(&d.msg).encode_frame(),
            canon(want).encode_frame(),
            "reply {i}: bytes differ from serial"
        );
    }
    handle.shutdown();
}

// -------------------------------------------------------- retry under load

/// `Retry` over a pipelined window keeps stable ids across `Busy`
/// resubmissions and eventually lands every answer even when admission
/// sheds most of the in-flight window — without ever re-dialling a link
/// that only said `Busy`.
#[test]
fn pipelined_retry_recovers_from_busy() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let config = ServeConfig {
        workers: 4,
        max_inflight: 1,
        cache_entries: Some(0), // no cache-hit promotion past admission
        retry_after: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let handle = start_event(registry, config);

    let reqs: Vec<Message> = query_requests(&client)
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let mut link = Retry::new(
        TcpTransport::connect_default(handle.addr()).unwrap(),
        RetryConfig {
            max_attempts: 20,
            base_backoff: Duration::from_millis(2),
            ..RetryConfig::default()
        },
    );
    let replies = link.roundtrip_many(&reqs).unwrap();
    assert_eq!(link.retry_stats().reconnects, 0, "{:?}", link.retry_stats());
    assert_eq!(replies.len(), reqs.len());
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            matches!(reply, Message::Answer(_)),
            "req {i} never got past Busy: {reply:?}"
        );
    }
    handle.shutdown();
}

// ------------------------------------------------------------ write stalls

/// A peer that submits work and never reads the replies is dropped within
/// the write-stall budget instead of growing the write buffer forever.
/// Detection: after the stall window, draining the socket must terminate
/// in EOF/reset, not in an endless stream of timeouts.
#[test]
fn stalled_reader_is_dropped_within_budget() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let io_timeout = Duration::from_millis(400);
    let config = ServeConfig {
        workers: 2,
        io_timeout,
        accept_backlog: 10_000, // let every request dispatch; the stall is on writes
        ..ServeConfig::default()
    };
    let handle = start_event(registry, config);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // NaiveQuery ships the whole sealed database per reply — the
    // cheapest way to overrun every socket buffer in the path. Enough
    // of them to exceed any auto-tuned kernel buffer by a wide margin.
    // Written from a helper thread: once every buffer in the path is
    // full our own sends may block until the drop resets the
    // connection.
    let mut wstream = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        for i in 0..20_000u64 {
            let frame = Message::NaiveQuery.encode_frame_req(PROTOCOL_VERSION, 0, i + 1);
            if wstream.write_all(&frame).is_err() {
                return; // connection dropped mid-send: that's the point
            }
        }
    });
    // Never read. Give the server time to fill the buffers and trip
    // the write-stall budget.
    std::thread::sleep(io_timeout * 4);

    // Drain: buffered replies arrive, then EOF or reset — within a
    // bounded number of reads. A server still pinned on the write
    // would instead time out here forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = vec![0u8; 1 << 16];
    let dropped = loop {
        if Instant::now() > deadline {
            break false;
        }
        match stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => {}
            Err(e)
                if e.kind() == ErrorKind::ConnectionReset || e.kind() == ErrorKind::BrokenPipe =>
            {
                break true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break false
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
    };
    assert!(dropped, "stalled reader was not dropped");
    writer.join().unwrap();
    handle.shutdown();
    let _ = client;
}

/// After dropping a stalled reader the server keeps serving fresh clients.
#[test]
fn server_survives_stalled_reader() {
    let (client, server) = hosted();
    let registry = registry_with(&client, server);
    let config = ServeConfig {
        workers: 2,
        io_timeout: Duration::from_millis(300),
        accept_backlog: 10_000,
        ..ServeConfig::default()
    };
    let handle = start_event(registry, config);

    let mut staller = TcpStream::connect(handle.addr()).unwrap();
    for i in 0..2000usize {
        let frame = Message::NaiveQuery.encode_frame_req(PROTOCOL_VERSION, 0, i as u64 + 1);
        staller.write_all(&frame).unwrap();
    }
    std::thread::sleep(Duration::from_millis(900));

    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    let out = client.query_via(&mut tcp, "//patient/pname").unwrap();
    assert_eq!(out.results.len(), 3);
    drop(staller);
    handle.shutdown();
}
