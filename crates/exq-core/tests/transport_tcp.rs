//! End-to-end tests over a real socket: a server behind [`serve`] on an
//! ephemeral port must be indistinguishable from the in-process link —
//! same results, same exact byte counts, mutations and aggregates
//! included — and must survive hostile framing without dying.

use exq_core::aggregate::Aggregate;
use exq_core::codec::{Message, FRAME_HEADER_LEN};
use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::{
    serve, InProcess, ServeConfig, ServeHandle, TcpConfig, TcpTransport, Transport,
};
use exq_core::{Client, CoreError, Server};
use exq_xml::Document;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, RwLock};

mod common;

fn hosted() -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
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

fn start(server: Server) -> (ServeHandle, Arc<RwLock<Server>>) {
    let shared = Arc::new(RwLock::new(server));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(listener, Arc::clone(&shared), ServeConfig::default()).unwrap();
    (handle, shared)
}

#[test]
fn tcp_matches_in_process_results_and_bytes() {
    let (client, server) = hosted();
    let reference = server.clone();
    let (handle, _shared) = start(server);
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    let mut local = InProcess::shared(&reference);

    for q in [
        "//patient/pname",
        "//patient[pname = 'Betty']/age",
        "//patient[.//policy/@coverage = 5000]/pname",
        "//insurance",
        "//nosuchtag",
    ] {
        let over_tcp = client.query_via(&mut tcp, q).unwrap();
        let in_proc = client.query_via(&mut local, q).unwrap();
        assert_eq!(over_tcp.results, in_proc.results, "results differ for {q}");
        assert_eq!(
            over_tcp.bytes_to_server, in_proc.bytes_to_server,
            "request bytes differ for {q}"
        );
        assert_eq!(
            over_tcp.bytes_to_client, in_proc.bytes_to_client,
            "response bytes differ for {q}"
        );
    }
    // Both links saw identical cumulative traffic.
    assert_eq!(tcp.stats(), local.stats());
    handle.shutdown();
}

#[test]
fn naive_fallback_runs_over_tcp() {
    let (client, server) = hosted();
    let (handle, _shared) = start(server);
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    // `parent::` is not server-evaluable; the client transparently falls
    // back to shipping the whole database in a NaiveQuery round trip.
    let out = client.query_via(&mut tcp, "//age/parent::patient").unwrap();
    assert!(out.naive_fallback);
    assert_eq!(out.results.len(), 2);
    handle.shutdown();
}

#[test]
fn aggregates_run_over_tcp() {
    let (client, server) = hosted();
    let reference = server.clone();
    let (handle, _shared) = start(server);
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();

    for (path, agg) in [
        ("//policy/@coverage", Aggregate::Max),
        ("//policy/@coverage", Aggregate::Min),
        ("//patient", Aggregate::Count),
        ("//age", Aggregate::Max),
    ] {
        let over_tcp = client.aggregate_via(&mut tcp, path, agg).unwrap();
        let in_proc = client.aggregate(&reference, path, agg).unwrap();
        assert_eq!(over_tcp.value, in_proc.value, "{path} {agg:?}");
    }
    handle.shutdown();
}

#[test]
fn mutations_run_over_tcp() {
    let (mut client, server) = hosted();
    let (handle, shared) = start(server);
    let record = r#"<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age>
        <insurance><policy coverage="7500">55555</policy></insurance></patient>"#;

    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    client.insert_via(&mut tcp, "/hospital", record, 9).unwrap();
    let out = client.query_via(&mut tcp, "//patient/age").unwrap();
    assert_eq!(out.results.len(), 3);
    let out = client
        .query_via(&mut tcp, "//patient[pname = 'Zoe']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);

    let deleted = client.delete_via(&mut tcp, "//patient[age = 40]").unwrap();
    assert_eq!(deleted.deleted, 1);
    let out = client.query_via(&mut tcp, "//patient/age").unwrap();
    assert_eq!(out.results.len(), 2);

    handle.shutdown();
    // The mutations really landed in the shared server state.
    assert!(shared.read().unwrap().block_count() > 0);
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (client, server) = hosted();
    let (handle, _shared) = start(server);
    let addr = handle.addr();
    let client = Arc::new(client);

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut tcp = TcpTransport::connect_default(addr).unwrap();
                for _ in 0..5 {
                    let out = client
                        .query_via(&mut tcp, "//patient[pname = 'Betty']/age")
                        .unwrap();
                    assert_eq!(out.results, ["<age>35</age>"]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn garbage_framing_gets_error_frame_then_close() {
    let (_, server) = hosted();
    let (handle, _shared) = start(server);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();

    // Valid length, bogus magic: the server answers with one error frame
    // and hangs up (framing cannot be resynchronized).
    raw.write_all(b"XXzz\x00\x00\x00\x00").unwrap();
    raw.flush().unwrap();
    assert!(
        matches!(read_message(&mut raw), Message::Error(_)),
        "expected an error frame"
    );
    // Connection is closed afterwards.
    let n = raw.read(&mut [0u8; 8]).unwrap();
    assert_eq!(n, 0, "server should close after a framing error");

    // The server is still alive for well-behaved clients.
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    assert!(tcp.send_naive().is_ok());
    handle.shutdown();
}

/// A client speaking the current dialect whose header cannot be accepted
/// (here: a 3 GiB length prefix, refused before anything is allocated) is
/// answered in that same dialect — version byte, framing fields, checksum —
/// so its decoder can read why.
#[test]
fn oversize_header_from_a_current_client_is_answered_in_its_dialect() {
    use exq_core::codec::PROTOCOL_VERSION;
    let (_, server) = hosted();
    let (handle, _shared) = start(server);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();

    let mut header = Vec::new();
    header.extend_from_slice(b"EQ");
    header.push(PROTOCOL_VERSION);
    header.push(0x01);
    header.extend_from_slice(&(3_000_000_000u32).to_le_bytes());
    raw.write_all(&header).unwrap();
    raw.flush().unwrap();

    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert_eq!(
        reply[2], PROTOCOL_VERSION,
        "reply must be in the one dialect"
    );
    // `decode_frame` verifies the checksum.
    match Message::decode_frame(&reply) {
        Ok(Message::Error(e)) => assert!(e.message.contains("exceeds cap"), "{}", e.message),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    handle.shutdown();
}

fn start_with(server: Server, config: ServeConfig) -> ServeHandle {
    let shared = Arc::new(RwLock::new(server));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(listener, shared, config).unwrap()
}

/// Reads and decodes one response frame off a raw stream.
fn read_message(raw: &mut TcpStream) -> Message {
    Message::decode_frame(&common::read_frame(raw).unwrap()).unwrap()
}

#[test]
fn dribbling_writer_is_served_but_mid_frame_staller_is_dropped() {
    let (_, server) = hosted();
    let handle = start_with(
        server,
        ServeConfig {
            workers: 2,
            io_timeout: std::time::Duration::from_millis(400),
            threads: 1,
            ..ServeConfig::default()
        },
    );

    // A dribbling but live writer: one byte every 25 ms. Each byte of
    // progress resets the mid-frame deadline, so the whole frame lands even
    // though total delivery time (~frame_len * 25 ms) exceeds io_timeout.
    let frame = Message::NaiveQuery.encode_frame();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    for b in &frame {
        raw.write_all(std::slice::from_ref(b)).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(
        matches!(read_message(&mut raw), Message::Answer(_)),
        "dribbling writer must still get its answer"
    );

    // A mid-frame staller: half a header, then silence. Once io_timeout
    // elapses with no progress the server drops the connection.
    let mut stalled = TcpStream::connect(handle.addr()).unwrap();
    stalled.write_all(&frame[..FRAME_HEADER_LEN / 2]).unwrap();
    stalled.flush().unwrap();
    stalled
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    let start = std::time::Instant::now();
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "stalled mid-frame peer must be disconnected");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(4),
        "drop must come from io_timeout, not the test's own read timeout"
    );
    handle.shutdown();
}

#[test]
fn idle_between_frames_is_never_dropped() {
    let (_, server) = hosted();
    let handle = start_with(
        server,
        ServeConfig {
            workers: 1,
            io_timeout: std::time::Duration::from_millis(150),
            threads: 1,
            ..ServeConfig::default()
        },
    );

    // Idle well past io_timeout *between* frames: the connection must
    // survive, because the budget only applies once a frame has started.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(600));
    raw.write_all(&Message::NaiveQuery.encode_frame()).unwrap();
    raw.flush().unwrap();
    assert!(matches!(read_message(&mut raw), Message::Answer(_)));

    // And again: a second idle gap on the same connection.
    std::thread::sleep(std::time::Duration::from_millis(400));
    raw.write_all(&Message::NaiveQuery.encode_frame()).unwrap();
    raw.flush().unwrap();
    assert!(matches!(read_message(&mut raw), Message::Answer(_)));
    handle.shutdown();
}

/// A reply that comes back after its request timed out is never taken as
/// the answer to the next request on the same link: that one gets its own
/// answer or a transport error.
#[test]
fn late_reply_is_never_taken_for_the_next_request() {
    use std::time::Duration;
    let (client, server) = hosted();
    let (handle, shared) = start(server);
    let sq = |q: &str| client.translate(q).unwrap().server_query.unwrap();
    let (a, b) = (sq("//patient/pname"), sq("//patient[pname = 'Betty']/age"));
    let mut fresh = TcpTransport::connect_default(handle.addr()).unwrap();
    let want_b = fresh.send_query(&b).unwrap();
    assert_ne!(fresh.send_query(&a).unwrap().pruned_xml, want_b.pruned_xml);

    let config = TcpConfig {
        io_timeout: Duration::from_millis(200),
        ..TcpConfig::default()
    };
    let mut tcp = TcpTransport::connect(handle.addr(), config).unwrap();
    let writer = shared.write().unwrap();
    let err = tcp.send_query(&a).unwrap_err();
    assert!(
        matches!(err, CoreError::Transport(_)),
        "A must time out: {err:?}"
    );
    drop(writer);
    // A's answer is now on its way; B goes out behind it.
    std::thread::sleep(Duration::from_millis(100));
    match tcp.send_query(&b) {
        Ok(resp) => assert_eq!(
            resp.pruned_xml, want_b.pruned_xml,
            "B answered with A's reply"
        ),
        Err(CoreError::Transport(_)) => {}
        Err(e) => panic!("expected B's answer or a transport error, got {e:?}"),
    }
    handle.shutdown();
}
