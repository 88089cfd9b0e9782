//! Chaos suite: the fault-tolerance layer under seeded fault injection.
//!
//! The contract being enforced, at every seed and fault rate:
//!
//! * a query either returns the **bit-identical** fault-free answer or a
//!   typed [`CoreError`] once the retry budget is spent — never a panic,
//!   hang, or silently different answer;
//! * a retried mutation is applied **exactly once** (the server replay
//!   table dedupes replays whose original reply was lost);
//! * a saturated server answers `Busy` within the deadline instead of
//!   queueing unboundedly.

use exq_core::codec::Message;
use exq_core::constraints::SecurityConstraint;
use exq_core::fault::{ChaosProxy, FaultConfig, FaultTransport, ProxyFaults};
use exq_core::retry::{Retry, RetryConfig};
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::{serve, InProcess, ServeConfig, TcpTransport, Transport};
use exq_core::{Client, CoreError, Server};
use exq_xml::Document;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

fn hospital(patients: usize) -> Document {
    let mut xml = String::from("<hospital>");
    let diseases = ["flu", "measles", "leukemia", "diarrhea", "asthma"];
    for i in 0..patients {
        let age = 20 + (i * 7) % 60;
        let coverage = 1000 * (1 + (i * 13) % 900);
        xml.push_str(&format!(
            "<patient id=\"{i}\"><pname>P{i}</pname><SSN>{:06}</SSN><age>{age}</age>\
             <treat><disease>{}</disease><doctor>D{}</doctor></treat>\
             <insurance><policy coverage=\"{coverage}\">{:05}</policy></insurance>\
             </patient>",
            100000 + i * 37,
            diseases[i % diseases.len()],
            (i / 2) % 5,
            10000 + i * 11,
        ));
    }
    xml.push_str("</hospital>");
    Document::parse(&xml).unwrap()
}

fn constraints() -> Vec<SecurityConstraint> {
    [
        "//insurance",
        "//patient:(/pname, /SSN)",
        "//treat:(/disease, /doctor)",
    ]
    .iter()
    .map(|s| SecurityConstraint::parse(s).unwrap())
    .collect()
}

fn hosted(patients: usize) -> (Client, Server) {
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&hospital(patients), &constraints(), SchemeKind::Opt, 23)
        .unwrap()
        .split()
}

const QUERIES: &[&str] = &[
    "//patient",
    "//patient/pname",
    "//patient[age = 27]/SSN",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//patient[.//policy/@coverage > 500000]/pname",
    "//treat[disease = 'leukemia']/doctor",
    "//nosuchtag",
];

const SEEDS: &[u64] = &[1, 7, 23, 911];

/// Replays the equivalence queries through `Retry<FaultTransport<InProcess>>`
/// at several seeds and fault rates. Completed answers must be bit-identical
/// to the fault-free run; failures must be typed errors.
#[test]
fn queries_survive_message_level_faults_bit_identically() {
    let (client, server) = hosted(24);

    // Fault-free reference results.
    let mut reference = Vec::new();
    for q in QUERIES {
        let mut link = InProcess::shared(&server);
        reference.push(client.run(&mut link, q).unwrap());
    }

    let mut total_faults = 0u64;
    let mut completed = 0u64;
    for &seed in SEEDS {
        for rate in [0.05, 0.15, 0.30] {
            let config = FaultConfig {
                seed: seed.wrapping_mul(1000) + (rate * 100.0) as u64,
                stall: Duration::from_millis(1),
                ..FaultConfig::uniform(seed, rate)
            };
            for (i, q) in QUERIES.iter().enumerate() {
                let faulty = FaultTransport::new(InProcess::shared(&server), config.clone());
                let mut link = Retry::new(
                    faulty,
                    RetryConfig {
                        max_attempts: 6,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(4),
                        jitter_seed: seed,
                        ping_before_retry: false,
                    },
                );
                match client.run(&mut link, q) {
                    Ok((_, resp, post)) => {
                        let (_, ref_resp, ref_post) = &reference[i];
                        assert_eq!(
                            resp.pruned_xml, ref_resp.pruned_xml,
                            "pruned_xml diverged for {q} at seed {seed} rate {rate}"
                        );
                        assert_eq!(
                            resp.blocks, ref_resp.blocks,
                            "block set diverged for {q} at seed {seed} rate {rate}"
                        );
                        assert_eq!(
                            post.results, ref_post.results,
                            "results diverged for {q} at seed {seed} rate {rate}"
                        );
                        completed += 1;
                    }
                    // Budget exhausted: must be a typed transient error, not
                    // a query/decrypt failure (those would mean a corrupted
                    // frame slipped through as a wrong answer).
                    Err(e) => assert!(
                        matches!(e, CoreError::Transport(_) | CoreError::Codec(_)),
                        "unexpected error class for {q} at seed {seed} rate {rate}: {e:?}"
                    ),
                }
                total_faults += link.into_inner().tally().total();
            }
        }
    }
    assert!(
        total_faults > 50,
        "chaos schedule injected too few faults ({total_faults}) to mean anything"
    );
    assert!(
        completed > 0,
        "no query ever completed under faults — retry layer does not recover"
    );
}

/// Replayed mutations apply exactly once: a second `ApplyInsert` carrying
/// the same request id (a replay after a lost reply) is answered from the
/// server's ledger, not re-applied.
#[test]
fn replayed_mutation_applies_exactly_once() {
    let (mut client, mut server) = hosted(4);
    let record = "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>";

    // Prepare a delta by hand so we control the frames.
    let (parent, slot, delta) = {
        let mut link = InProcess::exclusive(&mut server);
        let sq = client.translate("/hospital").unwrap().server_query.unwrap();
        let parent = link.locate(&sq).unwrap()[0];
        let slot = link.insertion_slot(parent).unwrap();
        let delta = client.prepare_insert(&slot, record, 5).unwrap();
        (parent, slot, delta)
    };
    let _ = (parent, slot);

    let count = |client: &Client, server: &Server| {
        let mut link = InProcess::shared(server);
        client
            .run(&mut link, "//patient/pname")
            .unwrap()
            .2
            .results
            .len()
    };
    let before = count(&client, &server);

    let mut link = InProcess::exclusive(&mut server);
    let insert = Message::ApplyInsert(delta);
    // First apply, under request id 42.
    assert_eq!(link.roundtrip_as(42, &insert).unwrap(), Message::InsertOk);
    // The reply was "lost"; the client replays with the same id.
    assert_eq!(link.roundtrip_as(42, &insert).unwrap(), Message::InsertOk);
    drop(link);
    assert_eq!(
        count(&client, &server),
        before + 1,
        "replayed insert must apply exactly once"
    );

    // Control: the same frame under a *fresh* id is a genuinely new
    // mutation and does apply again — the id, not the payload, is the key.
    let slot2 = {
        let mut link = InProcess::exclusive(&mut server);
        let sq = client.translate("/hospital").unwrap().server_query.unwrap();
        let parent = link.locate(&sq).unwrap()[0];
        link.insertion_slot(parent).unwrap()
    };
    let delta2 = client.prepare_insert(&slot2, record, 6).unwrap();
    let mut link = InProcess::exclusive(&mut server);
    link.roundtrip_as(43, &Message::ApplyInsert(delta2))
        .unwrap();
    drop(link);
    assert_eq!(count(&client, &server), before + 2);
}

/// End-to-end at-most-once under seeded response loss: every logical insert
/// that reports success exists exactly once, even though replies were
/// dropped and the retry layer replayed mutations.
#[test]
fn inserts_through_faulty_link_are_never_double_applied() {
    let (mut client, mut server) = hosted(4);
    let before = {
        let mut link = InProcess::shared(&server);
        client.run(&mut link, "//patient").unwrap().2.results.len()
    };

    let attempts = 6u32;
    let mut ok = 0usize;
    let mut dropped_responses = 0u64;
    for i in 0..attempts {
        let faulty = FaultTransport::new(
            InProcess::exclusive(&mut server),
            FaultConfig {
                seed: 0xFEED + i as u64,
                drop_request_rate: 0.10,
                drop_response_rate: 0.25,
                corrupt_rate: 0.0,
                stall_rate: 0.0,
                stall: Duration::ZERO,
            },
        );
        let mut link = Retry::new(
            faulty,
            RetryConfig {
                max_attempts: 8,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                jitter_seed: i as u64,
                ping_before_retry: false,
            },
        );
        let record =
            format!("<patient><pname>N{i}</pname><SSN>90{i:04}</SSN><age>3{i}</age></patient>");
        if client
            .insert_via(&mut link, "/hospital", &record, 100 + i as u64)
            .is_ok()
        {
            ok += 1;
        }
        dropped_responses += link.into_inner().tally().dropped_responses;
    }
    let after = {
        let mut link = InProcess::shared(&server);
        client.run(&mut link, "//patient").unwrap().2.results.len()
    };
    // Replies were genuinely lost after delivery (the dangerous case) …
    assert!(
        dropped_responses > 0,
        "schedule never exercised the lost-reply path"
    );
    // … yet the database grew by exactly the number of successful logical
    // inserts: nothing doubled, nothing ghost-applied.
    assert_eq!(
        after - before,
        ok,
        "insert count diverged: {ok} logical successes but {} new records",
        after - before
    );
    assert_eq!(
        ok as u32, attempts,
        "retry budget should recover every insert"
    );
}

/// The same bit-identical contract over a real socket, with the chaos proxy
/// cutting, corrupting, and stalling the byte stream.
#[test]
fn queries_survive_socket_level_chaos() {
    let (client, server) = hosted(16);
    let mut reference = Vec::new();
    for q in QUERIES {
        let mut link = InProcess::shared(&server);
        reference.push(client.run(&mut link, q).unwrap());
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        listener,
        Arc::new(RwLock::new(server)),
        ServeConfig {
            workers: 2,
            io_timeout: Duration::from_secs(2),
            cache_entries: Some(0),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    for &seed in &SEEDS[..3] {
        let proxy = ChaosProxy::start(
            handle.addr(),
            ProxyFaults {
                seed,
                cut_rate: 0.05,
                corrupt_rate: 0.05,
                stall_rate: 0.10,
                stall: Duration::from_millis(1),
            },
        )
        .unwrap();
        let tcp = TcpTransport::connect_default(proxy.addr()).unwrap();
        let mut link = Retry::new(
            tcp,
            RetryConfig {
                max_attempts: 8,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                jitter_seed: seed,
                ping_before_retry: true,
            },
        );
        for (i, q) in QUERIES.iter().enumerate() {
            match client.run(&mut link, q) {
                Ok((_, resp, post)) => {
                    let (_, ref_resp, ref_post) = &reference[i];
                    assert_eq!(resp.pruned_xml, ref_resp.pruned_xml, "{q} @ seed {seed}");
                    assert_eq!(resp.blocks, ref_resp.blocks, "{q} @ seed {seed}");
                    assert_eq!(post.results, ref_post.results, "{q} @ seed {seed}");
                }
                Err(e) => assert!(
                    matches!(e, CoreError::Transport(_) | CoreError::Codec(_)),
                    "unexpected error class for {q} at seed {seed}: {e:?}"
                ),
            }
        }
        proxy.shutdown();
    }
    handle.shutdown();
}

/// Serve → kill → restart on a new port → re-point the proxy → the same
/// client transport reconnects and answers bit-identically: the mid-session
/// reconnect path, end to end.
#[test]
fn client_survives_server_restart_via_reconnect() {
    let (client, server) = hosted(8);
    let reference = {
        let mut link = InProcess::shared(&server);
        client.run(&mut link, "//patient/pname").unwrap()
    };
    let bytes = server.save_bytes().unwrap();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        listener,
        Arc::new(RwLock::new(server)),
        ServeConfig::default(),
    )
    .unwrap();
    // A transparent proxy gives the client a stable address across the
    // server restart (the restarted listener lands on a fresh port).
    let proxy = ChaosProxy::start(handle.addr(), ProxyFaults::none(1)).unwrap();

    let tcp = TcpTransport::connect_default(proxy.addr()).unwrap();
    let mut link = Retry::new(
        tcp,
        RetryConfig {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 3,
            ping_before_retry: true,
        },
    );
    let (_, resp, post) = client.run(&mut link, "//patient/pname").unwrap();
    assert_eq!(post.results, reference.2.results);
    assert_eq!(resp.pruned_xml, reference.1.pruned_xml);

    // Kill the server; the link is now talking to a corpse.
    handle.shutdown();
    // Restart from the persisted artifact on a fresh port, re-point the
    // proxy, and the *same* client link recovers mid-session.
    let restarted = Server::load_bytes(&bytes).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle2 = serve(
        listener,
        Arc::new(RwLock::new(restarted)),
        ServeConfig::default(),
    )
    .unwrap();
    proxy.set_upstream(handle2.addr());

    let (_, resp2, post2) = client.run(&mut link, "//patient/pname").unwrap();
    assert_eq!(
        post2.results, reference.2.results,
        "post-restart answer diverged"
    );
    assert_eq!(resp2.pruned_xml, reference.1.pruned_xml);

    proxy.shutdown();
    handle2.shutdown();
}

/// Under `max_inflight` saturation (a writer hogging the server), requests
/// are answered `Busy` within the deadline instead of queueing unboundedly,
/// and liveness pings still answer instantly.
#[test]
fn saturated_server_sheds_busy_within_deadline() {
    let (client, server) = hosted(8);
    let sq = client
        .translate("//patient/pname")
        .unwrap()
        .server_query
        .unwrap();
    let server = Arc::new(RwLock::new(server));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let deadline = Duration::from_millis(60);
    let handle = serve(
        listener,
        Arc::clone(&server),
        ServeConfig {
            // One worker per live connection (pinger + 4 clients): the pool
            // must not be the bottleneck — admission control is under test.
            workers: 8,
            max_inflight: 1,
            deadline,
            retry_after: Duration::from_millis(10),
            cache_entries: Some(0),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Saturate: hold the write lock so every admitted query stalls on the
    // read lock until its deadline.
    let guard = match server.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };

    // Liveness probes bypass admission and the lock entirely.
    let mut pinger = TcpTransport::connect_default(handle.addr()).unwrap();
    let rtt = pinger.ping().unwrap();
    assert!(rtt < deadline, "ping should not queue behind the writer");

    // Fire concurrent queries; each must come back as the typed Busy frame
    // within deadline + generous slack — not hang.
    let mut clients: Vec<_> = (0..4)
        .map(|_| TcpTransport::connect_default(handle.addr()).unwrap())
        .collect();
    let started = Instant::now();
    let mut busy = 0;
    for link in &mut clients {
        match link.roundtrip(&Message::Query(sq.clone())).unwrap() {
            Message::Busy { retry_after_ms } => {
                assert!(retry_after_ms > 0);
                busy += 1;
            }
            other => panic!("expected Busy under saturation, got {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    assert_eq!(busy, 4);
    assert!(
        elapsed < deadline * 4 + Duration::from_secs(2),
        "Busy replies took {elapsed:?} — queueing instead of shedding"
    );

    // Release the writer: the same links now get real answers.
    drop(guard);
    for link in &mut clients {
        match link.roundtrip(&Message::Query(sq.clone())).unwrap() {
            Message::Answer(_) => {}
            other => panic!("expected Answer after release, got {other:?}"),
        }
    }
    handle.shutdown();
}

/// A retrying client rides through a transient `Busy` phase to the real
/// answer once the server frees up.
#[test]
fn retry_layer_waits_out_busy_phase() {
    let (client, server) = hosted(8);
    let reference = {
        let mut link = InProcess::shared(&server);
        client.run(&mut link, "//patient/pname").unwrap().2.results
    };
    let server = Arc::new(RwLock::new(server));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        listener,
        Arc::clone(&server),
        ServeConfig {
            max_inflight: 1,
            deadline: Duration::from_millis(30),
            retry_after: Duration::from_millis(20),
            cache_entries: Some(0),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A writer thread hogs the server briefly; it signals once it holds
    // the lock so the client's first attempt is guaranteed to land in the
    // busy phase.
    let (locked_tx, locked_rx) = std::sync::mpsc::channel();
    let writer_server = Arc::clone(&server);
    let unlocker = std::thread::spawn(move || {
        let guard = match writer_server.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        locked_tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        drop(guard);
    });
    locked_rx.recv().unwrap();

    let tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    let mut link = Retry::new(
        tcp,
        RetryConfig {
            max_attempts: 10,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 5,
            ping_before_retry: false,
        },
    );
    let (_, _, post) = client.run(&mut link, "//patient/pname").unwrap();
    assert_eq!(post.results, reference);
    assert!(
        link.retry_stats().busy >= 1,
        "expected at least one Busy before the answer: {:?}",
        link.retry_stats()
    );
    unlocker.join().unwrap();
    handle.shutdown();
}
