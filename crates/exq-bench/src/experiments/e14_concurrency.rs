//! E14 — extension: concurrent clients against one networked server.
//!
//! Not a paper figure (the paper's testbed is one client, one server), but
//! the question the transport layer exists to answer: with the server
//! behind a real TCP event loop and a worker pool, how does aggregate
//! query throughput scale with the number of concurrent clients? Read-only
//! queries share the server's read lock, so throughput should rise with
//! client count until the worker pool or the structural-join CPU saturates.

use crate::report::{fmt_bytes, Table};
use crate::ExpConfig;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::{serve, ServeConfig, TcpTransport};
use exq_workload::hospital;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "e14_concurrency",
        "Concurrent clients vs one TCP server (hospital workload, opt scheme)",
        &[
            "clients",
            "queries",
            "wall time (ms)",
            "queries/sec",
            "bytes/query",
        ],
    );
    let doc = hospital::document();
    let cs = hospital::constraints();
    let hosted = Outsourcer::new(OutsourceConfig::modern())
        .outsource(&doc, &cs, SchemeKind::Opt, cfg.seed)
        .expect("outsource");
    let (client, server) = hosted.split();
    let client = Arc::new(client);
    let shared = Arc::new(RwLock::new(server));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        Arc::clone(&shared),
        ServeConfig {
            workers: 8,
            // Throughput of real recomputation: repeat trials must not
            // degenerate into response-cache hits (e16 measures those).
            cache_entries: Some(0),
            ..ServeConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    let queries = [
        "//patient/pname",
        "//patient[pname = 'Betty']/age",
        "//policy",
        "//patient[.//policy/@coverage = 1000000]",
    ];
    let per_client = (cfg.trials.max(1) * queries.len()).max(8);

    for clients in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let mut link = TcpTransport::connect_default(addr).expect("connect");
                    let mut bytes = 0u64;
                    for i in 0..per_client {
                        let q = queries[(c + i) % queries.len()];
                        let out = client.query_via(&mut link, q).expect("query");
                        assert!(!out.naive_fallback, "workload must stay on secure path");
                        bytes += (out.bytes_to_server + out.bytes_to_client) as u64;
                    }
                    bytes
                })
            })
            .collect();
        let total_bytes: u64 = workers.into_iter().map(|w| w.join().expect("client")).sum();
        let wall = start.elapsed();
        let total_queries = clients * per_client;
        let qps = total_queries as f64 / wall.as_secs_f64();
        t.row(vec![
            clients.to_string(),
            total_queries.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{qps:.0}"),
            fmt_bytes((total_bytes / total_queries as u64) as usize),
        ]);
    }
    handle.shutdown();
    vec![t]
}
