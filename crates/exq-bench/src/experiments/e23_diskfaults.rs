//! E23 — extension: disk-fault torture — crash-consistency cycles and
//! availability/goodput under injected storage faults.
//!
//! Not a paper figure: PR 10 gives the paged engine a pluggable VFS with a
//! deterministic fault injector ([`exq_store::FaultVfs`]), a self-healing
//! scrubber, and per-db degraded modes. This experiment closes the loop on
//! both halves of that contract:
//!
//! * **Kill-and-recover cycles**: the engine runs entirely on the
//!   in-memory fault VFS; every cycle arms a seeded power cut at a random
//!   VFS operation inside a mutation + checkpoint script, then revives,
//!   reopens, and verifies the recovered image against a fault-free
//!   in-memory twin. The bar is absolute: zero acknowledged-mutation
//!   loss, every recovered state bit-identical to the twin at the acked
//!   prefix (or prefix+1 when the cut landed after an in-flight
//!   mutation's WAL fsync — durable-but-unacked is legal, partial never).
//! * **Availability vs fault rate**: a paged tenant served over real TCP
//!   while the VFS fails a swept per-mille of all writes — up to and
//!   including 100%, the acceptance case. Mutations that lose their WAL
//!   append flip the db Degraded and are shed with the typed
//!   `Unavailable` error; a `tend` pass (the checkpointer's health loop)
//!   re-probes and heals between attempts. Reads must keep flowing the
//!   whole time: read availability is asserted against a floor
//!   (`EXQ_E23_MIN_AVAILABILITY`, default 0.95) at every fault rate.
//!
//! Results land in `BENCH_e23_diskfaults.json`. `EXQ_E23_SMOKE=1` bounds
//! both loops for CI while keeping every assertion live.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::serve::ServeConfig;
use exq_core::store::{checkpoint_once, tend, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::{DbHealth, TenantRegistry};
use exq_core::transport::TcpTransport;
use exq_core::{Client, CoreError, Server};
use exq_store::{FaultConfig, FaultVfs};
use exq_xml::Document;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

const DB: &str = "e23";

fn smoke() -> bool {
    std::env::var("EXQ_E23_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// `(kill_cycles, ops_per_rate)` — smoke bounds both loops for CI.
fn scale() -> (u64, usize) {
    if smoke() {
        (40, 32)
    } else {
        (200, 120)
    }
}

fn availability_floor() -> f64 {
    std::env::var("EXQ_E23_MIN_AVAILABILITY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.95)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hosted(seed: u64) -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
            <patient><pname>Zoe</pname><SSN>112358</SSN><age>29</age>
              <insurance><policy coverage="10000">91111</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
    ];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, seed)
        .unwrap()
        .split()
}

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        page_size: 256,
        cache_bytes: 8192,
    }
}

const SCRIPT: &[&str] = &[
    "<patient><pname>Ada</pname><SSN>999111</SSN><age>36</age></patient>",
    "<patient><pname>Lin</pname><SSN>555000</SSN><age>50</age></patient>",
    "<patient><pname>Sam</pname><SSN>123987</SSN><age>61</age></patient>",
];

fn apply(client: &mut Client, server: &mut Server, i: usize) -> Result<(), CoreError> {
    client
        .insert(server, "/hospital", SCRIPT[i], 5 + i as u64)
        .map(|_| ())
}

/// One fault-free pass to size the kill window (VFS ops the script spans).
fn probe_ops(base_server: &[u8], base_client: &[u8]) -> u64 {
    let vfs = FaultVfs::new(0);
    let mut server = Server::load_bytes(base_server).unwrap();
    let mut client = Client::load_bytes(base_client).unwrap();
    let _db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        DB,
        tiny_opts(),
    )
    .unwrap();
    let start = vfs.ops();
    let lock = RwLock::new(server);
    for i in 0..SCRIPT.len() {
        apply(&mut client, &mut lock.write().unwrap(), i).unwrap();
        if i == 1 {
            checkpoint_once(&lock).unwrap();
        }
    }
    checkpoint_once(&lock).unwrap();
    vfs.ops() - start
}

struct CycleStats {
    cycles: u64,
    crashed: u64,
    durable_unacked: u64,
}

/// The kill-and-recover loop; panics on any acked loss or twin divergence.
fn kill_cycles(cycles: u64, base_server: &[u8], base_client: &[u8]) -> CycleStats {
    let window = probe_ops(base_server, base_client);
    let mut stats = CycleStats {
        cycles,
        crashed: 0,
        durable_unacked: 0,
    };
    for cycle in 0..cycles {
        let vfs = FaultVfs::new(cycle);
        let mut server = Server::load_bytes(base_server).unwrap();
        let mut client = Client::load_bytes(base_client).unwrap();
        let mut twin_client = Client::load_bytes(base_client).unwrap();
        let mut twin = Server::load_bytes(base_server).unwrap();
        let db = PagedDb::attach_new_with(
            &mut server,
            Arc::new(vfs.clone()),
            Path::new("/db"),
            DB,
            tiny_opts(),
        )
        .unwrap();
        vfs.crash_at_op(vfs.ops() + 1 + splitmix(cycle) % window);

        let lock = RwLock::new(server);
        let mut acked = 0usize;
        let mut in_flight = None;
        for i in 0..SCRIPT.len() {
            match apply(&mut client, &mut lock.write().unwrap(), i) {
                Ok(()) => {
                    apply(&mut twin_client, &mut twin, i).unwrap();
                    acked += 1;
                }
                Err(_) => {
                    in_flight = Some(i);
                    break;
                }
            }
            if i == 1 {
                let _ = checkpoint_once(&lock);
            }
        }
        if in_flight.is_none() {
            let _ = checkpoint_once(&lock);
        }
        if vfs.crashed() {
            stats.crashed += 1;
        }
        drop(lock);
        drop(db);

        vfs.revive();
        let (recovered, _rdb, _) =
            PagedDb::open_with(Arc::new(vfs.clone()), Path::new("/db"), DB, tiny_opts())
                .unwrap_or_else(|e| panic!("cycle {cycle}: recovery open failed: {e}"));
        let got = recovered.save_bytes().unwrap();
        let aligned = if got == twin.save_bytes().unwrap() {
            true
        } else if let Some(i) = in_flight {
            apply(&mut twin_client, &mut twin, i).unwrap();
            let durable = got == twin.save_bytes().unwrap();
            if durable {
                stats.durable_unacked += 1;
            }
            durable
        } else {
            false
        };
        assert!(
            aligned,
            "cycle {cycle}: recovered state matches neither {acked} acked \
             mutations nor acked+in-flight — an acknowledged mutation was lost \
             or a partial one surfaced"
        );
    }
    assert!(
        stats.crashed > cycles / 2,
        "only {}/{cycles} cycles saw a power cut — the kill window missed",
        stats.crashed
    );
    stats
}

struct RateStats {
    reads: u64,
    reads_ok: u64,
    mut_ok: u64,
    mut_shed: u64,
    mut_failed: u64,
    goodput: f64,
    degraded_seen: bool,
}

/// One availability sweep point: `ops` read/mutate operations over TCP with
/// `per_mille` of all VFS writes failing, `tend` healing after each trip.
#[allow(clippy::too_many_lines)]
fn sweep_rate(seed: u64, per_mille: u16, ops: usize) -> RateStats {
    let (mut client, server0) = hosted(seed);
    let mut server = Server::load_bytes(&server0.save_bytes().unwrap()).unwrap();
    let vfs = FaultVfs::new(seed ^ u64::from(per_mille));
    let _db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        DB,
        tiny_opts(),
    )
    .unwrap();
    let shared = Arc::new(RwLock::new(server));
    let registry = Arc::new(TenantRegistry::single(DB, Arc::clone(&shared)).unwrap());
    let tenant = registry.tenants().pop().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve_event(listener, Arc::clone(&registry), ServeConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();

    let baseline = client
        .query_via(&mut tcp, "//patient/pname")
        .expect("baseline read")
        .results;

    vfs.set_config(FaultConfig {
        write_err_per_mille: per_mille,
        ..FaultConfig::default()
    });
    let mut stats = RateStats {
        reads: 0,
        reads_ok: 0,
        mut_ok: 0,
        mut_shed: 0,
        mut_failed: 0,
        goodput: 0.0,
        degraded_seen: false,
    };
    let mut expected = baseline.len();
    let started = Instant::now();
    for i in 0..ops {
        if i % 4 == 3 {
            let record = format!(
                "<patient><pname>P{per_mille}x{i}</pname>\
                 <SSN>5{per_mille:03}{i:04}</SSN><age>33</age></patient>"
            );
            match client.insert_via(&mut tcp, "/hospital", &record, seed ^ (i as u64) << 4) {
                Ok(_) => {
                    stats.mut_ok += 1;
                    expected += 1;
                }
                Err(e) if format!("{e}").contains("unavailable") => stats.mut_shed += 1,
                Err(_) => stats.mut_failed += 1,
            }
            if tenant.health() != DbHealth::Healthy {
                stats.degraded_seen = true;
                // The checkpointer's health loop: probe the disk, recover
                // the db read-write if the probe holds.
                tend(&tenant);
            }
        } else {
            stats.reads += 1;
            match client.query_via(&mut tcp, "//patient/pname") {
                // A failed mutation was rejected by the server; acked
                // inserts (and only those) must be visible to readers.
                Ok(out) if out.results.len() == expected => stats.reads_ok += 1,
                Ok(_) | Err(_) => {}
            }
        }
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    stats.goodput = (stats.reads_ok + stats.mut_ok) as f64 / wall;
    vfs.set_config(FaultConfig::default());
    handle.shutdown();
    stats
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let (cycles, ops_per_rate) = scale();
    let floor = availability_floor();

    // ---- Part 1: seeded kill-and-recover cycles.
    let (client0, server0) = hosted(cfg.seed ^ 0x23);
    let base_server = server0.save_bytes().unwrap();
    let base_client = client0.save_bytes();
    let stats = kill_cycles(cycles, &base_server, &base_client);

    let mut t_kill = Table::new(
        "e23_crash_cycles",
        &format!(
            "seeded power cut at a random VFS op inside a 3-mutation + checkpoint \
             script, revive, reopen, verify vs a fault-free twin ({cycles} cycles)"
        ),
        &[
            "cycles",
            "power cuts",
            "acked lost",
            "durable-unacked",
            "verdict",
        ],
    );
    t_kill.row(vec![
        stats.cycles.to_string(),
        stats.crashed.to_string(),
        "0".into(),
        stats.durable_unacked.to_string(),
        "bit-identical".into(),
    ]);

    // ---- Part 2: availability and goodput vs injected write-fault rate.
    let rates: &[u16] = if smoke() {
        &[0, 50, 1000]
    } else {
        &[0, 10, 50, 200, 1000]
    };
    let mut t_avail = Table::new(
        "e23_availability",
        &format!(
            "paged tenant over TCP, {ops_per_rate} ops per rate (1 insert per 4 reads); \
             write faults injected at the VFS, `tend` heals between mutation attempts; \
             read availability floor {floor}"
        ),
        &[
            "write faults (‰)",
            "reads ok",
            "availability",
            "inserts ok",
            "shed (unavailable)",
            "failed",
            "goodput (ops/s)",
        ],
    );
    let mut rate_rows = Vec::new();
    for (ri, &per_mille) in rates.iter().enumerate() {
        let s = sweep_rate(cfg.seed ^ 0x2300 ^ ri as u64, per_mille, ops_per_rate);
        let availability = s.reads_ok as f64 / (s.reads as f64).max(1.0);
        assert!(
            availability >= floor,
            "{per_mille}‰ write faults: read availability {availability:.3} fell \
             below the {floor} floor — degraded mode is not protecting reads"
        );
        if per_mille == 1000 {
            assert_eq!(
                s.mut_ok, 0,
                "100% write failure must not acknowledge any mutation"
            );
            assert!(
                s.degraded_seen,
                "100% write failure never flipped the db Degraded"
            );
        }
        t_avail.row(vec![
            per_mille.to_string(),
            format!("{}/{}", s.reads_ok, s.reads),
            format!("{availability:.3}"),
            s.mut_ok.to_string(),
            s.mut_shed.to_string(),
            s.mut_failed.to_string(),
            format!("{:.1}", s.goodput),
        ]);
        rate_rows.push(format!(
            "    {{ \"write_err_per_mille\": {per_mille}, \"reads\": {}, \
             \"reads_ok\": {}, \"availability\": {availability:.4}, \
             \"mutations_ok\": {}, \"mutations_shed\": {}, \"mutations_failed\": {}, \
             \"goodput_ops_per_s\": {:.2}, \"degraded_seen\": {} }}",
            s.reads, s.reads_ok, s.mut_ok, s.mut_shed, s.mut_failed, s.goodput, s.degraded_seen
        ));
    }

    if cfg.write_root_artifacts {
        let json = format!(
            "{{\n  \"experiment\": \"e23_diskfaults\",\n  \"smoke\": {},\n  \
             \"crash_cycles\": {{ \"cycles\": {}, \"power_cuts\": {}, \
             \"acked_mutations_lost\": 0, \"durable_unacked\": {}, \
             \"bit_identical_vs_twin\": true }},\n  \
             \"availability_floor\": {floor},\n  \"rates\": [\n{}\n  ]\n}}\n",
            smoke(),
            stats.cycles,
            stats.crashed,
            stats.durable_unacked,
            rate_rows.join(",\n"),
        );
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_e23_diskfaults.json"
        );
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e23: could not write {out}: {e}");
        }
    }

    vec![t_kill, t_avail]
}
