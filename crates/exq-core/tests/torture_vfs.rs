//! VFS-level crash torture: run the paged engine on the in-memory
//! [`FaultVfs`], kill the "machine" at a seeded random VFS operation,
//! revive, reopen, and verify against a fault-free in-memory twin — over
//! and over. The contract under test is the ISSUE's acceptance bar:
//!
//! * zero acknowledged-mutation loss: every mutation whose call returned
//!   `Ok` is present after recovery, bit-identically;
//! * an unacknowledged in-flight mutation may be either absent (torn WAL
//!   tail dropped) or durable (crash after the fsync) — never partial;
//! * a store that survived a power cut stays fully usable: the next
//!   mutation and checkpoint behave exactly like the twin's.
//!
//! A second battery proves the degraded-mode story end to end over TCP:
//! under 100% injected WAL-write failure the db keeps serving reads, sheds
//! mutations with the typed `Unavailable` wire error (code 10, carrying a
//! retry-after hint), and recovers to `Healthy` once the fault clears.

use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::serve::ServeConfig;
use exq_core::store::{checkpoint_once, scrub_once, tend, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::{DbHealth, TenantRegistry};
use exq_core::transport::TcpTransport;
use exq_core::{Client, CoreError, Server};
use exq_store::{FaultConfig, FaultVfs};
use exq_xml::Document;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, RwLock};

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        page_size: 256,
        cache_bytes: 4096,
    }
}

fn hosted() -> (Client, Server) {
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
        .outsource(&doc, &cs, SchemeKind::Opt, 31)
        .unwrap()
        .split()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

enum Mut {
    Insert(&'static str),
    Delete(&'static str),
}

/// The per-cycle mutation script; a checkpoint is attempted after index 1
/// and after the last mutation so kills land inside the checkpointer too.
const SCRIPT: &[Mut] = &[
    Mut::Insert("<patient><pname>Ada</pname><SSN>999111</SSN><age>36</age></patient>"),
    Mut::Delete("//patient[age = 40]"),
    Mut::Insert("<patient><pname>Lin</pname><SSN>555000</SSN><age>50</age></patient>"),
    Mut::Insert("<patient><pname>Sam</pname><SSN>123987</SSN><age>61</age></patient>"),
];

fn apply(client: &mut Client, server: &mut Server, i: usize) -> Result<(), CoreError> {
    match &SCRIPT[i] {
        Mut::Insert(xml) => client
            .insert(server, "/hospital", xml, 5 + i as u64)
            .map(|_| ()),
        Mut::Delete(q) => client.delete(server, q).map(|_| ()),
    }
}

/// One fault-free pass to learn how many VFS operations the mutation
/// script consumes — the window seeded kills are drawn from.
fn probe_ops(base_server: &[u8], base_client: &[u8]) -> u64 {
    let vfs = FaultVfs::new(0);
    let mut server = Server::load_bytes(base_server).unwrap();
    let mut client = Client::load_bytes(base_client).unwrap();
    let _db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        "tort",
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

/// ≥200 seeded kill-at-a-random-VFS-op → revive → reopen → verify cycles.
#[test]
fn seeded_power_cuts_lose_no_acknowledged_mutation() {
    const CYCLES: u64 = 220;
    let (client0, server0) = hosted();
    let base_server = server0.save_bytes().unwrap();
    let base_client = client0.save_bytes();
    let window = probe_ops(&base_server, &base_client);
    assert!(window > 20, "script consumes suspiciously few VFS ops");

    let mut crashed_cycles = 0u64;
    for cycle in 0..CYCLES {
        let vfs = FaultVfs::new(cycle);
        let mut server = Server::load_bytes(&base_server).unwrap();
        let mut client = Client::load_bytes(&base_client).unwrap();
        let mut twin_client = Client::load_bytes(&base_client).unwrap();
        let mut twin = Server::load_bytes(&base_server).unwrap();

        let db = PagedDb::attach_new_with(
            &mut server,
            Arc::new(vfs.clone()),
            Path::new("/db"),
            "tort",
            tiny_opts(),
        )
        .unwrap();
        // Kill at a seeded operation somewhere inside the script's window
        // (creation itself runs fault-free so every cycle starts equal).
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
                // Kills inside the checkpoint are part of the torture; the
                // next mutation surfaces the power cut if one landed here.
                let _ = checkpoint_once(&lock);
            }
        }
        if in_flight.is_none() {
            let _ = checkpoint_once(&lock);
        }
        if vfs.crashed() {
            crashed_cycles += 1;
        }
        drop(lock);
        drop(db);

        // "Replace the disk controller": un-wedge the VFS. Files roll back
        // to their last durable image, exactly like power-on after a cut.
        vfs.revive();
        let (recovered, rdb, _replay) =
            PagedDb::open_with(Arc::new(vfs.clone()), Path::new("/db"), "tort", tiny_opts())
                .unwrap_or_else(|e| panic!("cycle {cycle}: recovery open failed: {e}"));

        // Zero acked-mutation loss, bit-identically: the recovered image
        // must equal the twin at `acked` mutations — or, when a mutation
        // was in flight and the cut landed after its WAL fsync, the twin
        // plus that one mutation. Nothing else is survivable output.
        let got = recovered.save_bytes().unwrap();
        let aligned = if got == twin.save_bytes().unwrap() {
            true
        } else if let Some(i) = in_flight {
            apply(&mut twin_client, &mut twin, i).unwrap();
            got == twin.save_bytes().unwrap()
        } else {
            false
        };
        assert!(
            aligned,
            "cycle {cycle}: recovered state matches neither {acked} acked \
             mutations nor acked+in-flight (in_flight={in_flight:?})"
        );

        // The survivor stays fully usable: one more mutation + checkpoint
        // on both sides must stay bit-identical.
        let mut post_a = twin_client.clone();
        let mut post_b = twin_client.clone();
        let mut recovered = recovered;
        post_a
            .insert(
                &mut recovered,
                "/hospital",
                "<patient><pname>Pat</pname><SSN>424242</SSN><age>44</age></patient>",
                99,
            )
            .unwrap_or_else(|e| panic!("cycle {cycle}: post-recovery insert failed: {e}"));
        post_b
            .insert(
                &mut twin,
                "/hospital",
                "<patient><pname>Pat</pname><SSN>424242</SSN><age>44</age></patient>",
                99,
            )
            .unwrap();
        let lock = RwLock::new(recovered);
        checkpoint_once(&lock)
            .unwrap_or_else(|e| panic!("cycle {cycle}: post-recovery checkpoint failed: {e}"));
        assert_eq!(
            lock.into_inner().unwrap().save_bytes().unwrap(),
            twin.save_bytes().unwrap(),
            "cycle {cycle}: post-recovery mutation diverged from the twin"
        );
        drop(rdb);
    }
    // The harness must actually be killing things, not sweeping a window
    // past the end of the run.
    assert!(
        crashed_cycles > CYCLES / 2,
        "only {crashed_cycles}/{CYCLES} cycles saw a power cut"
    );
}

/// An import is all or nothing. Cut the power at every VFS operation inside
/// `attach_new_with`, revive, and either no store exists at the target — so
/// the next open imports again, which must then succeed on the same disk —
/// or the store opens and holds the fault-free twin's state, bit for bit.
#[test]
fn interrupted_import_leaves_no_store_or_a_complete_one() {
    let base = hosted().1.save_bytes().unwrap();
    let import = |vfs: &FaultVfs| {
        let mut server = Server::load_bytes(&base).unwrap();
        let vfs = Arc::new(vfs.clone());
        PagedDb::attach_new_with(&mut server, vfs, Path::new("/db"), "imp", tiny_opts())
    };
    let probe = FaultVfs::new(0);
    import(&probe).unwrap();
    let ops = probe.ops();
    assert!(ops > 20, "import consumes suspiciously few VFS ops");

    let (mut absent, mut complete) = (0u64, 0u64);
    for k in 0..ops {
        let vfs = FaultVfs::new(k);
        vfs.crash_at_op(k);
        let outcome = import(&vfs).map(|_| ());
        assert!(vfs.crashed(), "op {k}: no power cut inside the import");
        vfs.revive();
        if exq_store::PagedStore::exists_in(&vfs, Path::new("/db")) {
            complete += 1;
        } else {
            assert!(outcome.is_err(), "op {k}: import reported a store it lost");
            import(&vfs).unwrap_or_else(|e| panic!("op {k}: second import failed: {e}"));
            absent += 1;
        }
        let (recovered, _db, replay) =
            PagedDb::open_with(Arc::new(vfs.clone()), Path::new("/db"), "imp", tiny_opts())
                .unwrap_or_else(|e| panic!("op {k}: store exists but does not open: {e}"));
        assert_eq!(replay.replayed + replay.failed, 0, "op {k}");
        assert_eq!(recovered.save_bytes().unwrap(), base, "op {k}");
    }
    assert!(
        absent > 0 && complete > 0,
        "{absent} absent, {complete} complete"
    );
}

/// Bit rot on every data page of a live store: the scrubber must detect,
/// quarantine, and repair all of it from resident state — no record lost,
/// answers bit-identical afterwards.
#[test]
fn scrubber_repairs_full_surface_bit_rot() {
    let (mut client, server0) = hosted();
    let mut server = Server::load_bytes(&server0.save_bytes().unwrap()).unwrap();
    let vfs = FaultVfs::new(9);
    // A pool big enough to keep every page resident: repair may then pull
    // any block from CRC-verified frames even with the disk image rotten.
    let opts = StoreOptions {
        page_size: 256,
        cache_bytes: 1 << 20,
    };
    let _db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        "rot",
        opts,
    )
    .unwrap();
    client
        .insert(
            &mut server,
            "/hospital",
            "<patient><pname>Ada</pname><SSN>999111</SSN><age>36</age></patient>",
            5,
        )
        .unwrap();
    let lock = RwLock::new(server);
    checkpoint_once(&lock).unwrap();
    // Serve the whole database once: every record faults in through the
    // buffer pool, so its CRC-verified frames hold the entire store —
    // the in-memory source the repair ladder re-seals cold blocks from.
    let _ = lock.read().unwrap().save_bytes().unwrap();

    // Rot one bit in every page past the two superblocks.
    let data = Path::new("/db/data.exqp");
    let total_pages = vfs.file_bytes(data).unwrap().len() / 256;
    let mut rotted = 0u64;
    for page in 2..total_pages {
        let offset = (page * 256 + 37 + page) as u64;
        if vfs.rot_bit(data, offset, (page % 8) as u8) {
            rotted += 1;
        }
    }
    assert!(rotted > 4, "expected a real page surface, rotted {rotted}");

    let corrupt_pages = exq_core::telemetry::counter(&exq_core::telemetry::db_series(
        "exq_store_scrub_corrupt_pages_total",
        "rot",
    ));
    let corrupt_before = corrupt_pages.get();
    let outcome = scrub_once(&lock, usize::MAX).unwrap();
    assert!(
        corrupt_pages.get() > corrupt_before,
        "the scrape must count the corrupt pages"
    );
    assert!(outcome.scanned > 0);
    assert_eq!(outcome.lost, 0, "resident store must repair everything");
    assert!(
        outcome.quarantined > 0,
        "full-surface rot must quarantine pages"
    );

    // The repaired store answers correctly and survives a fresh open.
    let answers = client
        .query(&lock.read().unwrap(), "//patient/pname")
        .unwrap()
        .results;
    assert!(answers.iter().any(|r| r.contains("Ada")));
    checkpoint_once(&lock).unwrap();
    drop(lock);
    let (reopened, _rdb, _) =
        PagedDb::open_with(Arc::new(vfs.clone()), Path::new("/db"), "rot", opts).unwrap();
    let again = client.query(&reopened, "//patient/pname").unwrap().results;
    assert_eq!(again, answers, "repair changed the answers");
}

/// A fresh paged copy of the hosted database on `vfs`, closed again, and
/// the page its first sealed block lives on with every record that shares
/// that page (read through a raw store handle between the two opens).
fn store_with_shared_block_page(vfs: &FaultVfs, opts: StoreOptions) -> (u32, Vec<u64>) {
    let (_, server0) = hosted();
    let mut server = Server::load_bytes(&server0.save_bytes().unwrap()).unwrap();
    let db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        "shared",
        opts,
    )
    .unwrap();
    drop((server, db));
    let (raw, _) =
        exq_store::PagedStore::open_with(Arc::new(vfs.clone()), Path::new("/db"), opts).unwrap();
    let page = raw
        .record_pages(exq_index::paged::block_record_id(0))
        .unwrap()[0];
    let on_it: Vec<u64> = raw
        .record_ids()
        .into_iter()
        .filter(|&id| raw.record_pages(id).unwrap().contains(&page))
        .collect();
    assert!(
        on_it.len() >= 2,
        "block 0 has its page to itself: {on_it:?}"
    );
    assert!(on_it.iter().all(|id| id >> 32 == 1), "not only blocks");
    (page, on_it)
}

/// One rotted page endangers every sealed block packed onto it. With the
/// pool warm its frame repairs all of them, together, onto a fresh page;
/// with the pool cold and nothing in the WAL they are lost, and the db
/// goes `Faulted` rather than answer short.
#[test]
fn rotted_shared_page_repairs_all_its_blocks_warm_and_faults_the_db_cold() {
    let (client, _) = hosted();
    let data = Path::new("/db/data.exqp");
    let opts = StoreOptions {
        page_size: 256,
        cache_bytes: 1 << 20,
    };
    let reopen = |vfs: &FaultVfs| {
        PagedDb::open_with(Arc::new(vfs.clone()), Path::new("/db"), "shared", opts).unwrap()
    };

    // Warm: every block has been served once, so every frame is resident.
    let vfs = FaultVfs::new(21);
    let (page, on_it) = store_with_shared_block_page(&vfs, opts);
    let (server, db, _) = reopen(&vfs);
    let answers = client.query(&server, "//patient").unwrap().results;
    assert!(vfs.rot_bit(data, page as u64 * 256 + 40, 3));
    let lock = RwLock::new(server);
    let outcome = scrub_once(&lock, usize::MAX).unwrap();
    assert_eq!(outcome.quarantined, 1, "one page, however many records");
    assert_eq!(outcome.repaired, on_it.len() as u64);
    assert_eq!(outcome.lost, 0);
    assert!(
        outcome.scanned < db.footprint().page_count,
        "distinct pages"
    );
    let again = scrub_once(&lock, usize::MAX).unwrap();
    assert_eq!((again.quarantined, again.repaired, again.lost), (0, 0, 0));
    drop((lock, db));
    let (raw, _) =
        exq_store::PagedStore::open_with(Arc::new(vfs.clone()), Path::new("/db"), opts).unwrap();
    let fresh = raw.record_pages(on_it[0]).unwrap();
    assert_ne!(fresh, [page]);
    for &id in &on_it {
        assert_eq!(raw.record_pages(id).unwrap(), fresh, "repaired together");
    }
    drop(raw);
    let (server, _db, _) = reopen(&vfs);
    assert_eq!(client.query(&server, "//patient").unwrap().results, answers);

    // Cold: the open paged in the metadata and posting lists, no block.
    let vfs = FaultVfs::new(22);
    let (page, on_it) = store_with_shared_block_page(&vfs, opts);
    let (server, _db, _) = reopen(&vfs);
    assert!(vfs.rot_bit(data, page as u64 * 256 + 40, 3));
    let shared = Arc::new(RwLock::new(server));
    let outcome = scrub_once(&shared, usize::MAX).unwrap();
    assert_eq!(outcome.quarantined, 1);
    assert_eq!(outcome.lost, on_it.len() as u64);
    assert_eq!(outcome.repaired, 0);
    let registry = TenantRegistry::single("cold", Arc::clone(&shared)).unwrap();
    let tenant = registry.tenants().pop().unwrap();
    tend(&tenant);
    assert_eq!(tenant.health(), DbHealth::Faulted);
    // A query that needs the lost blocks is an error, never a short answer.
    assert!(client.query(&shared.read().unwrap(), "//patient").is_err());
}

/// 100% injected WAL-write failure over a real TCP serve loop: reads keep
/// flowing, mutations shed with the typed retry-after error, the health
/// gauge flips Degraded, and clearing the fault heals the db via `tend`.
#[test]
fn full_wal_write_failure_serves_reads_in_degraded_mode() {
    let (mut client, server0) = hosted();
    let mut server = Server::load_bytes(&server0.save_bytes().unwrap()).unwrap();
    let vfs = FaultVfs::new(11);
    let _db = PagedDb::attach_new_with(
        &mut server,
        Arc::new(vfs.clone()),
        Path::new("/db"),
        "deg",
        tiny_opts(),
    )
    .unwrap();
    let shared = Arc::new(RwLock::new(server));
    let registry = Arc::new(TenantRegistry::single("deg-db", Arc::clone(&shared)).unwrap());
    let tenant = registry.tenants().pop().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve_event(listener, Arc::clone(&registry), ServeConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();

    // Healthy baseline.
    let before = client.query_via(&mut tcp, "//patient/pname").unwrap();
    assert_eq!(before.results.len(), 3);
    assert_eq!(tenant.health(), DbHealth::Healthy);

    // Every write now fails: the first mutation loses the WAL append and
    // must flip the db Degraded...
    vfs.set_config(FaultConfig {
        write_err_per_mille: 1000,
        ..FaultConfig::default()
    });
    let record = "<patient><pname>Eve</pname><SSN>111000</SSN><age>20</age></patient>";
    let first = client.insert_via(&mut tcp, "/hospital", record, 77);
    assert!(first.is_err(), "mutation with a dead WAL must not ack");
    assert_eq!(tenant.health(), DbHealth::Degraded);

    // ...subsequent mutations are shed up front with the typed
    // non-retriable Unavailable error carrying the retry-after hint...
    let second = client.insert_via(&mut tcp, "/hospital", record, 78);
    let msg = format!("{}", second.unwrap_err());
    assert!(
        msg.contains("unavailable") && msg.contains("retry after"),
        "expected the typed Unavailable error, got: {msg}"
    );

    // ...while reads keep being served, bit-identically, on the same loop.
    for _ in 0..5 {
        let out = client.query_via(&mut tcp, "//patient/pname").unwrap();
        assert_eq!(out.results, before.results, "degraded reads must not drift");
    }
    let gauge = exq_core::telemetry::render();
    assert!(
        gauge.contains("exq_db_health{db=\"deg-db\"} 1"),
        "health gauge must read Degraded:\n{gauge}"
    );

    // Fault cleared: one checkpointer tend probes the disk, heals the db,
    // and mutations flow again.
    vfs.set_config(FaultConfig::default());
    tend(&tenant);
    assert_eq!(tenant.health(), DbHealth::Healthy);
    client
        .insert_via(&mut tcp, "/hospital", record, 79)
        .expect("healed db must accept mutations again");
    let after = client.query_via(&mut tcp, "//patient/pname").unwrap();
    assert_eq!(after.results.len(), 4);
    handle.shutdown();
}
