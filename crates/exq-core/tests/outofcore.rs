//! Out-of-core equivalence: a database hosted through the paged store with
//! a deliberately tiny buffer budget must answer every query identically to
//! the all-in-RAM server, survive mutations + reopen, and migrate legacy
//! single-file artifacts without touching them.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::store::{checkpoint_once, Checkpointer, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_core::tenant::TenantRegistry;
use exq_core::{Client, Server};
use exq_xml::Document;
use std::sync::{Arc, RwLock};

/// Tiny pages + a budget of a few frames: every multi-block query must
/// page blocks in and out through the pool (the eight patients' blocks
/// share more pages than the pool has frames).
fn tiny_opts() -> StoreOptions {
    StoreOptions {
        page_size: 256,
        cache_bytes: 1024,
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
            <patient><pname>Quinn</pname><SSN>314159</SSN><age>61</age>
              <insurance><policy coverage="250000">27182</policy></insurance></patient>
            <patient><pname>Ravi</pname><SSN>161803</SSN><age>52</age>
              <insurance><policy coverage="75000">14142</policy></insurance></patient>
            <patient><pname>Ines</pname><SSN>173205</SSN><age>23</age>
              <insurance><policy coverage="20000">22360</policy></insurance></patient>
            <patient><pname>Omar</pname><SSN>264575</SSN><age>70</age>
              <insurance><policy coverage="500000">31622</policy></insurance></patient>
            <patient><pname>Lena</pname><SSN>282842</SSN><age>38</age>
              <insurance><policy coverage="8000">33166</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /age)").unwrap(),
    ];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 31)
        .unwrap()
        .split()
}

const QUERIES: &[&str] = &[
    "//patient",
    "//patient[pname = 'Betty']/SSN",
    "//patient[.//policy/@coverage >= 10000]/SSN",
    "//insurance//policy",
    "//patient[age = 40]/pname",
    "//pname",
];

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("exq-ooc-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn paged_answers_match_resident_under_tiny_budget() {
    let (client, resident) = hosted();
    let dir = scratch("equiv");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (paged, db, replay) = PagedDb::open_or_migrate(&path, "equiv", tiny_opts()).unwrap();
    assert_eq!(replay.replayed, 0);
    for q in QUERIES {
        let a = client.query(&resident, q).unwrap().results;
        let b = client.query(&paged, q).unwrap().results;
        assert_eq!(a, b, "paged answer diverged for {q}");
    }
    // The budget is a handful of 256-byte frames against a multi-KiB
    // database: the pool must actually have evicted.
    let fp = db.footprint();
    assert!(
        fp.resident_pages < fp.page_count,
        "database fits in the tiny budget (resident {} of {}), test is vacuous",
        fp.resident_pages,
        fp.page_count
    );
    assert!(
        db.pool_stats().evictions > 0,
        "no evictions under tiny budget"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sealed blocks share pages. On a hospital store of 1 KiB pages whose pool
/// holds a quarter of its bytes, a block-fetch query must fault pages in,
/// and fewer than one for every two blocks it ships: a layout with a page
/// per record faults about one per block.
#[test]
fn a_block_fetch_query_faults_fewer_pages_than_half_its_blocks() {
    let diseases = ["diarrhea", "leukemia", "flu", "measles", "asthma"];
    let mut xml = String::from("<hospital>");
    for i in 0..200 {
        xml.push_str(&format!(
            "<patient><pname>P{i}</pname><SSN>{}</SSN><age>{}</age>\
             <treat><disease>{}</disease><doctor>D{}</doctor></treat>\
             <insurance><policy coverage=\"{}\">{}</policy></insurance></patient>",
            100_000 + 7 * i,
            20 + i % 60,
            diseases[i % diseases.len()],
            i % 9,
            1000 * (1 + i % 40),
            30_000 + i
        ));
    }
    xml.push_str("</hospital>");
    let cs: Vec<SecurityConstraint> = [
        "//insurance",
        "//patient:(/pname, /SSN)",
        "//patient:(/pname, //disease)",
        "//treat:(/disease, /doctor)",
    ]
    .iter()
    .map(|c| SecurityConstraint::parse(c).unwrap())
    .collect();
    let (client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&Document::parse(&xml).unwrap(), &cs, SchemeKind::Opt, 1)
        .unwrap()
        .split();
    let dir = scratch("packed");
    let page_size = 1024;
    let opts = StoreOptions {
        page_size,
        ..StoreOptions::default()
    };
    let full = PagedDb::attach_new(&mut server, &dir, "packed", opts).unwrap();
    let disk_bytes = full.footprint().disk_bytes as usize;
    drop((server, full));

    let quarter = StoreOptions {
        page_size,
        cache_bytes: disk_bytes / 4,
    };
    let (server, db, _) = PagedDb::open(&dir, "packed", quarter).unwrap();
    let fp = db.footprint();
    assert!(fp.capacity_pages * 2 < fp.page_count, "{fp:?}");
    let sq = client
        .translate("//patient/insurance")
        .unwrap()
        .server_query
        .unwrap();
    let before = db.pool_stats().misses;
    let blocks = server.answer(&sq).unwrap().blocks.len() as u64;
    let misses = db.pool_stats().misses - before;
    assert!(blocks >= 200, "{blocks} blocks shipped");
    assert!(
        misses >= 1,
        "the query faulted no page: the pool holds them all"
    );
    assert!(
        2 * misses < blocks,
        "{misses} pages faulted for {blocks} blocks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged store whose metadata record is version 1 predates position-keyed
/// OPE coins: its value indexes no longer match a client's ranges. With its
/// pages and WAL intact it is still refused, by open and by inspection, with
/// a typed error that names the version.
#[test]
fn version_one_paged_metadata_is_refused() {
    paged_metadata_version_is_refused(b'1');
}

/// A paged store whose metadata record is version 2 predates RFC 8439
/// block tags: every block it holds would fail its tag. Version 3 predates
/// the one byte codec, version 4 the blocks' offsets, and version 5 holds
/// each visible node's interval beside the text. Each is refused the same
/// way, before any WAL record is replayed.
#[test]
fn version_two_paged_metadata_is_refused() {
    for version in [b'2', b'3', b'4', b'5'] {
        paged_metadata_version_is_refused(version);
    }
}

/// Imports a store, rewrites its metadata record's version byte to
/// `version`, and expects open, migration and inspection to refuse it with
/// a typed error naming that version.
fn paged_metadata_version_is_refused(version: u8) {
    let (_, server) = hosted();
    let name = format!("meta-v{}", version as char);
    let dir = scratch(&name);
    let path = dir.join("db.exq");
    server.save(&path).unwrap();
    drop(PagedDb::open_or_migrate(&path, &name, tiny_opts()).unwrap());
    let pages = PagedDb::pages_dir(&path);
    {
        let (store, _) = exq_store::PagedStore::open(&pages, tiny_opts()).unwrap();
        let mut meta = store.get(exq_index::paged::REC_META).unwrap();
        assert_eq!(&meta[..5], b"EXQPM");
        meta[5] = version;
        let folded = store.checkpointed_seq();
        (store.checkpoint(&[(exq_index::paged::REC_META, Some(meta))], folded)).unwrap();
    }
    let refusals = [
        PagedDb::open(&pages, &name, tiny_opts()).map(|_| ()),
        PagedDb::open_or_migrate(&path, &name, tiny_opts()).map(|_| ()),
        PagedDb::inspect(&pages).map(|_| ()),
    ];
    let named = format!("version {}", version as char);
    for refused in refusals {
        match refused {
            Err(exq_core::CoreError::Persist(why)) => assert!(why.contains(&named), "{why}"),
            other => panic!("a {named} paged store gave {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn migration_leaves_legacy_file_untouched() {
    let (_, server) = hosted();
    let dir = scratch("migrate");
    let path = dir.join("db.exq");
    server.save(&path).unwrap();
    let before = std::fs::read(&path).unwrap();

    let (_paged, _db, _) = PagedDb::open_or_migrate(&path, "migrate", tiny_opts()).unwrap();
    assert!(PagedDb::is_paged(&path), "pages sibling missing");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "migration modified the legacy artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutations_replay_from_wal_on_reopen() {
    let (mut client, resident) = hosted();
    let dir = scratch("replay");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (mut paged, db, _) = PagedDb::open_or_migrate(&path, "replay", tiny_opts()).unwrap();
    client
        .insert(
            &mut paged,
            "/hospital",
            "<patient><pname>Ada</pname><SSN>999111</SSN><age>36</age></patient>",
            5,
        )
        .unwrap();
    client.delete(&mut paged, "//patient[age = 40]").unwrap();
    assert!(db.footprint().wal_depth >= 2, "mutations were not logged");

    // Bit-identical recovery: the canonical single-file image of the
    // reopened database must equal the live (never-crashed) one.
    let reference = paged.save_bytes().unwrap();
    let expect: Vec<_> = QUERIES
        .iter()
        .map(|q| client.query(&paged, q).unwrap().results)
        .collect();
    drop(paged);
    drop(db);

    let (reopened, _db, replay) = PagedDb::open_or_migrate(&path, "replay", tiny_opts()).unwrap();
    assert_eq!(replay.replayed, 2);
    assert_eq!(replay.failed, 0);
    assert_eq!(
        reopened.save_bytes().unwrap(),
        reference,
        "recovered state is not bit-identical"
    );
    for (q, want) in QUERIES.iter().zip(&expect) {
        assert_eq!(&client.query(&reopened, q).unwrap().results, want, "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Drift guard for `PagedDb::inspect`'s metadata peek: its numbers must
/// match what a full open reports, and inspection must leave the store's
/// files byte-identical (a live server may own them).
#[test]
fn read_only_inspect_matches_full_open_and_mutates_nothing() {
    let (mut client, resident) = hosted();
    let dir = scratch("inspect");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (mut paged, db, _) = PagedDb::open_or_migrate(&path, "inspect", tiny_opts()).unwrap();
    let pages = PagedDb::pages_dir(&path);

    let report = PagedDb::inspect(&pages).unwrap();
    assert_eq!(report.block_count as usize, paged.block_count());
    assert_eq!(report.hosted_bytes as usize, paged.hosted_bytes());
    assert_eq!(report.footprint.wal_depth, 0);
    assert!(report.footprint.disk_bytes > 0);

    // Leave a committed-but-unfolded mutation in the WAL, then inspect:
    // the store files must come back byte-identical (no tail truncation,
    // no compaction) and the pending record must show as WAL depth.
    client
        .insert(
            &mut paged,
            "/hospital",
            "<patient><pname>Ada</pname><SSN>999111</SSN><age>36</age></patient>",
            5,
        )
        .unwrap();
    let wal_before = std::fs::read(pages.join("log.wal")).unwrap();
    let data_before = std::fs::read(pages.join("data.exqp")).unwrap();
    let report = PagedDb::inspect(&pages).unwrap();
    assert_eq!(report.footprint.wal_depth, 1, "pending mutation not seen");
    assert_eq!(std::fs::read(pages.join("log.wal")).unwrap(), wal_before);
    assert_eq!(std::fs::read(pages.join("data.exqp")).unwrap(), data_before);

    // After folding the mutation, inspect matches the updated server again.
    let lock = RwLock::new(paged);
    assert!(checkpoint_once(&lock).unwrap());
    let paged = lock.into_inner().unwrap();
    let report = PagedDb::inspect(&pages).unwrap();
    assert_eq!(report.block_count as usize, paged.block_count());
    assert_eq!(report.hosted_bytes as usize, paged.hosted_bytes());
    assert_eq!(report.footprint.wal_depth, 0);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_folds_wal_and_skips_clean_stores() {
    let (mut client, resident) = hosted();
    let dir = scratch("ckpt");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (mut paged, db, _) = PagedDb::open_or_migrate(&path, "ckpt", tiny_opts()).unwrap();
    client
        .insert(
            &mut paged,
            "/hospital",
            "<patient><pname>Lin</pname><SSN>555000</SSN><age>50</age></patient>",
            5,
        )
        .unwrap();
    client.delete(&mut paged, "//patient[age = 29]").unwrap();
    let reference = paged.save_bytes().unwrap();

    let lock = RwLock::new(paged);
    let seconds = telemetry::histogram(&telemetry::db_series("exq_db_checkpoint_seconds", "ckpt"));
    let seconds_before = seconds.count();
    assert!(checkpoint_once(&lock).unwrap(), "checkpoint had work to do");
    assert_eq!(db.footprint().wal_depth, 0, "WAL not folded");
    // The scrape times it under the db's label, and that count is the
    // db's checkpoint counter.
    assert_eq!(seconds.count(), seconds_before + 1);
    assert_eq!(db.checkpoints_total(), 1);
    assert_eq!(db.checkpoints_total(), seconds.count());
    // Nothing left to fold: the second call is a no-op.
    assert!(!checkpoint_once(&lock).unwrap());
    drop(lock);
    drop(db);

    let (reopened, db, replay) = PagedDb::open_or_migrate(&path, "ckpt", tiny_opts()).unwrap();
    assert_eq!(replay.replayed, 0, "checkpointed mutations replayed again");
    assert_eq!(reopened.save_bytes().unwrap(), reference);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_checkpointer_folds_off_the_serving_path() {
    let (mut client, resident) = hosted();
    let dir = scratch("bg");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (mut paged, db, _) = PagedDb::open_or_migrate(&path, "bg", tiny_opts()).unwrap();
    client
        .insert(
            &mut paged,
            "/hospital",
            "<patient><pname>Kim</pname><SSN>777000</SSN><age>44</age></patient>",
            5,
        )
        .unwrap();
    // The one sweep there is: the tenant checkpointer, over a registry.
    let registry = Arc::new(TenantRegistry::new("bg").unwrap());
    let lock = Arc::clone(&registry.create("bg", paged, 0, 0).unwrap().server);
    let ckpt = Checkpointer::spawn(registry, std::time::Duration::from_millis(30));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.footprint().wal_depth > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(ckpt);
    assert_eq!(
        db.footprint().wal_depth,
        0,
        "background fold never happened"
    );
    // Serving continued throughout: the lock is still usable.
    let out = client
        .query(&lock.read().unwrap(), "//patient[age = 44]/pname")
        .unwrap();
    assert_eq!(out.results.len(), 1);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aggregates_and_naive_path_work_paged() {
    use exq_core::aggregate::Aggregate;
    let (client, resident) = hosted();
    let dir = scratch("agg");
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();

    let (paged, db, _) = PagedDb::open_or_migrate(&path, "agg", tiny_opts()).unwrap();
    let max = client
        .aggregate(&paged, "//policy/@coverage", Aggregate::Max)
        .unwrap();
    assert_eq!(max.value.as_deref(), Some("1000000"));
    let naive_a = client.export(&resident).unwrap().unwrap().into_text();
    let naive_b = client.export(&paged).unwrap().unwrap().into_text();
    assert_eq!(naive_a, naive_b, "naive export diverged out-of-core");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
