//! E21 — extension: out-of-core paged hosting under shrinking buffer
//! budgets.
//!
//! Not a paper figure: the paper hosts the sealed database fully in RAM,
//! so database size is bounded by memory. This experiment hosts the same
//! encrypted hospital database through the paged storage engine (sealed
//! blocks + DSI posting lists in CRC'd pages behind a pinning buffer pool,
//! mutations in a write-ahead log) and sweeps the pool budget from
//! "everything resident" down to 1/8 of the on-disk footprint. At every
//! budget each answer is checked bit-for-bit against the all-in-RAM
//! reference — the experiment *fails* on any divergence, so the reported
//! latencies are verified answers, not best-effort reads.
//!
//! One side measurement closes the loop on the mutation path, **O(update)
//! vs O(database)**: an insert against the paged store is one WAL append +
//! fsync; the legacy path re-encodes and rewrites the whole artifact. Both
//! are timed on the same database.
//!
//! Results land in `BENCH_e21_outofcore.json`. `EXQ_E21_SMOKE=1` shrinks
//! the dataset for CI while keeping every assertion live.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::scheme::SchemeKind;
use exq_core::store::{checkpoint_once, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_workload::hospital;
use std::sync::RwLock;
use std::time::{Duration, Instant};

const QUERIES: &[&str] = &[
    "//patient/pname",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//treat[disease = 'flu']/doctor",
    "//insurance/policy",
];

fn smoke() -> bool {
    std::env::var("EXQ_E21_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Dataset + page size scale with the mode: the full run uses default 8 KiB
/// pages over ~a thousand patients; the smoke run shrinks both so the 1/8
/// budget still holds more than the pool's 4-frame floor.
fn scale(cfg: &ExpConfig) -> (usize, usize, usize) {
    if smoke() {
        (200, 1024, 2)
    } else {
        (1200, StoreOptions::default().page_size, cfg.trials.max(3))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let (patients, page_size, trials) = scale(cfg);

    // One sealed database, answered twice: all-in-RAM (the reference) and
    // through the paged store at every budget.
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital::scaled(patients, cfg.seed),
            &hospital::constraints(),
            SchemeKind::Opt,
            cfg.seed ^ 0x21,
        )
        .expect("outsource");
    let (mut client, resident) = hosted.split();
    let references: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| client.query(&resident, q).expect("reference").results)
        .collect();

    let dir = std::env::temp_dir().join(format!("exq-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let legacy = dir.join("db.exq");
    resident.save(&legacy).unwrap();

    // Migrate once (full budget), then measure the on-disk footprint that
    // anchors the budget sweep.
    let opts_full = StoreOptions {
        page_size,
        cache_bytes: usize::MAX / 2,
    };
    let (_s, db, _) = PagedDb::open_or_migrate(&legacy, "e21", opts_full).unwrap();
    let disk_bytes = db.footprint().disk_bytes as usize;
    let page_count = db.footprint().page_count;
    drop(_s);
    drop(db);
    let pages = PagedDb::pages_dir(&legacy);

    let mut t = Table::new(
        "e21_outofcore",
        &format!(
            "{patients}-patient sealed database ({disk_bytes} bytes, {page_count} pages on \
             disk) served through the paged store; verified answers at shrinking pool budgets"
        ),
        &[
            "budget",
            "budget (KiB)",
            "db/budget",
            "resident pages",
            "pool hits",
            "pool misses",
            "evictions",
            "mean query (ms)",
            "vs resident",
        ],
    );

    // Reference latency: the all-in-RAM server on the same queries.
    let mut resident_lat = Vec::new();
    for _ in 0..trials {
        for q in QUERIES {
            let started = Instant::now();
            let _ = client.query(&resident, q).unwrap();
            resident_lat.push(started.elapsed());
        }
    }
    let resident_mean = resident_lat.iter().sum::<Duration>() / resident_lat.len().max(1) as u32;

    let budgets: Vec<(&str, usize)> = vec![
        ("full", disk_bytes.next_power_of_two()),
        ("1/2", disk_bytes / 2),
        ("1/4", disk_bytes / 4),
        ("1/8", disk_bytes / 8),
    ];
    let mut json_rows = Vec::new();
    let mut max_ratio = 0.0f64;
    for (name, budget) in &budgets {
        let opts = StoreOptions {
            page_size,
            cache_bytes: *budget,
        };
        let (server, db, replay) = PagedDb::open(&pages, "e21", opts).unwrap();
        assert_eq!(replay.replayed, 0, "{name}: unexpected WAL replay");

        let mut lat = Vec::new();
        for _ in 0..trials {
            for (qi, q) in QUERIES.iter().enumerate() {
                let started = Instant::now();
                let got = client.query(&server, q).unwrap().results;
                lat.push(started.elapsed());
                assert_eq!(
                    got, references[qi],
                    "budget {name}: answer diverged for {q}"
                );
            }
        }
        let mean = lat.iter().sum::<Duration>() / lat.len().max(1) as u32;
        let fp = db.footprint();
        let stats = db.pool_stats();
        let held = (fp.capacity_pages.min(fp.page_count) as usize) * page_size;
        let ratio = disk_bytes as f64 / held.max(1) as f64;
        max_ratio = max_ratio.max(ratio);
        t.row(vec![
            name.to_string(),
            format!("{}", budget / 1024),
            format!("{ratio:.1}x"),
            format!("{} of {}", fp.resident_pages, fp.page_count),
            stats.hits.to_string(),
            stats.misses.to_string(),
            stats.evictions.to_string(),
            format!("{:.3}", ms(mean)),
            format!("{:.2}x", ms(mean) / ms(resident_mean).max(1e-9)),
        ]);
        json_rows.push(format!(
            "    {{ \"budget\": \"{name}\", \"budget_bytes\": {budget}, \
             \"db_over_budget\": {ratio:.2}, \"resident_pages\": {}, \
             \"page_count\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"mean_query_ms\": {:.4} }}",
            fp.resident_pages,
            fp.page_count,
            stats.hits,
            stats.misses,
            stats.evictions,
            ms(mean),
        ));
    }
    assert!(
        max_ratio >= 4.0,
        "sweep never reached a 4x database/budget ratio (max {max_ratio:.1}x)"
    );

    // Mutation cost. O(update): one logged insert against the paged store
    // (WAL append + fsync). O(database): the legacy path's full-artifact
    // rewrite for the same logical change.
    let opts = StoreOptions {
        page_size,
        cache_bytes: disk_bytes / 8,
    };
    let (server, db, _) = PagedDb::open(&pages, "e21", opts).unwrap();
    let record = "<patient><pname>Bench</pname><SSN>424242</SSN><age>33</age>\
                  <insurance><policy coverage=\"7000\">11111</policy></insurance></patient>";
    let mut paged = server;
    let insert_started = Instant::now();
    client
        .insert(&mut paged, "/hospital", record, cfg.seed ^ 0x5a)
        .unwrap();
    let insert_paged = insert_started.elapsed();
    let fp_after_insert = db.footprint();
    assert_eq!(
        fp_after_insert.wal_depth, 1,
        "insert did not land in the WAL"
    );

    let mut legacy_server = resident;
    let legacy_started = Instant::now();
    client
        .insert(&mut legacy_server, "/hospital", record, cfg.seed ^ 0x5a)
        .unwrap();
    legacy_server.save(&dir.join("legacy-after.exq")).unwrap();
    let insert_legacy = legacy_started.elapsed();

    // Fold the WAL (the background checkpointer's job, timed here once so
    // the off-path cost is visible) and prove the mutated paged state
    // matches the mutated legacy state bit-for-bit.
    let lock = RwLock::new(paged);
    let ckpt_started = Instant::now();
    assert!(
        checkpoint_once(&lock).unwrap(),
        "checkpoint had nothing to fold"
    );
    let ckpt = ckpt_started.elapsed();
    assert_eq!(db.footprint().wal_depth, 0);
    let paged = lock.into_inner().unwrap();
    assert_eq!(
        paged.save_bytes().unwrap(),
        legacy_server.save_bytes().unwrap(),
        "mutated paged state diverged from the legacy path"
    );

    let mut m = Table::new(
        "e21_mutation",
        "one insert: WAL append (paged, on-path) vs full-artifact rewrite (legacy); \
         checkpoint cost is off the serving path",
        &["path", "wall (ms)", "persisted bytes touched"],
    );
    m.row(vec![
        "paged insert (WAL append)".into(),
        format!("{:.3}", ms(insert_paged)),
        format!("{} (one log record)", fp_after_insert.wal_bytes),
    ]);
    m.row(vec![
        "legacy insert (full rewrite)".into(),
        format!("{:.3}", ms(insert_legacy)),
        format!(
            "{}",
            std::fs::metadata(dir.join("legacy-after.exq"))
                .unwrap()
                .len()
        ),
    ]);
    m.row(vec![
        "background checkpoint (off-path)".into(),
        format!("{:.3}", ms(ckpt)),
        "dirty pages only".into(),
    ]);

    if cfg.write_root_artifacts {
        let json = format!(
            "{{\n  \"experiment\": \"e21_outofcore\",\n  \"patients\": {patients},\n  \
             \"disk_bytes\": {disk_bytes},\n  \"page_size\": {page_size},\n  \
             \"page_count\": {page_count},\n  \"rows\": [\n{}\n  ],\n  \
             \"resident_mean_query_ms\": {:.4},\n  \
             \"insert_paged_ms\": {:.4},\n  \"insert_legacy_ms\": {:.4},\n  \
             \"checkpoint_ms\": {:.4}\n}}\n",
            json_rows.join(",\n"),
            ms(resident_mean),
            ms(insert_paged),
            ms(insert_legacy),
            ms(ckpt),
        );
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_e21_outofcore.json"
            ),
            json,
        )
        .expect("write BENCH_e21_outofcore.json");
    }

    let _ = std::fs::remove_dir_all(&dir);
    vec![t, m]
}
