//! Criterion microbenchmarks for the substrates: the cipher, PRF, OPE,
//! OPESS planning, the value index, DSI labeling, structural joins, XML parsing,
//! vertex-cover solvers and the owner's whole set-up — and for the reply path of one secure query
//! (server assembly, answer encoding, client
//! reconstruction and its parse and XPath halves, the parse of a reply's
//! text, batch block open, frame
//! checksum) on the perf ledger's `xmark_scan` database,
//! the server's predicate matching, its plaintext value tests and its
//! in-place index updates on its `hospital_point` database, and the batch
//! block read on its `hospital_paged` store.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use exq_core::codec::{Message, PROTOCOL_VERSION};
use exq_core::cover::{solve_clarkson, solve_exact, ConstraintGraph};
use exq_core::encrypt::encrypt_database;
use exq_core::scheme::{EncryptionScheme, SchemeKind};
use exq_core::store::{PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::InProcess;
use exq_crypto::chacha::{block_lanes, LANES};
use exq_crypto::{open_block, open_blocks, ChaCha20, KeyChain, OpeKey, OpessPlan, Prf};
use exq_index::dsi::DsiLabeling;
use exq_index::paged::block_record_id;
use exq_index::sjoin::{join_anc_desc, sort_intervals};
use exq_index::ValueIndex;
use exq_store::PagedStore;
use exq_workload::{hospital, nasa, xmark};
use exq_xml::{Document, SpanDocument};
use exq_xpath::{eval, eval_document, Path};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_chacha(c: &mut Criterion) {
    let cipher = ChaCha20::new(&[7u8; 32], &[1u8; 12]);
    let mut data = vec![0xA5u8; 16 * 1024];
    c.bench_function("chacha20/keystream_16k", |b| {
        b.iter(|| cipher.apply_keystream(0, black_box(&mut data)))
    });
    // The wide kernel alone: one sixteen-lane call, nothing around it.
    let key = [7u32; 8];
    let counters: [u32; LANES] = core::array::from_fn(|l| l as u32);
    let nonces = [[1u32; LANES]; 3];
    c.bench_function("chacha20/block_lanes_16", |b| {
        b.iter(|| {
            black_box(block_lanes::<LANES>(
                black_box(&key),
                black_box(&counters),
                black_box(&nonces),
            ))
        })
    });
}

fn bench_prf(c: &mut Criterion) {
    let prf = Prf::new([3u8; 32]);
    c.bench_function("prf/eval_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(prf.eval_u64(&i.to_le_bytes()))
        })
    });
}

fn bench_ope(c: &mut Criterion) {
    let key = OpeKey::new([5u8; 32]);
    c.bench_function("ope/encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(key.encrypt(x))
        })
    });
    // One value through the batch: how a client translates a range bound
    // and how an insert encrypts.
    c.bench_function("ope/encrypt_many_one", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(key.encrypt_many(&[x]))
        })
    });
    // As many descents as `OpessPlan::build` runs for the ledger's
    // `xmark_scan` database, in one call.
    let xs: Vec<u64> = (0..2048u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    c.bench_function("ope/encrypt_many_2k", |b| {
        b.iter(|| black_box(key.encrypt_many(black_box(&xs))))
    });
    // OPESS-shaped: about as many chunk values as one plan encrypts, all in
    // one 2^40 window, so the batch shares every node above it and most
    // coins are drawn in full sixteen-node groups.
    let cluster: Vec<u64> = (0..3500u64)
        .map(|i| (0x5A5A << 48) + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24))
        .collect();
    c.bench_function("ope/encrypt_many_cluster", |b| {
        b.iter(|| black_box(key.encrypt_many(black_box(&cluster))))
    });
}

fn bench_opess(c: &mut Criterion) {
    let values: Vec<(f64, u32)> = (0..200).map(|i| (i as f64, (i % 37 + 2) as u32)).collect();
    c.bench_function("opess/build_plan_200_values", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(OpessPlan::build(&values, OpeKey::new([5u8; 32]), &mut rng).unwrap())
        })
    });
}

fn bench_value_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("value_index");
    let mut scattered: Vec<(u128, u32)> = (0..100_000u32)
        .map(|i| ((i as u128).wrapping_mul(0x9E37_79B9) % 1_000_000, i))
        .collect();
    scattered.sort_by_key(|&(k, _)| k);
    let t = ValueIndex::from_sorted(scattered).unwrap();
    group.bench_function("range_scan_1pct_of_100k", |b| {
        b.iter(|| black_box(t.range(0, 10_000).len()))
    });
    // A value index's load: as many entries as the ledger's `hospital_point`
    // database holds, ascending, each key five times (a scaled chunk).
    let sorted: Vec<(u128, u32)> = (0..44_372u32)
        .map(|i| (u128::from(i / 5) << 64, i))
        .collect();
    group.bench_function("from_sorted_44k", |b| {
        b.iter(|| {
            black_box(
                ValueIndex::from_sorted(black_box(&sorted).iter().copied())
                    .unwrap()
                    .len(),
            )
        })
    });
    // One hospital record's insert: 48 entries, three plaintexts scaled
    // four times on each of four attributes, merged into runs the sizes of
    // hospital(1200)'s four value indexes. The runs have taken an earlier
    // record, as a live server's have, so they have room to grow into (the
    // first merge after a load also moves each run to a larger buffer).
    let mut rng = StdRng::seed_from_u64(12);
    let mut cipher = || u128::from(rng.gen_range(0..u64::MAX)) << 64;
    let mut runs = Vec::new();
    let mut records = [Vec::new(), Vec::new()];
    for len in [7_329u32, 10_643, 6_760, 19_640] {
        let mut keys: Vec<u128> = (0..len).map(|_| cipher()).collect();
        keys.sort_unstable();
        runs.push(ValueIndex::from_sorted(keys.into_iter().zip(0..)).unwrap());
        for record in &mut records {
            let entries = (0..3).flat_map(|i| std::iter::repeat_n((cipher(), len + i), 4));
            record.push(entries.collect::<Vec<_>>());
        }
    }
    let [earlier, next] = records;
    // The merged runs drop in the next set-up, outside the timing.
    let work = std::cell::RefCell::new(Vec::new());
    let merge = |runs: &mut [ValueIndex], record: &[Vec<(u128, u32)>]| {
        for (run, entries) in runs.iter_mut().zip(record) {
            run.merge(entries.iter().copied());
        }
    };
    group.bench_function("merge_record_hospital", |b| {
        b.iter_batched(
            || {
                let mut live = runs.clone();
                merge(&mut live, &earlier);
                *work.borrow_mut() = live;
            },
            |()| merge(&mut work.borrow_mut(), &next),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// The owner's whole set-up of the ledger's `hospital_point` database
/// (1200 patients, seed 2006, `Opt`) and of its `xmark_scan` database
/// (2 MiB XMark, seed 2006, `Opt`): blocks, visible document, DSI and
/// block tables, and every OPESS plan and value index.
fn bench_setup(c: &mut Criterion) {
    let hospital = (
        "encrypt_database_hospital",
        hospital::scaled(1200, 2006),
        hospital::constraints(),
    );
    let xmark = (
        "encrypt_database_xmark",
        xmark::generate(&xmark::XmarkConfig {
            target_bytes: 2 << 20,
            seed: 2006,
        }),
        xmark::constraints(),
    );
    let keys = KeyChain::from_seed(2006);
    let mut group = c.benchmark_group("setup");
    group.sample_size(20);
    for (name, doc, constraints) in [hospital, xmark] {
        let scheme = EncryptionScheme::build(&doc, &constraints, SchemeKind::Opt).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2006 ^ 0xD5EA_5EED);
                black_box(
                    encrypt_database(&doc, &scheme, &keys, &mut rng)
                        .unwrap()
                        .blocks
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_dsi(c: &mut Criterion) {
    let doc = nasa::generate_datasets(500, 3);
    c.bench_function("dsi/label_500_datasets", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            black_box(DsiLabeling::assign(&doc, &mut rng))
        })
    });
}

fn bench_sjoin(c: &mut Criterion) {
    let doc = nasa::generate_datasets(1000, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let l = DsiLabeling::assign(&doc, &mut rng);
    let mut anc: Vec<_> = doc
        .elements_by_tag("dataset")
        .iter()
        .map(|&n| l.interval(n).unwrap())
        .collect();
    let mut desc: Vec<_> = doc
        .elements_by_tag("last")
        .iter()
        .map(|&n| l.interval(n).unwrap())
        .collect();
    sort_intervals(&mut anc);
    sort_intervals(&mut desc);
    c.bench_function("sjoin/anc_desc_1k_datasets", |b| {
        b.iter(|| black_box(join_anc_desc(&anc, &desc).len()))
    });
}

fn bench_xml_parse(c: &mut Criterion) {
    let doc = xmark::generate_people(500, 3);
    let xml = doc.to_xml();
    c.bench_function("xml/parse_500_people", |b| {
        b.iter(|| black_box(Document::parse(&xml).unwrap().len()))
    });
}

fn bench_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertex_cover");
    for n in [10usize, 16, 22] {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = ConstraintGraph::default();
        for i in 0..n {
            g.vertices.push(exq_core::cover::CoverVertex {
                path: exq_xpath::Path::parse(&format!("//v{i}")).unwrap(),
                weight: rng.gen_range(1..100),
                bound_nodes: 1,
            });
        }
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(0.3) {
                    g.edges.push((a, b));
                }
            }
        }
        group.bench_with_input(BenchmarkId::new("exact", n), &g, |b, g| {
            b.iter(|| black_box(solve_exact(g).len()))
        });
        group.bench_with_input(BenchmarkId::new("clarkson", n), &g, |b, g| {
            b.iter(|| black_box(solve_clarkson(g).len()))
        });
    }
    group.finish();
}

/// The reply path, on the ledger's `xmark_scan` set-up (2 MiB XMark, seed
/// 2006, `Opt`) and three of its reply shapes: the median query (one
/// visible region, no blocks), a Ql path (thousands of small anchors and as
/// many blocks), and a whole-`people` reply (1.3 MB, 7488 blocks).
fn bench_reply_path(c: &mut Criterion) {
    let doc = xmark::generate(&xmark::XmarkConfig {
        target_bytes: 2 << 20,
        seed: 2006,
    });
    let (client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &xmark::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    server.set_cache_entries(Some(0));
    let shapes = [
        ("region", "/site//open_auctions"),
        ("leaf_path", "/site/people/person//name"),
        ("whole_people", "//people//person"),
    ];
    // The ledger's p50 query: the region above, one result per auction.
    let open_auctions = ("open_auctions", "/site//open_auctions//open_auction");

    let mut assemble = c.benchmark_group("server/assemble_xmark");
    for (shape, q) in shapes {
        // `answer` is lookup + join + assemble; on these queries assembly
        // is all but ~2 ms of it (the ledger's `server.sjoin_ms`).
        let sq = client.translate(q).unwrap().server_query.unwrap();
        assemble.bench_function(shape, |b| {
            b.iter(|| black_box(server.answer(&sq).unwrap().pruned_xml.len()))
        });
    }
    assemble.finish();

    // The two whole-`people` shapes that are `xmark_scan`'s p95: one anchor
    // over the whole region, and one anchor per person.
    let mut assemble = c.benchmark_group("server/assemble_xmark_people");
    for (shape, q) in [
        ("site_people", "/site/people"),
        ("people_person", "//people/person"),
    ] {
        let sq = client.translate(q).unwrap().server_query.unwrap();
        assemble.bench_function(shape, |b| {
            b.iter(|| black_box(server.answer(&sq).unwrap().pruned_xml.len()))
        });
    }
    assemble.finish();

    let mut reconstruct = c.benchmark_group("client/reconstruct_xmark");
    for (shape, q) in shapes.into_iter().chain([open_auctions]) {
        let (tq, resp, _) = client.run(&mut InProcess::shared(&server), q).unwrap();
        reconstruct.bench_function(shape, |b| {
            b.iter(|| {
                let post = client.post_process(&tq.post_query, &resp).unwrap();
                black_box(post.results.len())
            })
        });
    }
    reconstruct.finish();

    // The one tokenizer alone, on the `/site/open_auctions` reply text
    // (335 KB, no blocks: the median query's shape): into a span document,
    // as the client reads a reply, and into the arena document.
    let sq = client
        .translate("/site/open_auctions")
        .unwrap()
        .server_query;
    let reply = server.answer(&sq.unwrap()).unwrap().pruned_xml;
    let mut parse = c.benchmark_group("xml/parse_reply");
    parse.bench_function("span", |b| {
        b.iter(|| black_box(SpanDocument::parse(&reply).unwrap().len()))
    });
    parse.bench_function("document", |b| {
        b.iter(|| black_box(Document::parse(&reply).unwrap().len()))
    });
    parse.finish();

    // Post-processing as a client meets it: the three shapes above and a
    // `hospital_paged` block fetch (1200 blocks), one after another on one
    // thread, so each reply follows one of another shape (and, for the
    // hospital one, of another client's database): what it costs when the
    // reply's size and block count change from one query to the next.
    let hospital_doc = hospital::scaled(1200, 2007);
    let (hospital_client, hospital_server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital_doc,
            &hospital::constraints(),
            SchemeKind::Opt,
            2007,
        )
        .unwrap()
        .split();
    let mut rotation = Vec::new();
    for (c, s, q) in shapes.iter().map(|&(_, q)| (&client, &server, q)).chain([(
        &hospital_client,
        &hospital_server,
        "//patient/pname",
    )]) {
        let (tq, resp, _) = c.run(&mut InProcess::shared(s), q).unwrap();
        rotation.push((c, tq.post_query, resp));
    }
    c.bench_function("client/post_process_rotating", |b| {
        b.iter(|| {
            for (client, post_query, resp) in &rotation {
                let post = client.post_process(post_query, resp).unwrap();
                black_box(post.results.len());
            }
        })
    });

    // The two halves of that post-process with the crypto and the splicing
    // taken out: a plain parse of the visible text of a whole-`people`
    // reply (the server's `/site/people` region under its bare ancestors,
    // blocks cut out) with building the arena and freeing it timed
    // apart, and the post query on the parsed document — the arena one and
    // the span one the client builds.
    let people_sq = client.translate("/site/people").unwrap().server_query;
    let people_xml = server.answer(&people_sq.unwrap()).unwrap().pruned_xml;
    let mut parse = c.benchmark_group("xml/parse_people_reply");
    let held = std::cell::Cell::new(None);
    parse.bench_function("parse", |b| {
        b.iter_batched(
            || drop(held.take()),
            |()| held.set(Some(Document::parse(&people_xml).unwrap())),
            BatchSize::PerIteration,
        )
    });
    parse.bench_function("drop", |b| {
        b.iter_batched(
            || Document::parse(&people_xml).unwrap(),
            drop,
            BatchSize::PerIteration,
        )
    });
    parse.finish();
    let people_doc = Document::parse(&people_xml).unwrap();
    let people_query = Path::parse("//people//person").unwrap();
    c.bench_function("xpath/eval_people", |b| {
        b.iter(|| black_box(eval_document(&people_doc, &people_query).len()))
    });
    let people_spans = SpanDocument::parse(&people_xml).unwrap();
    c.bench_function("xpath/eval_people_spans", |b| {
        b.iter(|| black_box(eval(&people_spans, &people_query).len()))
    });

    // The crypto of the whole-`people` reply alone: its 7488 sealed blocks
    // opened as the reply's one table, against the same blocks opened one
    // at a time.
    let (_, people, _) = client
        .run(&mut InProcess::shared(&server), "//people//person")
        .unwrap();
    // That reply (1.95 MB) into its frame, checksum included, and back.
    let answer = Message::Answer(people.clone());
    c.bench_function("codec/encode_answer_people", |b| {
        b.iter(|| black_box(answer.encode_frame_req(PROTOCOL_VERSION, 0, 1).len()))
    });
    let frame = answer.encode_frame_req(PROTOCOL_VERSION, 0, 1);
    c.bench_function("codec/decode_answer_people", |b| {
        b.iter(|| black_box(Message::decode_frame(&frame).unwrap()))
    });
    let key = client.state().keys.block_key();
    let mut open = c.benchmark_group("crypto/open_blocks_xmark");
    open.bench_function("batch", |b| {
        b.iter(|| black_box(open_blocks(&key, &people.blocks).unwrap().len()))
    });
    open.bench_function("per_block", |b| {
        b.iter(|| {
            let opened = people
                .blocks
                .iter()
                .map(|b| open_block(&key, b).unwrap().len());
            black_box(opened.sum::<usize>())
        })
    });
    open.finish();

    // The region copy out of the visible text: one section whole, one
    // anchor per person, and a leaf path under each person's context chain.
    let mut assemble = c.benchmark_group("server/assemble");
    for (shape, q) in [
        ("open_auctions", "/site/open_auctions"),
        ("people_person", "//people//person"),
        ("person_city", "/site/people/person/address/city"),
    ] {
        let sq = client.translate(q).unwrap().server_query.unwrap();
        assemble.bench_function(shape, |b| {
            b.iter(|| black_box(server.answer(&sq).unwrap().pruned_xml.len()))
        });
    }
    assemble.finish();
}

/// `Server::answer` where predicates are the work, on the ledger's
/// `hospital_point` set-up (1200 patients, seed 2007, `Opt`): a plaintext
/// predicate above the anchor (a witness per survivor), an encrypted range
/// with the anchor at its step, a branch with a predicate of its own, a
/// plaintext equality that selects one record, and an encrypted range on a
/// child step of the trunk.
fn bench_sjoin_hospital(c: &mut Criterion) {
    let doc = hospital::scaled(1200, 2007);
    let ssn = doc.text_value(doc.elements_by_tag("SSN")[600]);
    let (client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    server.set_cache_entries(Some(0));
    let mut group = c.benchmark_group("server/sjoin_hospital");
    for (shape, q) in [
        ("plain_above_anchor", "//patient[age > 50]/pname".to_owned()),
        (
            "range_at_anchor",
            "//patient[pname = 'Mary']/SSN".to_owned(),
        ),
        (
            "branch_with_predicate",
            "//patient[.//policy[@coverage < 500000]]/pname".to_owned(),
        ),
        ("plain_equality", format!("//patient[SSN = '{ssn}']/pname")),
        (
            "range_child_trunk",
            "//treat[disease = 'flu']/doctor".to_owned(),
        ),
    ] {
        let sq = client.translate(&q).unwrap().server_query.unwrap();
        group.bench_function(shape, |b| {
            b.iter(|| black_box(server.answer(&sq).unwrap().blocks.len()))
        });
    }
    group.finish();
}

/// `Server::answer` on the plaintext value predicates of the ledger's
/// `hospital_point` templates (1200 patients, seed 2006, `Opt`, caches
/// off): an SSN lookup that selects one record, an age equality and an age
/// range, the workload's median query. The ledger has no row for a plain
/// value test, so its cost is read here.
fn bench_plain_predicate_hospital(c: &mut Criterion) {
    let doc = hospital::scaled(1200, 2006);
    let ssn = doc.text_value(doc.elements_by_tag("SSN")[600]);
    let (client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &hospital::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    server.set_cache_entries(Some(0));
    let mut group = c.benchmark_group("server/plain_predicate_hospital");
    for (shape, q) in [
        ("ssn_eq", format!("//patient[SSN = '{ssn}']/pname")),
        ("age_eq", "//patient[age = 50]//doctor".to_owned()),
        ("age_gt", "//patient[age > 70]/pname".to_owned()),
    ] {
        let sq = client.translate(&q).unwrap().server_query.unwrap();
        group.bench_function(shape, |b| {
            b.iter(|| black_box(server.answer(&sq).unwrap().blocks.len()))
        });
    }
    group.finish();
}

/// One mutation on the ledger's `hospital_point` set-up (1200 patients,
/// seed 2007, `Opt`, resident, so no WAL): the client's preparation of a
/// record's insert under the root (on a fresh clone of the client each
/// sample, since a preparation extends the client's plans), and the
/// in-memory apply of the prepared insert and of its delete. One long-lived server
/// takes both, so its arrays grow as a hosted one's do; the setup outside
/// the timing undoes the last sample (deletes the record, or inserts it
/// again), so every sample starts from a server of the same size.
fn bench_update_hospital(c: &mut Criterion) {
    let doc = hospital::scaled(1200, 2007);
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    let root = client.translate("/hospital").unwrap().server_query.unwrap();
    let root = server.locate(&root)[0];
    let server = std::cell::RefCell::new(server);
    let client = std::cell::RefCell::new(client);
    let record = "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age>\
                  <treat><disease>flu</disease><doctor>Lee</doctor></treat>\
                  <insurance><policy coverage=\"7500\">55555</policy></insurance></patient>";
    let seed = std::cell::Cell::new(0);
    let prepare = || {
        let slot = server.borrow().insertion_slot(root).unwrap();
        seed.set(seed.get() + 1);
        let mut client = client.borrow_mut();
        client.prepare_insert(&slot, record, seed.get()).unwrap()
    };
    let delete = || {
        let q = client
            .borrow()
            .translate("//patient[SSN = '112233']")
            .unwrap();
        let deleted = server.borrow_mut().delete_where(&q.server_query.unwrap());
        assert_eq!(deleted.unwrap().deleted, 1);
    };
    let inserted = std::cell::Cell::new(false);

    let mut group = c.benchmark_group("update");
    group.bench_function("prepare_insert_hospital", |b| {
        let slot = server.borrow().insertion_slot(root).unwrap();
        b.iter_batched(
            || client.borrow().clone(),
            |mut client| client.prepare_insert(&slot, record, 1).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("apply_insert_hospital", |b| {
        b.iter_batched(
            || {
                if inserted.replace(false) {
                    delete();
                }
                prepare()
            },
            |delta| {
                server.borrow_mut().apply_insert(&delta).unwrap();
                inserted.set(true);
            },
            BatchSize::PerIteration,
        )
    });
    if inserted.replace(false) {
        delete();
    }
    group.bench_function("delete_hospital", |b| {
        b.iter_batched(
            || {
                let delta = prepare();
                server.borrow_mut().apply_insert(&delta).unwrap()
            },
            |()| delete(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// One reply's worth of blocks through `PagedStore::read_many`, on the
/// ledger's `hospital_paged` store (1200 patients, seed 2007, `Opt`, 8 KiB
/// pages): 1200 consecutive block ids with the pool empty (every page a
/// fault and a CRC) and with every page resident.
fn bench_read_blocks(c: &mut Criterion) {
    let doc = hospital::scaled(1200, 2007);
    let (_, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    let dir = std::env::temp_dir().join(format!("exq-micro-read-blocks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions::default();
    drop(PagedDb::attach_new(&mut server, &dir, "micro", opts).unwrap());
    drop(server);
    let open = || PagedStore::open(&dir, opts).unwrap().0;
    let ids: Vec<u64> = (1000..2200).map(block_record_id).collect();
    let read = |store: &PagedStore| {
        let mut bytes = 0;
        let visit = |_, record: std::borrow::Cow<[u8]>| {
            bytes += record.len();
            Ok(())
        };
        store.read_many(&ids, visit).unwrap();
        black_box(bytes)
    };

    let mut group = c.benchmark_group("store/read_blocks_hospital");
    group.bench_function("cold", |b| {
        b.iter_batched(open, |store| read(&store), BatchSize::PerIteration)
    });
    let store = open();
    group.bench_function("warm", |b| b.iter(|| read(&store)));
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The frame checksum at the ledger's kernel size and at the size of a
/// whole-`people` reply.
fn bench_crc32(c: &mut Criterion) {
    let data: Vec<u8> = (0..2_000_000u32).map(|i| (i * 31 + 7) as u8).collect();
    for (name, len) in [
        ("codec/crc32_1mib", 1 << 20),
        ("codec/crc32_2mb", data.len()),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| black_box(exq_core::codec::crc32(&[black_box(&data[..len])])))
        });
    }
}

criterion_group!(
    benches,
    bench_chacha,
    bench_prf,
    bench_ope,
    bench_opess,
    bench_value_index,
    bench_setup,
    bench_dsi,
    bench_sjoin,
    bench_xml_parse,
    bench_cover,
    bench_reply_path,
    bench_sjoin_hospital,
    bench_plain_predicate_hospital,
    bench_update_hospital,
    bench_read_blocks,
    bench_crc32
);
criterion_main!(benches);
