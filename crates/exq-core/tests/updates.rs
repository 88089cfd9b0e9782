//! Update support (the paper's future-work item #3): inserted records are
//! queryable under the same security policy; deleted records vanish.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::{Client, Server};
use exq_xml::Document;

fn hosted(kind: SchemeKind) -> (Client, Server) {
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
        .outsource(&doc, &cs, kind, 77)
        .unwrap()
        .split()
}

const NEW_PATIENT: &str = r#"<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age>
    <insurance><policy coverage="7500">55555</policy></insurance></patient>"#;

#[test]
fn insert_makes_record_queryable() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    client
        .insert(&mut server, "/hospital", NEW_PATIENT, 9)
        .unwrap();

    // Structural query finds three patients now.
    let out = client.query(&server, "//patient/age").unwrap();
    assert_eq!(out.results.len(), 3);

    // The inserted encrypted association is retrievable by value.
    let out = client
        .query(&server, "//patient[pname = 'Zoe']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);

    // Value predicate over the inserted numeric attribute.
    let out = client
        .query(&server, "//patient[.//policy/@coverage = 7500]/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);
}

#[test]
fn insert_respects_encryption_policy() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    let delta = client
        .insert(&mut server, "/hospital", NEW_PATIENT, 9)
        .unwrap();
    // The policy encrypts insurance (node-type SC) and one of pname/SSN.
    assert!(!delta.blocks.is_empty());
    let visible = server.visible_xml();
    assert!(!visible.contains("55555"), "insurance value leaked");
    assert!(!visible.contains("7500"), "coverage leaked");
    assert!(
        !visible.contains("Zoe") || !visible.contains("112233"),
        "pname–SSN association leaked"
    );
    // The inserted record's text is all the visible doc gained.
    assert!(visible.contains(&delta.visible.xml));
}

#[test]
fn multiple_inserts() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    for i in 0..5 {
        let rec = format!(
            "<patient><pname>P{i}</pname><SSN>90000{i}</SSN><age>{}</age></patient>",
            30 + i
        );
        client
            .insert(&mut server, "/hospital", &rec, 100 + i)
            .unwrap();
    }
    let out = client.query(&server, "//patient").unwrap();
    assert_eq!(out.results.len(), 7);
    let out = client
        .query(&server, "//patient[pname = 'P3']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>33</age>"]);
}

#[test]
fn many_sequential_inserts_do_not_exhaust_the_slot() {
    // Regression: naive slot allocation halved the parent's tail gap per
    // insert and died after ~15 records; budgeted strides must sustain far
    // more.
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    for i in 0..100 {
        let rec = format!("<patient><pname>N{i}</pname><SSN>5{i:05}</SSN><age>33</age></patient>");
        client
            .insert(&mut server, "/hospital", &rec, 500 + i)
            .unwrap_or_else(|e| panic!("insert {i} failed: {e}"));
    }
    let out = client.query(&server, "//patient").unwrap();
    assert_eq!(out.results.len(), 102);
    let out = client
        .query(&server, "//patient[pname = 'N73']/SSN")
        .unwrap();
    assert_eq!(out.results, ["<SSN>500073</SSN>"]);
}

#[test]
fn delete_removes_record() {
    let (client, mut server) = hosted(SchemeKind::Opt);
    let outcome = client.delete(&mut server, "//patient[age = 40]").unwrap();
    assert_eq!(outcome.deleted, 1);
    assert_eq!(outcome.skipped_in_block, 0);
    let out = client.query(&server, "//patient/age").unwrap();
    assert_eq!(out.results, ["<age>35</age>"]);
    // Matt's SSN is gone entirely.
    let out = client.query(&server, "//SSN").unwrap();
    assert_eq!(out.results.len(), 1);
}

#[test]
fn delete_then_insert_roundtrip() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    client.delete(&mut server, "//patient[age = 35]").unwrap();
    client
        .insert(&mut server, "/hospital", NEW_PATIENT, 5)
        .unwrap();
    let out = client.query(&server, "//patient/pname").unwrap();
    assert_eq!(out.results.len(), 2);
    let out = client
        .query(&server, "//patient[pname = 'Zoe']/SSN")
        .unwrap();
    assert_eq!(out.results, ["<SSN>112233</SSN>"]);
}

#[test]
fn delete_inside_block_is_refused() {
    let (client, mut server) = hosted(SchemeKind::Opt);
    // policy nodes live inside insurance blocks.
    let outcome = client.delete(&mut server, "//policy").unwrap();
    assert_eq!(outcome.deleted, 0);
    assert!(outcome.skipped_in_block >= 1);
}

#[test]
fn insert_under_missing_parent_fails() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    assert!(client
        .insert(&mut server, "//clinic", NEW_PATIENT, 1)
        .is_err());
}

#[test]
fn top_scheme_rejects_insert() {
    let (mut client, mut server) = hosted(SchemeKind::Top);
    // Under `top`, the root is inside the single block: no visible parent.
    assert!(client
        .insert(&mut server, "/hospital", NEW_PATIENT, 1)
        .is_err());
}

#[test]
fn insert_with_novel_attribute_values() {
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    // A brand-new pname not in the original OPESS domain.
    let rec = "<patient><pname>Aaaaron</pname><SSN>424242</SSN><age>50</age></patient>";
    client.insert(&mut server, "/hospital", rec, 3).unwrap();
    let out = client
        .query(&server, "//patient[pname = 'Aaaaron']/SSN")
        .unwrap();
    assert_eq!(out.results, ["<SSN>424242</SSN>"]);
}

#[test]
fn aggregate_sees_inserted_values() {
    use exq_core::aggregate::Aggregate;
    let (mut client, mut server) = hosted(SchemeKind::Opt);
    client
        .insert(&mut server, "/hospital", NEW_PATIENT, 9)
        .unwrap();
    let min = client
        .aggregate(&server, "//policy/@coverage", Aggregate::Min)
        .unwrap();
    assert_eq!(min.value.as_deref(), Some("5000"));
    let count = client
        .aggregate(&server, "//patient", Aggregate::Count)
        .unwrap();
    assert_eq!(count.value.as_deref(), Some("3"));
}

/// A hospital of `patients` records in the shape of the benchmark's
/// generator: pname, SSN, age, one or two treats, one insured policy.
fn hospital(patients: usize) -> Document {
    const NAMES: [&str; 5] = ["Betty", "Matt", "Mary", "John", "Ann"];
    const DISEASES: [&str; 5] = ["diarrhea", "leukemia", "flu", "measles", "asthma"];
    const DOCTORS: [&str; 5] = ["Smith", "Brown", "Walker", "Lee", "Garcia"];
    let mut xml = String::from("<hospital>");
    for i in 0..patients {
        xml += &format!(
            "<patient><pname>{}</pname><SSN>{:06}</SSN><age>{}</age>",
            NAMES[i % 5],
            100000 + i * 7919 % 900000,
            20 + (i * 13) % 60
        );
        for t in 0..1 + i % 2 {
            xml += &format!(
                "<treat><disease>{}</disease><doctor>{}</doctor></treat>",
                DISEASES[(i + t) % 5],
                DOCTORS[(i * 3 + t) % 5]
            );
        }
        xml += &format!(
            "<insurance><policy coverage=\"{}\">{:05}</policy></insurance></patient>",
            1000 * (1 + i * 37 % 999),
            10000 + i * 131
        );
    }
    Document::parse(&(xml + "</hospital>")).unwrap()
}

/// Inserts and deletes rebuild the matcher's per-position arrays (visible
/// node, enclosing block): after each mutation every query template of the
/// benchmark's point workload answers as the plaintext twin does, including
/// a plaintext lookup and an encrypted range that select an inserted record.
#[test]
fn mutations_keep_point_queries_equal_to_the_plaintext_twin() {
    use exq_xml::NodeKind;
    use exq_xpath::{eval_document, Path};
    let doc = hospital(12);
    let cs: Vec<SecurityConstraint> = [
        "//insurance",
        "//patient:(/pname, /SSN)",
        "//patient:(/pname, //disease)",
        "//treat:(/disease, /doctor)",
    ]
    .iter()
    .map(|s| SecurityConstraint::parse(s).unwrap())
    .collect();
    let (mut client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let mut twin = doc;
    let records = [
        "<patient><pname>Quinn</pname><SSN>990001</SSN><age>77</age>\
         <treat><disease>flu</disease><doctor>Lee</doctor></treat>\
         <insurance><policy coverage=\"999000\">55501</policy></insurance></patient>",
        "<patient><pname>Rosa</pname><SSN>990002</SSN><age>41</age>\
         <treat><disease>asthma</disease><doctor>Walker</doctor></treat>\
         <insurance><policy coverage=\"2000\">55502</policy></insurance></patient>",
    ];
    // The eight templates, with constants that reach the inserted records
    // and constants that reach the original ones.
    let queries = [
        "//patient[age > 75]/pname",
        "//patient[age > 50]/pname",
        "//patient[age = 41]//doctor",
        "//patient[age = 46]//doctor",
        "//patient[SSN = '990001']/pname",
        "//patient[SSN = '990002']/pname",
        "//patient[SSN = '107919']/pname",
        "//patient[pname = 'Rosa']/SSN",
        "//patient[pname = 'Mary']/SSN",
        "//treat[disease = 'flu']/doctor",
        "//treat[disease = 'asthma']/doctor",
        "//policy[@coverage > 990000]",
        "//policy[@coverage > 300000]",
        "//patient[age > 75]/insurance/policy",
        "//patient[age > 30]/insurance/policy",
        "//patient[.//policy[@coverage < 3000]]/pname",
        "//patient[.//policy[@coverage < 500000]]/pname",
    ];
    let check = |client: &Client, server: &Server, twin: &Document, step: &str| {
        for q in queries {
            let mut plain: Vec<String> = eval_document(twin, &Path::parse(q).unwrap())
                .into_iter()
                .map(|n| match twin.node(n).kind() {
                    NodeKind::Element(_) => twin.node_to_xml(n),
                    _ => twin.text_value(n),
                })
                .collect();
            let mut secure = client.query(server, q).unwrap().results;
            plain.sort();
            secure.sort();
            assert_eq!(secure, plain, "{q} after {step}");
        }
    };
    check(&client, &server, &twin, "outsourcing");
    for (i, record) in records.iter().enumerate() {
        client
            .insert(&mut server, "/hospital", record, 40 + i as u64)
            .unwrap();
        let rec = Document::parse(record).unwrap();
        let root = twin.root();
        rec.clone_subtree_into(rec.root().unwrap(), &mut twin, root);
        check(&client, &server, &twin, &format!("insert {i}"));
    }
    let victim = "//patient[SSN = '107919']";
    assert_eq!(client.delete(&mut server, victim).unwrap().deleted, 1);
    for v in eval_document(&twin, &Path::parse(victim).unwrap()) {
        twin.detach(v);
    }
    check(&client, &server, &twin, "delete");
    // The inserted records are still reached by a plaintext lookup and by an
    // encrypted range, past the delete's rebuild.
    let out = client
        .query(&server, "//patient[SSN = '990001']/pname")
        .unwrap();
    assert_eq!(out.results, ["<pname>Quinn</pname>"]);
    let out = client
        .query(&server, "//policy[@coverage > 990000]")
        .unwrap();
    assert_eq!(out.results, ["<policy coverage=\"999000\">55501</policy>"]);
}

/// A record inserted under a patient that is not the last takes the next
/// block ids, higher than every block after it: a reply ships its blocks in
/// document order, not by id, their offsets ascend, and the answers are the
/// plaintext twin's, in document order.
#[test]
fn an_insert_under_a_middle_patient_ships_its_block_in_document_order() {
    use exq_xml::NodeKind;
    use exq_xpath::{eval_document, Path};
    let mut twin = hospital(6);
    let cs: Vec<SecurityConstraint> = ["//insurance", "//patient:(/pname, /SSN)"]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect();
    let (mut client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&twin, &cs, SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let record = "<insurance><policy coverage=\"999000\">55501</policy></insurance>";
    let sq = client
        .translate("/hospital/patient")
        .unwrap()
        .server_query
        .unwrap();
    let middle = server.locate(&sq)[2];
    let slot = server.insertion_slot(middle).unwrap();
    let delta = client.prepare_insert(&slot, record, 9).unwrap();
    let inserted = delta.blocks[0].id;
    server.apply_insert(&delta).unwrap();
    let rec = Document::parse(record).unwrap();
    let patient = twin.elements_by_tag("patient")[2];
    rec.clone_subtree_into(rec.root().unwrap(), &mut twin, Some(patient));
    // Read again, so that node ids, and the evaluator's order, are
    // document order.
    let twin = Document::parse(&twin.to_xml()).unwrap();

    for q in [
        "//patient/insurance/policy",
        "//insurance",
        "//policy[@coverage > 990000]",
        "//patient[.//policy[@coverage > 990000]]/age",
        "/hospital/patient",
    ] {
        let mut link = exq_core::transport::InProcess::shared(&server);
        let (_, resp, post) = client.run(&mut link, q).unwrap();
        assert!(resp.offsets.windows(2).all(|w| w[0] <= w[1]), "{q}");
        let ids: Vec<u32> = resp.blocks.iter().map(|b| b.id).collect();
        if q == "//insurance" {
            let at = ids.iter().position(|&id| id == inserted).unwrap();
            assert!(at + 1 < ids.len() && ids[at + 1] < inserted, "{q}: {ids:?}");
        }
        let plain: Vec<String> = eval_document(&twin, &Path::parse(q).unwrap())
            .into_iter()
            .map(|n| match twin.node(n).kind() {
                NodeKind::Element(_) => twin.node_to_xml(n),
                _ => twin.text_value(n),
            })
            .collect();
        assert!(!plain.is_empty(), "{q}");
        assert_eq!(post.results, plain, "{q}");
    }
}

/// The matcher's indexes — the DSI table's universe and posting lists, the
/// block table and the visible-node array — are rebuilt in place by
/// every insert and delete. After each mutation the server must reply as a
/// server freshly loaded from its own saved bytes does, which builds them
/// from scratch: the same pruned document and the same block ids, witnesses
/// of nested and inserted records included.
#[test]
fn mutated_server_replies_equal_a_reloaded_one() {
    let doc = hospital(10);
    let cs: Vec<SecurityConstraint> = ["//insurance", "//patient:(/pname, /SSN)"]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect();
    let (mut client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    let queries = [
        "//patient[age > 50]/pname",
        "//patient[SSN = '990001']/pname",
        "//patient[.//policy[@coverage < 500000]]/pname",
        "//patient[treat/disease = 'flu'][age > 30]//doctor",
        "//hospital[patient/age = 77]/patient/SSN",
        "//treat[disease = 'flu']/doctor",
        "//policy[@coverage > 990000]",
    ];
    let same_replies = |client: &Client, server: &Server, step: &str| {
        let reloaded = Server::load_bytes(&server.save_bytes().unwrap()).unwrap();
        for q in queries {
            let sq = client.translate(q).unwrap().server_query.unwrap();
            let (live, fresh) = (server.answer(&sq).unwrap(), reloaded.answer(&sq).unwrap());
            assert_eq!(live.pruned_xml, fresh.pruned_xml, "{q} after {step}");
            let ids = |r: &exq_core::wire::ServerResponse| {
                r.blocks.iter().map(|b| b.id).collect::<Vec<_>>()
            };
            assert_eq!(ids(&live), ids(&fresh), "{q} after {step}");
        }
    };
    same_replies(&client, &server, "outsourcing");
    let record = "<patient><pname>Quinn</pname><SSN>990001</SSN><age>77</age>\
                  <treat><disease>flu</disease><doctor>Lee</doctor></treat>\
                  <insurance><policy coverage=\"999000\">55501</policy></insurance></patient>";
    client.insert(&mut server, "/hospital", record, 41).unwrap();
    same_replies(&client, &server, "insert");
    let out = client
        .query(&server, "//patient[SSN = '990001']/pname")
        .unwrap();
    assert_eq!(out.results, ["<pname>Quinn</pname>"]);
    assert_eq!(
        client
            .delete(&mut server, "//patient[age = 20]")
            .unwrap()
            .deleted,
        1
    );
    same_replies(&client, &server, "delete");
}

/// The server keeps a number per position for a leaf's value. An insert
/// under one patient's `age` makes that age no leaf (its value `46years`
/// compares as text), and a delete before it moves every later position:
/// after each, `[age = K]` and `[age > K]` answer as the plaintext twin
/// does and reply as a server reloaded from its own bytes does.
#[test]
fn a_leaf_that_gains_a_child_drops_its_number() {
    use exq_xml::NodeKind;
    use exq_xpath::{eval_document, Path};
    let mut twin = hospital(12);
    let cs: Vec<SecurityConstraint> = ["//insurance", "//patient:(/pname, /SSN)"]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect();
    let (mut client, mut server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&twin, &cs, SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    // Patient 2 is the one aged 46, patient 0 the one aged 20.
    let queries = [
        "//patient[age = 46]/pname",
        "//patient[age != 46]/pname",
        "//patient[age > 45]/pname",
        "//patient[age > 50]/SSN",
        "//patient[age < 47]/pname",
        "//patient[age = 43]//doctor",
        "//patient[age >= 20]/age",
    ];
    let check = |client: &Client, server: &Server, twin: &Document, step: &str| {
        let reloaded = Server::load_bytes(&server.save_bytes().unwrap()).unwrap();
        for q in queries {
            let mut plain: Vec<String> = eval_document(twin, &Path::parse(q).unwrap())
                .into_iter()
                .map(|n| match twin.node(n).kind() {
                    NodeKind::Element(_) => twin.node_to_xml(n),
                    _ => twin.text_value(n),
                })
                .collect();
            let mut secure = client.query(server, q).unwrap().results;
            plain.sort();
            secure.sort();
            assert_eq!(secure, plain, "{q} after {step}");
            let sq = client.translate(q).unwrap().server_query.unwrap();
            let (live, fresh) = (server.answer(&sq).unwrap(), reloaded.answer(&sq).unwrap());
            assert_eq!(live.pruned_xml, fresh.pruned_xml, "{q} after {step}");
            assert_eq!(live.offsets, fresh.offsets, "{q} after {step}");
        }
    };
    check(&client, &server, &twin, "outsourcing");
    let unit = "<unit>years</unit>";
    client
        .insert(&mut server, "//patient[age = 46]/age", unit, 5)
        .unwrap();
    let rec = Document::parse(unit).unwrap();
    let age = twin.elements_by_tag("age")[2];
    rec.clone_subtree_into(rec.root().unwrap(), &mut twin, Some(age));
    assert_eq!(twin.text_value(age), "46years");
    check(&client, &server, &twin, "the insert under an age");
    let out = client.query(&server, "//patient[age = 46]/pname").unwrap();
    assert!(out.results.is_empty(), "{:?}", out.results);
    let victim = "//patient[age = 20]";
    assert_eq!(client.delete(&mut server, victim).unwrap().deleted, 1);
    for v in eval_document(&twin, &Path::parse(victim).unwrap()) {
        twin.detach(v);
    }
    check(&client, &server, &twin, "the delete before it");
}

/// An inserted block's nonce is a PRF of its id and its plaintext. Two
/// different records prepared against one slot (a refused insert retried
/// with another record) get the same block ids, and under one nonce their
/// blocks would be a two-time pad and hand the server one Poly1305 key for
/// two messages: their nonces differ. The same record prepared twice seals
/// to the same bytes, as WAL replay needs.
#[test]
fn insert_nonces_differ_between_records_and_repeat_for_one() {
    let (mut client, server) = hosted(SchemeKind::Opt);
    let sq = client.translate("/hospital").unwrap().server_query.unwrap();
    let slot = server.insertion_slot(server.locate(&sq)[0]).unwrap();
    let other = r#"<patient><pname>Ann</pname><SSN>445566</SSN><age>31</age>
    <insurance><policy coverage="8200">66666</policy></insurance></patient>"#;
    let first = client.prepare_insert(&slot, NEW_PATIENT, 3).unwrap();
    let second = client.prepare_insert(&slot, other, 3).unwrap();
    assert!(!first.blocks.is_empty());
    assert_eq!(first.blocks.len(), second.blocks.len());
    for (a, b) in first.blocks.iter().zip(&second.blocks) {
        assert_eq!(a.id, b.id);
        assert_ne!(
            a.nonce, b.nonce,
            "block {}: one nonce for two records",
            a.id
        );
    }
    let again = client.prepare_insert(&slot, NEW_PATIENT, 3).unwrap();
    assert_eq!(again.blocks, first.blocks);
}

/// Set-up labels a trailing text child too, but persistence keys intervals
/// of elements and attributes only, and nothing reads a text interval. So
/// no server counts one: a live server and the same server reopened from
/// its bytes offer the same slot, and an insert lands alike in both.
#[test]
fn a_reopened_server_offers_the_live_insertion_slot() {
    let doc = Document::parse(
        "<hospital><patient><pname>Betty</pname><SSN>763895</SSN><age>35</age></patient>\
         trailing text</hospital>",
    )
    .unwrap();
    let cs = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
    let (mut client, mut live) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 77)
        .unwrap()
        .split();
    let mut reopened = Server::load_bytes(&live.save_bytes().unwrap()).unwrap();
    let sq = client.translate("/hospital").unwrap().server_query.unwrap();
    let parent = live.locate(&sq)[0];
    assert_eq!(reopened.locate(&sq), [parent]);
    let slot = live.insertion_slot(parent).unwrap();
    assert_eq!(reopened.insertion_slot(parent).unwrap(), slot);
    let record = "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>";
    let delta = client.prepare_insert(&slot, record, 5).unwrap();
    live.apply_insert(&delta).unwrap();
    reopened.apply_insert(&delta).unwrap();
    assert_eq!(live.save_bytes().unwrap(), reopened.save_bytes().unwrap());
    let out = client
        .query(&reopened, "//patient[pname = 'Zoe']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);
}

/// A delta whose intervals are not one nested run strictly inside the slot
/// — or whose fragment and blocks do not match them — is refused with a
/// typed error before the WAL sees it: the log stays as deep, the replies
/// and the saved bytes stay as they were, and a good delta still applies.
#[test]
fn hostile_deltas_are_refused_before_the_wal() {
    use exq_core::store::{PagedDb, StoreOptions};
    use exq_core::update::InsertDelta;
    use exq_core::CoreError;
    use exq_index::dsi::Interval;

    let (mut client, resident) = hosted(SchemeKind::Opt);
    let dir = std::env::temp_dir().join(format!("exq-hostile-delta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.exq");
    resident.save(&path).unwrap();
    let (mut paged, db, _) =
        PagedDb::open_or_migrate(&path, "hostile", StoreOptions::default()).unwrap();
    let sq = client.translate("/hospital").unwrap().server_query.unwrap();
    let parent = paged.locate(&sq)[0];
    let slot = paged.insertion_slot(parent).unwrap();
    let good = client.prepare_insert(&slot, NEW_PATIENT, 3).unwrap();

    let queries = [
        "//patient/age",
        "//patient[pname = 'Betty']/SSN",
        "//policy[@coverage > 2000]",
    ];
    let replies = |s: &Server| -> Vec<(String, Vec<u32>)> {
        queries
            .iter()
            .map(|q| {
                let sq = client.translate(q).unwrap().server_query.unwrap();
                let r = s.answer(&sq).unwrap();
                (r.pruned_xml, r.blocks.iter().map(|b| b.id).collect())
            })
            .collect()
    };
    let before = replies(&paged);
    let bytes = paged.save_bytes().unwrap();
    let depth = db.footprint().wal_depth;

    let root = good.dsi_entries.iter().map(|&(_, iv)| iv).min().unwrap();
    let with_entry = |iv: Interval| {
        let mut d = good.clone();
        d.dsi_entries.push(("age".to_owned(), iv));
        d
    };
    let mut hostile: Vec<(&str, InsertDelta)> = vec![
        (
            "inverted",
            with_entry(Interval {
                lo: root.hi - 2,
                hi: root.lo + 2,
            }),
        ),
        ("already present", with_entry(paged.locate(&sq)[0])),
        (
            "before the gap",
            with_entry(Interval {
                lo: slot.gap_lo - 1,
                hi: root.lo + 1,
            }),
        ),
        (
            "overlapping",
            with_entry(Interval {
                lo: root.lo + 1,
                hi: root.hi + 1,
            }),
        ),
        (
            "a second root",
            with_entry(Interval {
                lo: root.hi + 1,
                hi: root.hi + 2,
            }),
        ),
    ];
    let mut d = good.clone();
    d.block_entries[0].0 = Interval {
        lo: root.lo + 1,
        hi: root.lo + 2,
    };
    hostile.push(("a block outside the run", d));
    let mut d = good.clone();
    d.blocks[0].id += 1;
    hostile.push(("a block id taken", d));
    let mut d = good.clone();
    d.dsi_entries.clear();
    hostile.push(("no DSI entries", d));
    let mut d = good.clone();
    d.visible.intervals[0].1 = Interval { lo: 1, hi: 2 };
    hostile.push(("the root's interval outside the slot", d));
    // Two sibling elements' intervals swapped: each still nests in the
    // parent's, but not after its preceding sibling's.
    let mut d = good.clone();
    let ivs = &mut d.visible.intervals;
    let (first, second) = (ivs[1].1, ivs[2].1);
    (ivs[1].1, ivs[2].1) = (second, first);
    hostile.push(("siblings out of order", d));
    let mut d = good.clone();
    d.parent = Interval {
        lo: parent.lo + 1,
        hi: parent.hi - 1,
    };
    hostile.push(("no such parent", d));
    // A visible element renamed: its interval is filed under `age`, so
    // `//patient/age` would silently drop the inserted patient.
    let mut d = good.clone();
    assert!(d.visible.xml.contains("<age>29</age>"), "{}", d.visible.xml);
    d.visible.xml = d.visible.xml.replace("<age>29</age>", "<agf>29</agf>");
    hostile.push(("a mislabelled element", d));

    for (why, delta) in &hostile {
        let err = paged.apply_insert(delta).unwrap_err();
        let typed = matches!(err, CoreError::Delta(_))
            || (*why == "no such parent" && matches!(err, CoreError::Query(_)));
        assert!(typed, "{why}: {err}");
        assert_eq!(db.footprint().wal_depth, depth, "{why} reached the WAL");
        assert_eq!(replies(&paged), before, "{why} changed a reply");
    }
    // The refusal keeps its type across the wire.
    let overlapping = &hostile
        .iter()
        .find(|(why, _)| *why == "overlapping")
        .unwrap()
        .1;
    let mut link = exq_core::transport::InProcess::exclusive(&mut paged);
    let err = exq_core::transport::Transport::apply_insert(&mut link, overlapping).unwrap_err();
    assert!(matches!(err, CoreError::Delta(_)), "{err}");
    assert_eq!(paged.save_bytes().unwrap(), bytes);
    paged.apply_insert(&good).unwrap();
    assert_eq!(db.footprint().wal_depth, depth + 1);
    let out = client
        .query(&paged, "//patient[pname = 'Zoe']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);
    drop((paged, db));
    std::fs::remove_dir_all(&dir).ok();
}

/// How a hostile `ApplyInsert` differs from a good one.
#[derive(Debug, Clone)]
enum Damage {
    /// The frame cut short at a byte.
    Truncate(usize),
    /// One bit of the frame flipped.
    Flip(usize, u8),
    /// The fragment's pair count replaced by one the payload cannot hold.
    CountBomb(u64),
    /// A pair written twice.
    Duplicate(usize),
    /// Two pairs swapped.
    Swap(usize, usize),
    /// A pair's ordinal moved past the fragment's last node.
    PastTheEnd(usize, u32),
    /// A pair's interval moved below the insertion slot, out of the run.
    Outside(usize, u64),
}

fn damage() -> impl proptest::prelude::Strategy<Value = Damage> {
    use proptest::prelude::*;
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 0..8u8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        (1u64 << 40..u64::MAX >> 1).prop_map(Damage::CountBomb),
        any::<usize>().prop_map(Damage::Duplicate),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Damage::Swap(i, j)),
        (any::<usize>(), 0..1000u32).prop_map(|(i, k)| Damage::PastTheEnd(i, k)),
        (any::<usize>(), any::<u64>()).prop_map(|(i, x)| Damage::Outside(i, x)),
    ]
}

/// A damaged `ApplyInsert` — its frame's bytes, its pair count, or its
/// fragment's pairs — is a typed error: a `CodecError` from the frame or
/// the payload (a count is checked against the bytes left before anything
/// is allocated for it), or `CoreError::Delta` from the server's reader.
/// Never a panic, and nothing reaches the WAL or moves a reply.
#[test]
fn damaged_insert_payloads_are_typed_errors_before_the_wal() {
    use exq_core::codec::{CodecError, Message, WireCodec};
    use exq_core::store::{PagedDb, StoreOptions};
    use exq_core::update::InsertDelta;
    use exq_core::{CoreError, VisibleFragment};
    use exq_index::dsi::Interval;
    use proptest::prelude::Strategy;

    let (mut client, resident) = hosted(SchemeKind::Opt);
    let dir = std::env::temp_dir().join(format!("exq-damaged-delta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut paged = resident;
    let db = PagedDb::attach_new(&mut paged, &dir, "damaged", StoreOptions::default()).unwrap();
    let sq = client.translate("/hospital").unwrap().server_query.unwrap();
    let parent = paged.locate(&sq)[0];
    let slot = paged.insertion_slot(parent).unwrap();
    let good = client.prepare_insert(&slot, NEW_PATIENT, 3).unwrap();
    let frame = Message::ApplyInsert(good.clone()).encode_frame();
    let payload = good.encode();
    // Where the pair count sits: after the parent and the fragment's text,
    // which is everything an encoding with no lists holds but its six
    // zero counts.
    let head = InsertDelta {
        visible: VisibleFragment {
            xml: good.visible.xml.clone(),
            intervals: Vec::new(),
            blocks: Vec::new(),
        },
        blocks: Vec::new(),
        dsi_entries: Vec::new(),
        block_entries: Vec::new(),
        value_entries: Vec::new(),
        ..good.clone()
    };
    let count_at = head.encode().len() - 6;
    assert_eq!(payload[count_at] as usize, good.visible.intervals.len());
    let saved = paged.save_bytes().unwrap();
    let depth = db.footprint().wal_depth;

    let mut rng = proptest::rng_for_test("damaged_insert_payloads_are_typed_errors_before_the_wal");
    for _ in 0..256 {
        let d = damage().generate(&mut rng);
        let pairs = good.visible.intervals.len();
        let mut delta = good.clone();
        let ivs = &mut delta.visible.intervals;
        let bytes_refused = match d {
            Damage::Truncate(at) => Some(Message::decode_frame(&frame[..at % frame.len()]).err()),
            Damage::Flip(at, bit) => {
                let mut flipped = frame.clone();
                flipped[at % frame.len()] ^= 1 << bit;
                Some(Message::decode_frame(&flipped).err())
            }
            Damage::CountBomb(n) => {
                let mut bombed = payload[..count_at].to_vec();
                let mut n = n;
                while n >= 0x80 {
                    bombed.push(n as u8 | 0x80);
                    n >>= 7;
                }
                bombed.push(n as u8);
                bombed.extend_from_slice(&payload[count_at + 1..]);
                let err = InsertDelta::decode(&bombed).err();
                assert_eq!(err, Some(CodecError::CountOverflow), "{d:?}");
                Some(err)
            }
            Damage::Duplicate(i) => {
                let pair = ivs[i % pairs];
                ivs.insert(i % pairs, pair);
                None
            }
            Damage::Swap(i, j) => {
                let (i, j) = (i % pairs, j % pairs);
                if i == j {
                    continue;
                }
                ivs.swap(i, j);
                None
            }
            Damage::PastTheEnd(i, k) => {
                ivs[i % pairs].0 = 1000 + k;
                None
            }
            Damage::Outside(i, x) => {
                let lo = x % (slot.gap_lo - 1);
                ivs[i % pairs].1 = Interval { lo, hi: lo + 1 };
                None
            }
        };
        match bytes_refused {
            Some(err) => assert!(err.is_some(), "{d:?}: damaged bytes decoded"),
            None => {
                // The damage survives the wire, and the server refuses it.
                let frame = Message::ApplyInsert(delta).encode_frame();
                let Ok(Message::ApplyInsert(delta)) = Message::decode_frame(&frame) else {
                    panic!("{d:?}: a well-formed frame did not decode");
                };
                let err = paged.apply_insert(&delta).unwrap_err();
                assert!(matches!(err, CoreError::Delta(_)), "{d:?}: {err}");
            }
        }
        assert_eq!(db.footprint().wal_depth, depth, "{d:?} reached the WAL");
    }
    assert_eq!(paged.save_bytes().unwrap(), saved);
    paged.apply_insert(&good).unwrap();
    assert_eq!(db.footprint().wal_depth, depth + 1);
    drop((paged, db));
    std::fs::remove_dir_all(&dir).ok();
}
