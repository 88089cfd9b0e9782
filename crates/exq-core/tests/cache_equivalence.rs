//! Cached vs. uncached equivalence: the server's response cache must be
//! **bit-for-bit invisible** — same
//! `pruned_xml` bytes, same block sets, same client results — across cold
//! runs, warm (hit) runs, and interleaved updates that invalidate entries
//! mid-stream.
//!
//! This is the contract that makes `--cache-entries` purely a performance
//! knob.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::transport::InProcess;
use exq_core::{Client, Server};
use exq_xml::Document;

/// Same generator as the parallel-equivalence suite: large enough that
/// value predicates resolve real ranges and answers ship several blocks.
fn big_hospital(patients: usize) -> Document {
    let mut xml = String::from("<hospital>");
    let diseases = ["flu", "measles", "leukemia", "diarrhea", "asthma"];
    let doctors = ["Smith", "Walker", "Brown", "Jones", "Lee"];
    for i in 0..patients {
        let age = 20 + (i * 7) % 60;
        let coverage = 1000 * (1 + (i * 13) % 900);
        xml.push_str(&format!(
            "<patient id=\"{i}\"><pname>P{i}</pname><SSN>{:06}</SSN><age>{age}</age>\
             <treat><disease>{}</disease><doctor>{}</doctor></treat>\
             <insurance><policy coverage=\"{coverage}\">{:05}</policy></insurance>\
             </patient>",
            100000 + i * 37,
            diseases[i % diseases.len()],
            doctors[(i / 2) % doctors.len()],
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

/// Outsourcing is deterministic in (doc, constraints, scheme, seed), so two
/// calls produce identical client/server twins we can drive in lockstep.
fn hosted() -> (Client, Server) {
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&big_hospital(40), &constraints(), SchemeKind::Opt, 23)
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
    "//patient[age > 30 and .//disease = 'measles']",
    "//treat[disease = 'leukemia']/doctor",
    "//insurance/policy",
    "//nosuchtag",
];

fn record(i: usize) -> String {
    format!(
        "<patient><pname>New{i}</pname><SSN>{:06}</SSN><age>{}</age>\
         <treat><disease>flu</disease><doctor>Lee</doctor></treat></patient>",
        900000 + i,
        25 + i
    )
}

/// Cold-miss, warm-hit, and disabled answers are byte-identical for every
/// query, and the warm pass really is served from the cache.
#[test]
fn cached_answers_are_bit_identical_to_uncached() {
    let (client, mut server) = hosted();
    for q in QUERIES {
        let sq = match client.translate(q).unwrap().server_query {
            Some(sq) => sq,
            None => continue,
        };
        server.set_cache_entries(Some(0));
        let reference = server.answer(&sq).unwrap();

        server.set_cache_entries(Some(256));
        let cold = server.answer(&sq).unwrap();
        let hits_before = server.cache_stats().response_hits;
        let warm = server.answer(&sq).unwrap();
        assert!(
            server.cache_stats().response_hits > hits_before,
            "warm pass for {q} did not hit the response cache"
        );

        for (label, resp) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                resp.pruned_xml, reference.pruned_xml,
                "pruned_xml diverged for {q} ({label} cache)"
            );
            assert_eq!(
                resp.blocks, reference.blocks,
                "block set diverged for {q} ({label} cache)"
            );
        }
    }
}

/// Full client round trips agree between a cache-enabled and a cache-
/// disabled twin server, with every query run twice so the second pass
/// exercises the hit path.
#[test]
fn client_results_match_across_cache() {
    let (client, mut on) = hosted();
    let (_, mut off) = hosted();
    on.set_cache_entries(Some(256));
    off.set_cache_entries(Some(0));

    for _pass in 0..2 {
        for q in QUERIES {
            let mut link_on = InProcess::shared(&on);
            let mut link_off = InProcess::shared(&off);
            let (_, resp_on, post_on) = client.run(&mut link_on, q).unwrap();
            let (_, resp_off, post_off) = client.run(&mut link_off, q).unwrap();
            assert_eq!(
                resp_on.pruned_xml, resp_off.pruned_xml,
                "pruned_xml diverged for {q}"
            );
            assert_eq!(
                resp_on.blocks, resp_off.blocks,
                "block set diverged for {q}"
            );
            assert_eq!(
                post_on.results, post_off.results,
                "results diverged for {q}"
            );
        }
    }
    assert!(
        on.cache_stats().response_hits > 0,
        "second pass never hit the cache"
    );
}

/// An insert between two identical queries must change the second answer:
/// the generation bump invalidates the cached response.
#[test]
fn insert_invalidates_cached_answers() {
    let (mut client, mut server) = hosted();
    server.set_cache_entries(Some(256));
    let client_t = client.clone();

    let q = "//patient[.//disease = 'flu']/pname";
    let before = {
        let mut link = InProcess::shared(&server);
        // Twice: the second answer comes from the cache.
        client_t.run(&mut link, q).unwrap();
        client_t.run(&mut link, q).unwrap().2
    };
    assert!(!before.results.iter().any(|r| r.contains("New1")));

    client
        .insert(&mut server, "/hospital", &record(1), 77)
        .unwrap();

    let after = {
        let mut link = InProcess::shared(&server);
        client_t.run(&mut link, q).unwrap().2
    };
    assert!(
        after.results.iter().any(|r| r.contains("New1")),
        "insert invisible after cached query: {:?}",
        after.results
    );
    assert_eq!(after.results.len(), before.results.len() + 1);
}

/// A delete between two identical queries must shrink the second answer,
/// and re-asked queries must not ship tombstoned blocks.
#[test]
fn delete_invalidates_cached_answers() {
    let (client, mut server) = hosted();
    server.set_cache_entries(Some(256));
    let client_t = client.clone();

    let q = "//patient/pname";
    let before = {
        let mut link = InProcess::shared(&server);
        client_t.run(&mut link, q).unwrap();
        client_t.run(&mut link, q).unwrap().2
    };

    let out = client.delete(&mut server, "//patient[age = 27]").unwrap();
    assert!(out.deleted > 0, "delete matched nothing");

    let after = {
        let mut link = InProcess::shared(&server);
        client_t.run(&mut link, q).unwrap().2
    };
    assert_eq!(
        after.results.len(),
        before.results.len() - out.deleted,
        "delete invisible after cached query"
    );

    // Tombstoned blocks must not resurface from the cache: every
    // shipped block still exists on the server.
    let sq = client_t.translate(q).unwrap().server_query.unwrap();
    let resp = server.answer(&sq).unwrap();
    for b in &resp.blocks {
        assert!(
            server.fetch_block(b.id).unwrap().is_some(),
            "response shipped tombstoned block {}",
            b.id
        );
    }
}

/// Lockstep soak: interleave queries with inserts and deletes; a cached
/// and an uncached twin must agree on every answer at every step.
#[test]
fn interleaved_updates_stay_equivalent() {
    let (mut client_on, mut on) = hosted();
    let (mut client_off, mut off) = hosted();
    on.set_cache_entries(Some(64));
    off.set_cache_entries(Some(0));

    let check_all = |on: &Server, off: &Server, client: &Client, round: usize| {
        for q in QUERIES {
            // Twice per round so the cached twin answers from the cache.
            for pass in 0..2 {
                let mut link_on = InProcess::shared(on);
                let mut link_off = InProcess::shared(off);
                let (_, resp_on, post_on) = client.run(&mut link_on, q).unwrap();
                let (_, resp_off, post_off) = client.run(&mut link_off, q).unwrap();
                assert_eq!(
                    resp_on.pruned_xml, resp_off.pruned_xml,
                    "pruned_xml diverged for {q} (round {round}, pass {pass})"
                );
                assert_eq!(resp_on.blocks, resp_off.blocks, "{q} round {round}");
                assert_eq!(post_on.results, post_off.results, "{q} round {round}");
            }
        }
    };

    check_all(&on, &off, &client_on, 0);

    for round in 1..=3 {
        // Twin clients are identical, so identical calls yield identical
        // deltas against identical servers.
        let rec = record(round);
        client_on
            .insert(&mut on, "/hospital", &rec, 100 + round as u64)
            .unwrap();
        client_off
            .insert(&mut off, "/hospital", &rec, 100 + round as u64)
            .unwrap();
        check_all(&on, &off, &client_on, round);
    }

    let d_on = client_on.delete(&mut on, "//patient[age = 26]").unwrap();
    let d_off = client_off.delete(&mut off, "//patient[age = 26]").unwrap();
    assert_eq!(d_on.deleted, d_off.deleted);
    assert!(d_on.deleted > 0, "soak delete matched nothing");
    check_all(&on, &off, &client_on, 4);

    let stats = on.cache_stats();
    assert!(
        stats.response_hits > 0,
        "soak never hit the cache: {stats:?}"
    );
    assert!(
        stats.generation >= 4,
        "updates did not bump the generation: {stats:?}"
    );
}
