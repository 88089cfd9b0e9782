//! How many allocations one `Client::post_process` makes. The reply is
//! reconstructed as one text and one node array, the post query reuses its
//! node lists, and each result is one copied slice: so the count is one per
//! result plus a constant, however many nodes, blocks or predicate checks
//! the reply brings. Counted by a global allocator, on the calling thread
//! only, so the test harness's other threads do not add to it.

use encrypted_xml::core::scheme::SchemeKind;
use encrypted_xml::core::system::{OutsourceConfig, Outsourcer};
use encrypted_xml::core::transport::InProcess;
use encrypted_xml::core::Client;
use encrypted_xml::workload::{hospital, xmark};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn bump() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the most `post_process` may make beyond one per result.
const CONSTANT: usize = 256;

/// `(results, allocations)` of one `post_process` of `query`'s reply.
fn count(client: &Client, server: &encrypted_xml::core::Server, query: &str) -> (usize, usize) {
    let (tq, resp, _) = client.run(&mut InProcess::shared(server), query).unwrap();
    COUNT.with(|c| c.set(Some(0)));
    let post = client.post_process(&tq.post_query, &resp);
    let allocations = COUNT.with(|c| c.replace(None)).unwrap();
    let results = post.unwrap().results.len();
    eprintln!(
        "{query}: {results} results, {} blocks, {allocations} allocations",
        resp.blocks.len()
    );
    (results, allocations)
}

#[test]
fn post_process_allocates_once_per_result_plus_a_constant() {
    let people = xmark::generate(&xmark::XmarkConfig {
        target_bytes: 1 << 20,
        seed: 2006,
    });
    let (client, server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&people, &xmark::constraints(), SchemeKind::Opt, 2006)
        .unwrap()
        .split();
    let patients = hospital::scaled(1200, 2007);
    let (other, other_server) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&patients, &hospital::constraints(), SchemeKind::Opt, 2007)
        .unwrap()
        .split();
    for (client, server, query) in [
        (&client, &server, "/site/people/person//name"),
        (&other, &other_server, "//patient[age > 50]/pname"),
    ] {
        let (results, allocations) = count(client, server, query);
        assert!(results > 100, "{query}");
        assert!(
            allocations <= results + CONSTANT,
            "{query}: {allocations} allocations for {results} results"
        );
    }
}
