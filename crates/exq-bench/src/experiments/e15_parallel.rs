//! E15 — extension: the client's parallel block decrypt (`--threads`).
//!
//! Not a paper figure: the paper's client is single-threaded, and its
//! dominant cost — block decryption plus XML re-parsing at 2006-era speeds
//! (§7.2) — is embarrassingly parallel across shipped blocks. This
//! experiment sweeps the client's thread knob over the hospital and XMark
//! workloads and reports, per thread count:
//!
//! * the measured wall time of the client block phase (decrypt + parse on
//!   the real pool);
//! * the era-modeled decrypt makespan (least-loaded-worker schedule over
//!   the same per-block 2006-era costs the serial model charges);
//! * the speedup over the single-thread run.
//!
//! Answers are asserted byte-identical across every thread count — the
//! knob must be purely a performance knob. On single-core hosts the
//! *measured* columns show no speedup (there is nothing to fan out onto);
//! the *modeled* columns characterize the schedule itself and are
//! hardware-independent. Results also land in `BENCH_e15_parallel.json`.

use crate::report::Table;
use crate::{robust_mean, ExpConfig};
use exq_core::scheme::SchemeKind;
use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer};
use exq_workload::{hospital, xmark};
use std::time::Duration;

const THREADS: &[usize] = &[1, 2, 4, 8];

struct Sweep {
    name: &'static str,
    hosted: HostedDatabase,
    queries: Vec<&'static str>,
}

fn workloads(cfg: &ExpConfig) -> Vec<Sweep> {
    let host = |doc, cs: &[_], tag: u64| {
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, cs, SchemeKind::Opt, cfg.seed ^ tag)
            .expect("outsource")
    };
    vec![
        Sweep {
            name: "hospital",
            hosted: host(
                hospital::scaled(240, cfg.seed),
                &hospital::constraints(),
                0x15,
            ),
            queries: vec![
                "//patient/pname",
                "//patient[age > 40]/pname",
                "//patient[.//disease = 'flu']/pname",
                "//insurance/policy",
                "//patient",
            ],
        },
        Sweep {
            name: "xmark",
            hosted: host(
                xmark::generate_people(160, cfg.seed),
                &xmark::constraints(),
                0x51,
            ),
            queries: vec![
                "//person/name",
                "//person/creditcard",
                "//person[age > 40]/name",
                "//person/profile/income",
                "//person/address/city",
            ],
        },
    ]
}

struct Measured {
    /// Era-modeled + measured decrypt phase (the makespan column).
    decrypt: Duration,
    /// Measured client post-processing (re-evaluation + splice).
    post: Duration,
    results: Vec<String>,
}

fn measure(sweep: &mut Sweep, threads: usize, trials: usize) -> Measured {
    sweep.hosted.client.set_threads(threads);
    // Recomputation, not memoization: every trial gets a freshly assembled
    // reply to decrypt (e16 measures the response cache).
    sweep.hosted.server.set_cache_entries(Some(0));
    let mut decrypt = Vec::new();
    let mut post = Vec::new();
    let mut results = Vec::new();
    for q in &sweep.queries {
        let mut d = Vec::new();
        let mut p = Vec::new();
        for _ in 0..trials.max(1) {
            let out = sweep.hosted.query(q).expect("query");
            d.push(out.timing.decrypt);
            p.push(out.timing.post_process);
            if d.len() == 1 {
                results.extend(out.results);
            }
        }
        decrypt.push(robust_mean(&d));
        post.push(robust_mean(&p));
    }
    Measured {
        decrypt: decrypt.iter().sum(),
        post: post.iter().sum(),
        results,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"e15_parallel\",\n  \"datasets\": [\n");

    for (wi, mut sweep) in workloads(cfg).into_iter().enumerate() {
        let mut t = Table::new(
            &format!("e15_parallel_{}", sweep.name),
            &format!(
                "Thread sweep over the {} workload (opt scheme, era decrypt model)",
                sweep.name
            ),
            &[
                "threads",
                "decrypt (ms, modeled)",
                "decrypt speedup",
                "post (ms)",
                "answers",
            ],
        );
        let baseline = measure(&mut sweep, 1, cfg.trials);
        if wi > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"rows\": [\n",
            sweep.name
        ));
        for (ti, &threads) in THREADS.iter().enumerate() {
            let m = if threads == 1 {
                Measured {
                    decrypt: baseline.decrypt,
                    post: baseline.post,
                    results: baseline.results.clone(),
                }
            } else {
                measure(&mut sweep, threads, cfg.trials)
            };
            assert_eq!(
                m.results, baseline.results,
                "{}: answers diverged at {threads} threads",
                sweep.name
            );
            let speedup = baseline.decrypt.as_secs_f64() / m.decrypt.as_secs_f64().max(1e-12);
            t.row(vec![
                threads.to_string(),
                format!("{:.2}", ms(m.decrypt)),
                format!("{speedup:.2}x"),
                format!("{:.2}", ms(m.post)),
                "identical".to_string(),
            ]);
            if ti > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "      {{ \"threads\": {threads}, \"decrypt_ms\": {:.4}, \
                 \"decrypt_speedup\": {:.3}, \"post_ms\": {:.4}, \
                 \"answers_identical\": true }}",
                ms(m.decrypt),
                speedup,
                ms(m.post),
            ));
        }
        json.push_str("\n    ] }");
        tables.push(t);
    }

    json.push_str("\n  ]\n}\n");
    // Anchor to the workspace root so the trajectory file lands in the same
    // place no matter the working directory (cargo run vs. cargo test).
    if cfg.write_root_artifacts {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e15_parallel.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e15: could not write {out}: {e}");
        }
    }
    tables
}
