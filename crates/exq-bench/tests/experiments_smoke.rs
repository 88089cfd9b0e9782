//! Smoke tests: every registered experiment runs end to end at a tiny scale
//! and produces non-empty, well-formed tables (guards the harness against
//! rot as the system evolves).

use exq_bench::experiments::registry;
use exq_bench::ExpConfig;

fn tiny() -> ExpConfig {
    ExpConfig {
        size_bytes: 48 * 1024,
        trials: 1,
        query_count: 2,
        seed: 11,
        out_dir: std::env::temp_dir().join(format!("exq-smoke-{}", std::process::id())),
    }
}

#[test]
fn every_experiment_runs_and_reports() {
    let cfg = tiny();
    for (id, title, runner) in registry() {
        let tables = runner(&cfg);
        assert!(!tables.is_empty(), "{id} ({title}) produced no tables");
        for t in &tables {
            assert!(!t.columns.is_empty(), "{id}: table {} has no columns", t.id);
            assert!(!t.rows.is_empty(), "{id}: table {} has no rows", t.id);
            for row in &t.rows {
                assert_eq!(
                    row.len(),
                    t.columns.len(),
                    "{id}: ragged row in table {}",
                    t.id
                );
            }
            // Render + CSV never panic and carry the content.
            let rendered = t.render();
            assert!(rendered.contains(&t.id));
            let csv = t.to_csv();
            assert_eq!(csv.lines().count(), t.rows.len() + 1);
        }
    }
    std::fs::remove_dir_all(&cfg.out_dir).ok();
}

#[test]
fn experiment_ids_are_unique_and_ordered() {
    let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
    let mut dedup = ids.clone();
    dedup.dedup();
    assert_eq!(ids, dedup);
    // The paper's §7 and theorems, nothing else: the service is the
    // ledger's to measure.
    assert_eq!(ids.len(), 13);
    assert_eq!((ids[0], ids[12]), ("e1", "e13"));
}

/// A flag with its value missing and an id that is not in the registry are
/// usage errors naming what went wrong — not an index panic, and not an
/// empty `experiments.json` with exit 0.
#[test]
fn bad_arguments_are_usage_errors() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };

    let out_dir = std::env::temp_dir().join(format!("exq-smoke-args-{}", std::process::id()));
    let (code, stderr) = run(&["--out", out_dir.to_str().unwrap(), "--exp", "e20"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no experiment `e20`"), "{stderr}");
    for (id, _, _) in registry() {
        assert!(stderr.contains(id), "valid id {id} not listed: {stderr}");
    }
    assert!(!out_dir.exists(), "a refused run wrote output");

    let (code, stderr) = run(&["--seed", "7", "--exp"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--exp needs a value"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
