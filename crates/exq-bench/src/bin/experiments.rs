//! Regenerates every reproduced table and figure (see DESIGN.md §2).
//!
//! ```sh
//! cargo run --release -p exq-bench --bin experiments            # all
//! cargo run --release -p exq-bench --bin experiments -- --exp e4
//! cargo run --release -p exq-bench --bin experiments -- --size-mb 25 --trials 5
//! ```
//!
//! Tables are printed and written as CSV under `results/`, plus a combined
//! JSON dump: `results/experiments.json` for a run of every experiment, and
//! a file of its own for a run of some (`--exp e2` writes
//! `results/experiments-e2.json`), which leaves the whole run's dump alone.

use exq_bench::experiments::registry;
use exq_bench::report::Table;
use exq_bench::ExpConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: experiments [--exp eN]... [--size-mb F] [--size-kb F] \
                     [--trials N] [--queries N] [--seed N] [--out DIR]";

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))
}

fn run() -> Result<(), String> {
    let mut cfg = ExpConfig::default();
    let mut only: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value after it"))
        };
        match flag.as_str() {
            "--exp" => only.push(value()?.to_lowercase()),
            "--size-mb" => {
                cfg.size_bytes = (number::<f64>(&flag, value()?)? * 1024.0 * 1024.0) as usize
            }
            "--size-kb" => cfg.size_bytes = (number::<f64>(&flag, value()?)? * 1024.0) as usize,
            "--trials" => cfg.trials = number(&flag, value()?)?,
            "--queries" => cfg.query_count = number(&flag, value()?)?,
            "--seed" => cfg.seed = number(&flag, value()?)?,
            "--out" => cfg.out_dir = value()?.into(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }

    let registry = registry();
    if let Some(unknown) = only
        .iter()
        .find(|f| !registry.iter().any(|(id, _, _)| id == f))
    {
        let ids: Vec<&str> = registry.iter().map(|(id, _, _)| *id).collect();
        return Err(format!(
            "no experiment `{unknown}`; the experiments are {}",
            ids.join(" ")
        ));
    }

    println!(
        "config: {} bytes/dataset, {} trials, {} queries/class, seed {}\n",
        cfg.size_bytes, cfg.trials, cfg.query_count, cfg.seed
    );

    let mut all_tables: Vec<Table> = Vec::new();
    let mut ran = Vec::new();
    for (id, title, runner) in registry {
        if !only.is_empty() && !only.iter().any(|f| f == id) {
            continue;
        }
        ran.push(id);
        println!("--- {id}: {title}");
        let t0 = Instant::now();
        let tables = runner(&cfg);
        for t in &tables {
            print!("{}", t.render());
            if let Err(e) = t.write_csv(&cfg.out_dir) {
                eprintln!("  (csv write failed: {e})");
            }
        }
        println!("  [{id} took {:.2?}]\n", t0.elapsed());
        all_tables.extend(tables);
    }

    // Combined JSON dump for downstream tooling.
    let json = tables_to_json(&all_tables);
    let path = json_path(&cfg.out_dir, !only.is_empty(), &ran);
    if std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|_| std::fs::write(&path, json))
        .is_ok()
    {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Where a run's combined JSON goes: `experiments.json` when every
/// experiment ran, else a file named after the ones that did, in registry
/// order, so a part of the run never replaces the whole run's dump.
fn json_path(out_dir: &Path, filtered: bool, ran: &[&str]) -> PathBuf {
    match filtered {
        false => out_dir.join("experiments.json"),
        true => out_dir.join(format!("experiments-{}.json", ran.join("-"))),
    }
}

fn tables_to_json(tables: &[Table]) -> String {
    use serde_json::{json, Value};
    let v: Vec<Value> = tables
        .iter()
        .map(|t| {
            json!({
                "id": t.id,
                "title": t.title,
                "columns": t.columns,
                "rows": t.rows,
            })
        })
        .collect();
    serde_json::to_string_pretty(&v).expect("json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_whole_run_writes_experiments_json() {
        let out = Path::new("results");
        let all: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        assert_eq!(json_path(out, false, &all), out.join("experiments.json"));
        assert_eq!(
            json_path(out, true, &["e2"]),
            out.join("experiments-e2.json")
        );
        assert_eq!(
            json_path(out, true, &["e1", "e4"]),
            out.join("experiments-e1-e4.json")
        );
        // Naming every experiment is still a filtered run.
        assert_ne!(json_path(out, true, &all), out.join("experiments.json"));
    }
}
