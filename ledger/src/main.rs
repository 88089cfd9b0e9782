//! The perf ledger: four wall-clock TCP workloads with end-to-end and
//! per-layer metrics for one secure query. See README.md beside the
//! manifest for the metric catalogue and how to run and compare.

mod catalog;
mod compare;
mod host;
mod json;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use json::{json, Value, ValueExt};
use run::{Budget, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The benchmark's fallible calls span five crates' error types and end in
/// one place: a message on stderr and a non-zero exit.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "\
usage:
  ledger --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--passes N]
      one run of one workload; --trace 0 prints the end-to-end metrics,
      --trace 1 the per-layer metrics; the last line of stdout is one JSON
      object {correct, attempted, failed, metrics}
  ledger all [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
      every workload, untraced and traced, each in its own child process;
      writes the result file `compare` reads
  ledger compare A.json B.json
      one row per (workload, metric), judged by BENCHMARK.json's bounds
  ledger manifest
      prints BENCHMARK.json as the catalogue defines it
workloads: xmark_scan hospital_point hospital_paged hospital_rw";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `--name value` pairs and bare `--name` switches from
    /// positional words.
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        const SWITCHES: [&str; 1] = ["--smoke"];
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.positional.push(a);
            } else if SWITCHES.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else {
                let v = raw.next();
                args.flags.push((a, v));
            }
        }
        args
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Res<Option<&str>> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(format!("{name} needs a value").into()),
        }
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read '{v}' as a number").into()),
        }
    }

    fn check_known(&self, known: &[&str]) -> Res<()> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option {n}\n{USAGE}").into()),
            None => Ok(()),
        }
    }
}

/// Where store directories and span files go: `ledger/` inside the cargo
/// target directory the binary was built into, so it is inside the checkout
/// and already ignored by git.
fn scratch_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("binary is not inside a cargo target directory")?;
    Ok(target.join("ledger"))
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let outcome = match args.positional.first().map(String::as_str) {
        None if args.has("--workload") => one_run(&args),
        Some("all") => all(&args),
        Some("compare") => compare_files(&args),
        Some("manifest") => print_manifest(),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_manifest() -> Res<ExitCode> {
    println!("{}", serde_json::to_string_pretty(&catalog::manifest())?);
    Ok(ExitCode::SUCCESS)
}

/// The builder's contract: one workload, one seed, one JSON line.
fn one_run(args: &Args) -> Res<ExitCode> {
    args.check_known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--smoke",
        "--passes",
    ])?;
    let smoke = args.has("--smoke");
    let name = args.value("--workload")?.unwrap_or_default();
    let spec =
        workload::spec(name, smoke).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let seed: u64 = args.number("--seed")?.unwrap_or(2006);
    let budget = match args.number::<u64>("--passes")? {
        Some(n) if n > 0 => Budget::Passes(n),
        Some(_) => return Err("--passes must be at least 1".into()),
        None => {
            let seconds: f64 = args
                .number("--seconds")?
                .unwrap_or(catalog::RUN_SECONDS as f64);
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err("--seconds must be in (0, 600]".into());
            }
            Budget::Time(Duration::from_secs_f64(seconds))
        }
    };
    let traced = match args.value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'").into()),
    };
    let scratch = scratch_dir()?;
    let report = if traced {
        run::per_layer(spec, seed, budget, &scratch)?
    } else {
        run::end_to_end(spec, seed, budget, smoke, &scratch)?
    };
    check_schema(&report, traced)?;
    if traced {
        let coverage = metric(&report, "trace.coverage");
        if coverage < 0.95 {
            return Err(format!("trace.coverage {coverage:.3} is below 0.95").into());
        }
    }

    println!(
        "{name}  seed {seed}  {}  cores {}",
        if traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for (metric, value) in &report.metrics {
        let unit = catalog::unit_of(metric).unwrap_or("");
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    println!("{}", result_line(&report));
    Ok(ExitCode::SUCCESS)
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The run must report exactly the catalogue's metrics for its mode, each
/// once and each a finite number.
fn check_schema(report: &Report, traced: bool) -> Res<()> {
    let expected: Vec<&str> = if traced {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    let got: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    for name in &expected {
        let times = got.iter().filter(|g| g == &name).count();
        if times != 1 {
            return Err(format!("schema: metric {name} reported {times} times").into());
        }
    }
    if let Some(extra) = got.iter().find(|g| !expected.contains(g)) {
        return Err(format!("schema: metric {extra} is not in the catalogue").into());
    }
    if let Some((name, v)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("schema: {name} is {v}").into());
    }
    if !traced {
        if let Some((name, _)) = report.metrics.iter().find(|(_, v)| *v <= 0.0) {
            return Err(format!("schema: end-to-end metric {name} is not positive").into());
        }
    }
    Ok(())
}

fn result_line(report: &Report) -> Value {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalog::unit_of(name).unwrap_or("");
            (name.to_string(), json!({"value": value, "unit": unit}))
        })
        .collect();
    json!({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    })
}

/// Every workload, untraced then traced, `--runs` times over. Each run is a
/// child process, so set-up, peak memory, the telemetry registry and caches
/// do not leak from one workload into the next.
fn all(args: &Args) -> Res<ExitCode> {
    args.check_known(&["--seed", "--seconds", "--runs", "--smoke", "--out"])?;
    let smoke = args.has("--smoke");
    let seed: u64 = args.number("--seed")?.unwrap_or(2006);
    let seconds: f64 = args.number("--seconds")?.unwrap_or(if smoke {
        1.0
    } else {
        catalog::RUN_SECONDS as f64
    });
    let runs: usize = args.number("--runs")?.unwrap_or(1).max(1);
    let exe = std::env::current_exe()?;

    let mut workloads = Vec::new();
    for w in &catalog::WORKLOADS {
        let mut sections = Vec::new();
        for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            // name -> (unit, one value per run)
            let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
            for _ in 0..runs {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()]);
                if smoke {
                    cmd.arg("--smoke");
                }
                let out = cmd.output()?;
                if !out.status.success() {
                    return Err(format!(
                        "{} (trace {trace}) failed: {}",
                        w.name,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                    .into());
                }
                let stdout = String::from_utf8(out.stdout)?;
                let last = stdout.lines().last().ok_or("child printed nothing")?;
                let result = json::parse(last)?;
                if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
                    return Err(format!("{} reported failed operations", w.name).into());
                }
                for (name, m) in result
                    .get("metrics")
                    .and_then(Value::as_object)
                    .ok_or("child result has no metrics")?
                {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or("metric without value")?;
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                    match series.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, values)) => values.push(value),
                        None => series.push((name.clone(), unit.to_owned(), vec![value])),
                    }
                }
            }
            println!("{} ({section})", w.name);
            for (name, unit, values) in &series {
                println!("  {name:<34} {:>16.4} {unit}", stats::median(values));
            }
            let series = series
                .into_iter()
                .map(|(name, unit, values)| (name, json!({"unit": unit, "values": values})))
                .collect();
            sections.push((section.to_owned(), Value::Object(series)));
        }
        workloads.push((w.name.to_owned(), Value::Object(sections)));
    }
    let file = json!({
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "runs": runs,
        "cores": std::thread::available_parallelism().map_or(0, usize::from),
        "workloads": Value::Object(workloads),
    });
    if let Some(path) = args.value("--out")? {
        std::fs::write(path, serde_json::to_string_pretty(&file)? + "\n")?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &Args) -> Res<ExitCode> {
    args.check_known(&[])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let read = |path: &str| -> Res<Value> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (table, failed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
