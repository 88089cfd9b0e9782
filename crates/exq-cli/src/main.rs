//! The `exq` binary: argument dispatch over [`exq_cli`]'s commands.

use exq_cli::*;
use exq_core::serve::ServeHandle;
use exq_core::store::Checkpointer;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The options every command honours (see USAGE).
const GLOBAL_OPTIONS: [&str; 3] = ["trace-out", "slow-ms", "log-level"];

/// The options `cmd` (and, for `db`, its verb) reads beside the global
/// ones. `None` for a command or verb `run` reports as unknown itself.
fn known_options(cmd: &str, verb: Option<&str>) -> Option<&'static [&'static str]> {
    Some(match (cmd, verb) {
        ("gen", _) => &["dataset", "size-kb", "seed", "out", "constraints-out"],
        ("encrypt", _) => &["in", "constraints", "scheme", "seed", "server", "client"],
        ("query", _) => &[
            "server",
            "client",
            "addr",
            "naive",
            "cache-entries",
            "retries",
            "db",
            "pipeline",
        ],
        ("ping", _) => &["addr", "count"],
        ("serve", _) => &[
            "server",
            "addr",
            "workers",
            "cache-entries",
            "max-inflight",
            "deadline-ms",
            "cache-mb",
        ],
        ("db", Some("create")) => &["dir", "name", "server", "client", "max-inflight"],
        ("db", Some("list")) => &["dir"],
        ("db", Some("drop")) => &["dir", "name"],
        ("db", Some("host")) => &[
            "dir",
            "addr",
            "workers",
            "cache-entries",
            "max-inflight",
            "max-inflight-per-db",
            "deadline-ms",
            "cache-mb",
        ],
        ("aggregate", _) => &["server", "client", "fn"],
        ("insert", _) => &["server", "client", "parent", "record", "seed"],
        ("delete" | "explain", _) => &["server", "client"],
        ("export", _) => &["server", "client", "out"],
        ("stats", _) => &["server", "addr"],
        _ => return None,
    })
}

/// Prints the banner, then serves until killed: the handle's threads do all
/// the work, and the checkpointer folds the WAL in the background until
/// dropped. Counters are read with `exq stats --addr`; state changes go
/// through the leveled stderr logger, so stdout stays machine-readable for
/// scripts scraping the banner.
fn park((_handle, _checkpointer, banner): (ServeHandle, Checkpointer, String)) -> ! {
    print!("{banner}");
    loop {
        std::thread::park();
    }
}

/// The integer value of `--name`, if the flag was given.
fn int_flag<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, CliError> {
    flags
        .get(name)
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| CliError::Usage(format!("--{name} must be an integer")))
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    // A `--name` that is not a switch takes the next word as its value —
    // whether or not the command knows it — so names are checked once the
    // whole line is split, and a typo is reported as one, not as the missing
    // value or the stray word it would otherwise turn into.
    let mut given: Vec<(&str, Option<&str>)> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut words = args[1..].iter();
    while let Some(word) = words.next() {
        match word.strip_prefix("--") {
            Some(name @ "naive") => given.push((name, Some("true"))),
            Some(name) => given.push((name, words.next().map(String::as_str))),
            None => positional.push(word.clone()),
        }
    }
    if let Some(known) = known_options(cmd, positional.first().map(String::as_str)) {
        for (name, _) in &given {
            if !known.contains(name) && !GLOBAL_OPTIONS.contains(name) {
                return Err(CliError::Usage(format!("unknown option --{name}")));
            }
        }
    }
    let mut flags: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for (name, value) in given {
        let value = value.ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
        flags.insert(name.to_owned(), value.to_owned());
    }
    let path = |k: &str| -> Result<PathBuf, CliError> {
        flags
            .get(k)
            .map(PathBuf::from)
            .ok_or_else(|| CliError::Usage(format!("missing --{k}")))
    };
    let string = |k: &str| -> Result<String, CliError> {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("missing --{k}")))
    };
    let seed = int_flag::<u64>(&flags, "seed")?.unwrap_or(42);
    // None resolves from EXQ_CACHE / the built-in default; 0 disables.
    let cache_entries = int_flag::<usize>(&flags, "cache-entries")?;
    // The serving flags `serve` and `db host` share, read in one place for
    // both. A flag the command does not list in `known_options` never gets
    // this far, so it reads as its default.
    let serve_options = || -> Result<ServeOptions, CliError> {
        Ok(ServeOptions {
            addr: string("addr")?,
            workers: int_flag(&flags, "workers")?.unwrap_or(4),
            cache_entries,
            max_inflight: int_flag(&flags, "max-inflight")?.unwrap_or(0),
            max_inflight_per_db: int_flag(&flags, "max-inflight-per-db")?.unwrap_or(0),
            deadline_ms: int_flag(&flags, "deadline-ms")?.unwrap_or(0),
            // None falls back to EXQ_CACHE_MB, then the built-in pool budget.
            cache_mb: int_flag(&flags, "cache-mb")?,
        })
    };
    // Global observability flags, honored by every command.
    let slow_ms = int_flag::<u64>(&flags, "slow-ms")?;
    apply_telemetry_flags(
        flags.get("trace-out").map(PathBuf::from).as_deref(),
        slow_ms,
        flags.get("log-level").map(String::as_str),
    )?;

    match cmd.as_str() {
        "gen" => {
            let size_kb = int_flag::<usize>(&flags, "size-kb")?.unwrap_or(64);
            cmd_gen(
                &string("dataset")?,
                size_kb,
                seed,
                &path("out")?,
                flags.get("constraints-out").map(PathBuf::from).as_deref(),
            )
        }
        "encrypt" => cmd_encrypt(
            &path("in")?,
            &path("constraints")?,
            flags.get("scheme").map(String::as_str).unwrap_or("opt"),
            seed,
            &path("server")?,
            &path("client")?,
        ),
        "query" => {
            let q = positional
                .first()
                .ok_or_else(|| CliError::Usage("missing query".into()))?;
            match flags.get("addr") {
                Some(addr) => {
                    // Default retry budget of 3 extra attempts; 0 disables.
                    let retries = int_flag::<u32>(&flags, "retries")?.unwrap_or(3);
                    let pipeline = int_flag::<usize>(&flags, "pipeline")?.unwrap_or(1);
                    cmd_query_remote(
                        addr,
                        &path("client")?,
                        q,
                        retries,
                        flags.get("db").map(String::as_str),
                        pipeline,
                    )
                }
                None => cmd_query(
                    &path("server")?,
                    &path("client")?,
                    q,
                    flags.contains_key("naive"),
                    cache_entries,
                ),
            }
        }
        "ping" => {
            let count = int_flag::<u32>(&flags, "count")?.unwrap_or(4);
            cmd_ping(&string("addr")?, count)
        }
        "serve" => park(cmd_serve(&path("server")?, &serve_options()?)?),
        "db" => {
            let verb = positional
                .first()
                .ok_or_else(|| CliError::Usage("db needs a verb (create|list|drop|host)".into()))?;
            let max_inflight = int_flag::<usize>(&flags, "max-inflight")?.unwrap_or(0);
            match verb.as_str() {
                "create" => cmd_db_create(
                    &path("dir")?,
                    &string("name")?,
                    &path("server")?,
                    flags.get("client").map(PathBuf::from).as_deref(),
                    max_inflight,
                ),
                "list" => cmd_db_list(&path("dir")?),
                "drop" => cmd_db_drop(&path("dir")?, &string("name")?),
                "host" => park(cmd_db_host(&path("dir")?, &serve_options()?)?),
                other => Err(CliError::Usage(format!(
                    "unknown db verb `{other}` (create|list|drop|host)"
                ))),
            }
        }
        "aggregate" => {
            let p = positional
                .first()
                .ok_or_else(|| CliError::Usage("missing path".into()))?;
            cmd_aggregate(&path("server")?, &path("client")?, &string("fn")?, p)
        }
        "insert" => cmd_insert(
            &path("server")?,
            &path("client")?,
            &string("parent")?,
            &path("record")?,
            seed,
        ),
        "delete" => {
            let q = positional
                .first()
                .ok_or_else(|| CliError::Usage("missing query".into()))?;
            cmd_delete(&path("server")?, &path("client")?, q)
        }
        "explain" => {
            let q = positional
                .first()
                .ok_or_else(|| CliError::Usage("missing query".into()))?;
            cmd_explain(&path("server")?, &path("client")?, q)
        }
        "export" => cmd_export(&path("server")?, &path("client")?, &path("out")?),
        "stats" => match flags.get("addr") {
            Some(addr) => cmd_stats_remote(addr),
            None => cmd_stats(&path("server")?),
        },
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}
