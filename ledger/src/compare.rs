//! `ledger compare A.json B.json`: two sets of runs side by side, judged by
//! the bounds `BENCHMARK.json` fixes (the catalogue is their source, and a
//! unit test keeps the file equal to it).
//!
//! One row per (workload, metric) with both medians, their ratio and its
//! base. An end-to-end metric whose run-to-run spread exceeds its bound is
//! reported `unresolved`, not `unchanged` — unless every run of B reads
//! better than every run of A. Per-layer metrics have no bound and get no
//! verdict. A workload or an end-to-end metric that A has and B lacks fails
//! the comparison, as a regression does.

use crate::catalog::{Better, END_TO_END};
use crate::json::{Value, ValueExt};
use crate::stats::{median, spread};
use crate::Res;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one end-to-end metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == mb && spread(a) == 0.0 && spread(b) == 0.0 {
        return Verdict::Unchanged;
    }
    if ma == 0.0 {
        // No base to take a share of.
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_wins_every_pair = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > bound {
        return if b_wins_every_pair && worse_by < -bound {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(metric: &Value) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Value::as_array)
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Renders the comparison table; the flag says whether anything regressed
/// or went missing.
pub fn compare(a: &Value, b: &Value) -> Res<(String, bool)> {
    let workloads = |f: &Value| -> Res<Vec<(String, Value)>> {
        Ok(f.get("workloads")
            .and_then(Value::as_object)
            .ok_or("result file has no workloads object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>14} {:>14} {:>8}  {:<6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "unit", "spread", "bound"
    );
    for (workload, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(w, _)| w == workload) else {
            let _ = writeln!(out, "{workload:<16} MISSING from B");
            failed = true;
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = in_a.get(section).and_then(Value::as_object) else {
                continue;
            };
            for (name, ma) in metrics {
                let bounded = END_TO_END
                    .iter()
                    .find(|m| section == "end_to_end" && m.name == name);
                let (va, vb) = (
                    values(ma),
                    in_b.get(section)
                        .and_then(|s| s.get(name))
                        .map(values)
                        .unwrap_or_default(),
                );
                if va.is_empty() || vb.is_empty() {
                    if bounded.is_some() && !va.is_empty() {
                        let _ = writeln!(out, "{workload:<16} {name:<32} MISSING from B");
                        failed = true;
                    }
                    continue;
                }
                let (meda, medb) = (median(&va), median(&vb));
                let ratio = if meda == 0.0 {
                    "-".to_owned()
                } else {
                    format!("{:.3}", medb / meda)
                };
                let unit = ma.get("unit").and_then(Value::as_str).unwrap_or("");
                let sp = spread(&va).max(spread(&vb));
                let (bound, verdict) = match bounded {
                    Some(m) => {
                        let v = judge(&va, &vb, m.better, m.bound);
                        failed |= v == Verdict::Regressed;
                        (format!("{:.2}", m.bound), v.as_str())
                    }
                    None => ("-".to_owned(), ""),
                };
                let _ = writeln!(
                    out,
                    "{workload:<16} {name:<32} {meda:>14.4} {medb:>14.4} {ratio:>8}  {unit:<6} {sp:>7.3} {bound:>7}  {verdict}"
                );
            }
        }
    }
    let _ = writeln!(out, "ratios are B's median over A's median (base A)");
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(judge(&steady, &steady, Lower, 0.1), Verdict::Unchanged);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&steady, &slower, Lower, 0.1), Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, Higher, 0.1), Verdict::Improved);
        assert_eq!(judge(&slower, &steady, Lower, 0.1), Verdict::Improved);
        // Spread beyond the bound: not "unchanged", whatever the medians say.
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(judge(&noisy, &noisy, Lower, 0.1), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let fast = [20.0, 30.0, 25.0];
        assert_eq!(judge(&noisy, &fast, Lower, 0.1), Verdict::Improved);
        // Exact counts that repeat are unchanged even with one run a side.
        assert_eq!(judge(&[7.0], &[7.0], Lower, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&[7.0], &[8.0], Lower, 0.05), Verdict::Regressed);
        // A zero base gives no share to judge by.
        assert_eq!(judge(&[0.0], &[3.0], Lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&[0.0], &[0.0], Lower, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn table_has_one_row_per_workload_and_metric() {
        let file = |p50: f64| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"w":{{"end_to_end":{{"query_p50_ms":{{"unit":"ms","values":[{p50},{p50}]}}}},
                "per_layer":{{"server.sjoin_ms":{{"unit":"ms","values":[1.5]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (table, failed) = compare(&file(10.0), &file(13.0)).unwrap();
        assert!(failed);
        assert!(table.contains("query_p50_ms") && table.contains("REGRESSED"));
        assert!(table.contains("server.sjoin_ms") && table.contains("1.000"));
        let (_, failed) = compare(&file(10.0), &file(10.5)).unwrap();
        assert!(!failed);
    }

    #[test]
    fn what_b_lacks_fails_the_comparison() {
        let a = crate::json::parse(
            r#"{"workloads":{"w":{"end_to_end":{"query_p50_ms":{"unit":"ms","values":[10]}},
            "per_layer":{"server.sjoin_ms":{"unit":"ms","values":[1.5]}}}}}"#,
        )
        .unwrap();
        let no_workload = crate::json::parse(r#"{"workloads":{}}"#).unwrap();
        let (table, failed) = compare(&a, &no_workload).unwrap();
        assert!(failed && table.contains("MISSING"));
        // A per-layer metric may go; an end-to-end one may not.
        let no_metric =
            crate::json::parse(r#"{"workloads":{"w":{"end_to_end":{},"per_layer":{}}}}"#).unwrap();
        let (table, failed) = compare(&a, &no_metric).unwrap();
        assert!(failed && table.contains("query_p50_ms"));
        assert!(!table.contains("server.sjoin_ms"));
        assert!(!compare(&a, &a).unwrap().1);
    }
}
