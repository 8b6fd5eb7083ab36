//! `--agree N`: does the benchmark agree with itself?
//!
//! Every workload is run `N` times as two interleaved sets (A1 B1 A2 B2 …,
//! each run with its own seed and in its own process), so slow drift of
//! the machine hits both sets alike. For every (workload, metric) pair
//! the two set medians are compared: the gap, as a share of set A's
//! median, must stay within the metric's bound in `BENCHMARK.json`.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats;
use crate::Opts;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use stkde_server::json::Json;

/// `metric → bound` from `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lacks `end_to_end`")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("malformed end_to_end entry {}", m.encode())),
            }
        })
        .collect()
}

/// Run one workload once in a child process; its end-to-end metrics.
fn run_once(opts: &Opts, workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .stderr(Stdio::inherit());
    if let Some(bin) = &opts.serve_bin {
        cmd.arg("--serve-bin").arg(bin);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {}",
            out.status
        )
    })?;
    if !out.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect run: {last}"));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload} seed {seed}: result lacks metrics"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect()
}

/// Run the self-check; `Ok(true)` when every gap is within its bound.
pub fn run(opts: &Opts, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    // sets[set][workload][metric] = values
    let mut sets = [BTreeMap::new(), BTreeMap::new()];
    for round in 0..n {
        for (set, values) in sets.iter_mut().enumerate() {
            for workload in WORKLOADS {
                let seed = opts.seed + (2 * round + set) as u64;
                eprintln!(
                    "agree: round {} set {} {workload} seed {seed}",
                    round + 1,
                    ["A", "B"][set]
                );
                for (metric, value) in run_once(opts, workload, seed)? {
                    values
                        .entry(workload)
                        .or_insert_with(BTreeMap::new)
                        .entry(metric)
                        .or_insert_with(Vec::new)
                        .push(value);
                }
            }
        }
    }

    println!("| workload | metric | median A | median B | gap | spread | bound |   |");
    println!("|---|---|---:|---:|---:|---:|---:|---|");
    let mut all_within = true;
    for workload in WORKLOADS {
        for (metric, _) in END_TO_END {
            let of = |set: usize| -> Result<&Vec<f64>, String> {
                sets[set]
                    .get(workload)
                    .and_then(|m: &BTreeMap<String, Vec<f64>>| m.get(metric))
                    .ok_or_else(|| format!("{workload} never reported {metric}"))
            };
            let (a, b) = (of(0)?, of(1)?);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let &bound = bounds
                .get(metric)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
            // Both sets ran the same code, so a gap in either direction is
            // disagreement.
            let gap = ((mb - ma) / ma).abs();
            let both: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = if both.len() >= 2 {
                stats::iqr_share(&both)
            } else {
                0.0
            };
            let ok = gap <= bound;
            all_within &= ok;
            println!(
                "| {workload} | {metric} | {ma:.4} | {mb:.4} | {:.1} % | {:.1} % | {:.0} % | {} |",
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(all_within)
}
