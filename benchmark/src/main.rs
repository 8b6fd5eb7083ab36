//! `stkde-benchmark` — the repo benchmark. See `benchmark/README.md`.

mod agree;
mod batch;
mod daemon;
mod httpc;
mod layers;
mod oracle;
mod phase;
mod procfs;
mod read_load;
mod report;
mod rng;
mod serve;
mod serve_e2e;
mod stats;
mod trace;
mod traced;
mod write_load;

use report::{Report, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: stkde-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                       [--serve-bin PATH] [--out-dir DIR] [--commit HASH] [--agree N]

  --workload NAME   batch_dense | batch_sparse | serve_write | serve_read
                    (default: each in turn, one process per workload)
  --seed N          seed of every generated input (default 1)
  --seconds S       length of the timed phase (default 16)
  --trace 0|1       0: end-to-end metrics, tracing off (default)
                    1: per-layer metrics from a traced run
  --serve-bin PATH  stkde-serve binary (default: built from the root
                    workspace with `cargo build --release --bin stkde-serve`)
  --out-dir DIR     where a traced run writes trace_<workload>.json
                    (default benchmark/out)
  --commit HASH     recorded in the trace file
  --agree N         run every workload N times as two interleaved sets and
                    compare the set medians with the bounds in BENCHMARK.json";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
    pub commit: String,
    pub agree: Option<usize>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            workload: None,
            seed: 1,
            seconds: 16.0,
            trace: false,
            serve_bin: None,
            out_dir: PathBuf::from("benchmark/out"),
            commit: "unknown".into(),
            agree: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("missing value for {flag}\n\n{USAGE}"))
            };
            let bad = |v: &str| format!("bad value `{v}` for {flag}\n\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    let known = WORKLOADS.into_iter().find(|w| w == v);
                    opts.workload = Some(known.ok_or_else(|| bad(v))?);
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    opts.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    let v = value()?;
                    opts.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(v)),
                    };
                }
                "--serve-bin" => opts.serve_bin = Some(PathBuf::from(value()?)),
                "--out-dir" => opts.out_dir = PathBuf::from(value()?),
                "--commit" => opts.commit = value()?.clone(),
                "--agree" => {
                    let v = value()?;
                    opts.agree = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad(v))?);
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

fn run_workload(name: &'static str, opts: &Opts) -> std::io::Result<Report> {
    if opts.trace {
        return traced::run(name, opts);
    }
    match name {
        "batch_dense" => Ok(batch::run(&batch::DENSE, opts)),
        "batch_sparse" => Ok(batch::run(&batch::SPARSE, opts)),
        "serve_write" => serve_e2e::run_write(opts),
        "serve_read" => serve_e2e::run_read(opts),
        other => unreachable!("`{other}` is not a workload"),
    }
}

/// Run every workload in turn, each in a process of its own so one
/// workload's peak memory and warmed allocator cannot leak into the next.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(args)
            .status()
            .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(n) = opts.agree {
        agree::run(&opts, n)
    } else if let Some(name) = opts.workload {
        run_workload(name, &opts)
            .map(|report| {
                report.print();
                report.correct()
            })
            .map_err(|e| format!("{name}: {e}"))
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
