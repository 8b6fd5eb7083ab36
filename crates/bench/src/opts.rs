//! Minimal CLI options shared by all harness binaries.

/// Harness options parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOpts {
    /// Explicit volumetric scale `α` (overrides the budget-based default).
    pub scale: Option<f64>,
    /// Voxel budget per instance when `scale` is not given.
    pub max_voxels: usize,
    /// Point budget per instance when `scale` is not given.
    pub max_points: usize,
    /// Kernel-work budget (voxel updates) when `scale` is not given.
    pub max_updates: f64,
    /// Substring filter on instance names (e.g. `Dengue` or `Hr-Hb`).
    pub filter: Option<String>,
    /// Real thread counts to sweep.
    pub threads: Vec<usize>,
    /// Virtual processor count for the simulated speedup column.
    pub sim_threads: usize,
    /// RNG seed for point generation.
    pub seed: u64,
    /// Repetitions per measurement (best-of).
    pub reps: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            scale: None,
            // ~8M voxels (32 MiB of f32 grid), ~120k points, and ≤1.5G
            // kernel updates keep the full 21-instance suite in the
            // minutes range on 2 cores.
            max_voxels: 8_000_000,
            max_points: 120_000,
            max_updates: 1.5e9,
            filter: None,
            threads: (0..).map(|i| 1 << i).take_while(|&t| t <= cores).collect(),
            sim_threads: 16,
            seed: 42,
            reps: 1,
        }
    }
}

impl HarnessOpts {
    /// Parse from `std::env::args`. Exits with a usage message on error or
    /// `--help`.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}\n{}", Self::usage());
                std::process::exit(if msg == "help" { 0 } else { 2 });
            }
        }
    }

    /// The usage string.
    pub(crate) fn usage() -> &'static str {
        "usage: <harness> [--scale A] [--max-voxels N] [--max-points N] [--max-updates N]\n\
         \x20                [--filter SUBSTR] [--threads 1,2,4] [--sim-threads P]\n\
         \x20                [--seed S] [--reps R] [--paper]\n\
         --scale A        volumetric scale factor in (0,1]; overrides budgets\n\
         --paper          full paper-size instances (scale 1.0) — needs a big machine\n\
         --filter SUBSTR  only instances whose name contains SUBSTR\n\
         --threads LIST   comma-separated real thread counts to sweep\n\
         --sim-threads P  virtual processors for the simulated column (default 16)\n\
         --seed S         point-generation seed (default 42)\n\
         --reps R         best-of-R timing (default 1)"
    }

    /// Parse an iterator of arguments (testable entry point).
    pub(crate) fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                "--help" | "-h" => return Err("help".into()),
                "--scale" => {
                    let v: f64 = value("--scale")?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                    if !(v > 0.0 && v <= 1.0) {
                        return Err("--scale must be in (0, 1]".into());
                    }
                    opts.scale = Some(v);
                }
                "--paper" => opts.scale = Some(1.0),
                "--max-voxels" => {
                    opts.max_voxels = value("--max-voxels")?
                        .parse()
                        .map_err(|e| format!("bad --max-voxels: {e}"))?;
                }
                "--max-points" => {
                    opts.max_points = value("--max-points")?
                        .parse()
                        .map_err(|e| format!("bad --max-points: {e}"))?;
                }
                "--max-updates" => {
                    opts.max_updates = value("--max-updates")?
                        .parse()
                        .map_err(|e| format!("bad --max-updates: {e}"))?;
                }
                "--filter" => opts.filter = Some(value("--filter")?),
                "--threads" => {
                    opts.threads = value("--threads")?
                        .split(',')
                        .map(|t| t.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                    if opts.threads.is_empty() || opts.threads.contains(&0) {
                        return Err("--threads needs positive values".into());
                    }
                }
                "--sim-threads" => {
                    opts.sim_threads = value("--sim-threads")?
                        .parse()
                        .map_err(|e| format!("bad --sim-threads: {e}"))?;
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--reps" => {
                    opts.reps = value("--reps")?
                        .parse()
                        .map_err(|e| format!("bad --reps: {e}"))?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// The largest real thread count in the sweep.
    pub fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<HarnessOpts, String> {
        HarnessOpts::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_without_args() {
        let o = parse("").unwrap();
        assert_eq!(o.scale, None);
        assert!(o.threads.contains(&1));
        assert_eq!(o.sim_threads, 16);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse("--scale 0.5 --filter Dengue --threads 1,2,4 --sim-threads 8 --seed 7 --reps 3 --max-voxels 1000 --max-points 50").unwrap();
        assert_eq!(o.scale, Some(0.5));
        assert_eq!(o.filter.as_deref(), Some("Dengue"));
        assert_eq!(o.threads, vec![1, 2, 4]);
        assert_eq!(o.sim_threads, 8);
        assert_eq!(o.seed, 7);
        assert_eq!(o.reps, 3);
        assert_eq!(o.max_voxels, 1000);
        assert_eq!(o.max_points, 50);
    }

    #[test]
    fn paper_flag_sets_full_scale() {
        assert_eq!(parse("--paper").unwrap().scale, Some(1.0));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--scale 2.0").is_err());
        assert!(parse("--scale").is_err());
        assert!(parse("--threads 0").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn max_threads() {
        assert_eq!(parse("--threads 1,4,2").unwrap().max_threads(), 4);
    }
}
