//! `stkde` — command-line space-time kernel density estimation.
//!
//! ```sh
//! # Generate synthetic events imitating one of the paper's datasets:
//! stkde synth --dataset dengue --n 10000 --out events.csv
//!
//! # Inspect a point file:
//! stkde info --input events.csv
//!
//! # Compute a density cube and export the peak time slice:
//! stkde compute --input events.csv --sres 100 --tres 1 --hs 1000 --ht 7 \
//!               --algorithm pd-sched --threads 8 --out-prefix out/density
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use stkde::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "synth" => cmd_synth(rest),
        "info" => cmd_info(rest),
        "compute" => cmd_compute(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "stkde — space-time kernel density estimation (Saule et al., ICPP 2017)

commands:
  synth    --dataset dengue|pollen|flu|ebird --n N [--seed S]
           [--extent x0,y0,t0,x1,y1,t1] --out FILE.csv
  info     --input FILE.csv
  compute  --input FILE.csv --sres S --tres T --hs H --ht H
           [--algorithm auto|vb|vb-dec|pb|pb-sym|dr|dd|pd|pd-sched|pd-rep|pd-sched-rep|sparse]
           [--decomp K] [--threads N]
           [--out-prefix PATH] [--slices peak|t1,t2,...]
           [--format pgm|csv] [--vtk FILE.vtk]

--algorithm sparse uses the block-sparse grid backend (memory and init
cost scale with the touched volume, not the domain — best for sparse
instances).
--vtk exports the whole cube as VTK STRUCTURED_POINTS for ParaView.";

/// `--key value` pairs; a key outside `known` is an error.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag `--{key}`\n\n{USAGE}"));
        }
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        map.insert(key.to_string(), val.clone());
    }
    Ok(map)
}

fn req<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad {what} `{s}`: {e}"))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["dataset", "n", "seed", "extent", "out"])?;
    let kind = match req(&flags, "dataset")? {
        "dengue" => DatasetKind::Dengue,
        "pollen" => DatasetKind::PollenUs,
        "flu" => DatasetKind::Flu,
        "ebird" => DatasetKind::EBird,
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let n: usize = parse_num(req(&flags, "n")?, "--n")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "--seed"))
        .transpose()?
        .unwrap_or(42);
    let extent = match flags.get("extent") {
        Some(spec) => {
            let vals: Vec<f64> = spec
                .split(',')
                .map(|v| parse_num(v.trim(), "--extent component"))
                .collect::<Result<_, _>>()?;
            if vals.len() != 6 {
                return Err("--extent needs x0,y0,t0,x1,y1,t1".into());
            }
            Extent::new([vals[0], vals[1], vals[2]], [vals[3], vals[4], vals[5]])
        }
        None => Extent::new([0.0, 0.0, 0.0], [10_000.0, 10_000.0, 365.0]),
    };
    let out = PathBuf::from(req(&flags, "out")?);
    let points = kind.generate(n, extent, seed);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    stkde::data::csv::save(&points, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} synthetic {kind} events to {}",
        points.len(),
        out.display()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["input"])?;
    let input = PathBuf::from(req(&flags, "input")?);
    let mut points = stkde::data::csv::load(&input).map_err(|e| e.to_string())?;
    let dropped = points.retain_finite();
    println!("file:    {}", input.display());
    println!(
        "events:  {} ({} non-finite rows dropped)",
        points.len(),
        dropped
    );
    if let Some(b) = points.bounds() {
        println!(
            "extent:  x [{:.3}, {:.3}]  y [{:.3}, {:.3}]  t [{:.3}, {:.3}]",
            b.min[0], b.max[0], b.min[1], b.max[1], b.min[2], b.max[2]
        );
    }
    Ok(())
}

fn cmd_compute(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "input",
            "sres",
            "tres",
            "hs",
            "ht",
            "algorithm",
            "decomp",
            "threads",
            "out-prefix",
            "slices",
            "format",
            "vtk",
        ],
    )?;
    let input = PathBuf::from(req(&flags, "input")?);
    let mut points = stkde::data::csv::load(&input).map_err(|e| e.to_string())?;
    let dropped = points.retain_finite();
    if dropped > 0 {
        eprintln!("note: dropped {dropped} non-finite rows");
    }
    if points.is_empty() {
        return Err("no events in input".into());
    }

    let sres: f64 = parse_num(req(&flags, "sres")?, "--sres")?;
    let tres: f64 = parse_num(req(&flags, "tres")?, "--tres")?;
    let hs: f64 = parse_num(req(&flags, "hs")?, "--hs")?;
    let ht: f64 = parse_num(req(&flags, "ht")?, "--ht")?;
    let threads: usize = flags
        .get("threads")
        .map(|s| parse_num(s, "--threads"))
        .transpose()?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let k: usize = flags
        .get("decomp")
        .map(|s| parse_num(s, "--decomp"))
        .transpose()?
        .unwrap_or(16);

    // Domain: event bounding box padded by one bandwidth.
    let b = points.bounds().expect("non-empty");
    let extent = Extent::new(
        [b.min[0] - hs, b.min[1] - hs, b.min[2] - ht],
        [b.max[0] + hs, b.max[1] + hs, b.max[2] + ht],
    );
    let domain = Domain::from_extent(extent, Resolution::new(sres, tres));
    let bw = Bandwidth::new(hs, ht);
    println!(
        "grid {} ({:.1} MiB of f32), n = {}, threads = {threads}",
        domain.dims(),
        domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0),
        points.len()
    );

    let decomp = Decomp::cubic(k);
    let algorithm = match flags.get("algorithm").map(String::as_str).unwrap_or("auto") {
        "sparse" => None,
        "vb" => Some(Algorithm::Vb),
        "vb-dec" => Some(Algorithm::VbDec),
        "pb" => Some(Algorithm::Pb),
        "pb-sym" => Some(Algorithm::PbSym),
        "dr" => Some(Algorithm::PbSymDr),
        "dd" => Some(Algorithm::PbSymDd { decomp }),
        "pd" => Some(Algorithm::PbSymPd { decomp }),
        "pd-sched" => Some(Algorithm::PbSymPdSched { decomp }),
        "pd-rep" => Some(Algorithm::PbSymPdRep { decomp }),
        "pd-sched-rep" => Some(Algorithm::PbSymPdSchedRep { decomp }),
        "auto" => Some(Algorithm::Auto),
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    let (grid, timings, alg_name): (Grid3<f32>, _, String) = match algorithm {
        None => {
            let r = Stkde::new(domain, bw)
                .threads(threads)
                .compute_sparse::<f32>(&points)
                .map_err(|e| e.to_string())?;
            println!(
                "sparse backend: {} of {} bricks allocated ({:.1}% occupancy, {:.1} MiB vs {:.1} MiB dense)",
                r.grid.allocated_bricks(),
                r.grid.table_len(),
                100.0 * r.occupancy(),
                r.grid.allocated_bytes() as f64 / (1024.0 * 1024.0),
                domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0),
            );
            let name = if threads > 1 {
                "PB-SYM-SPARSE-PAR"
            } else {
                "PB-SYM-SPARSE"
            };
            // Exports below need the dense cube; materialize it.
            (r.grid.to_dense(), r.timings, name.to_string())
        }
        Some(algorithm) => {
            let result = Stkde::new(domain, bw)
                .algorithm(algorithm)
                .threads(threads)
                .compute::<f32>(&points)
                .map_err(|e| e.to_string())?;
            let name = result.algorithm.to_string();
            (result.grid, result.timings, name)
        }
    };

    println!("algorithm {alg_name}: {timings}");
    let stats = stkde::grid::stats::stats(&grid);
    println!(
        "density: max {:.3e}, mean {:.3e}, occupancy {:.1}%",
        stats.max,
        stats.mean(),
        100.0 * stats.occupancy()
    );

    // Optional whole-cube VTK export (ParaView/VisIt volume rendering).
    if let Some(vtk_path) = flags.get("vtk") {
        let path = PathBuf::from(vtk_path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        stkde::grid::io::write_vtk(&grid, domain.voxel_center(0, 0, 0), [sres, sres, tres], f)
            .map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }

    // Optional slice export.
    if let Some(prefix) = flags.get("out-prefix") {
        let format = flags.get("format").map(String::as_str).unwrap_or("pgm");
        let slices: Vec<usize> = match flags.get("slices").map(String::as_str) {
            None | Some("peak") => {
                let ((_, _, t), _) = stkde::grid::stats::top_k(&grid, 1)[0];
                vec![t]
            }
            Some(spec) => spec
                .split(',')
                .map(|s| parse_num(s.trim(), "--slices entry"))
                .collect::<Result<_, _>>()?,
        };
        let prefix = PathBuf::from(prefix);
        if let Some(dir) = prefix.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        for t in slices {
            if t >= domain.dims().gt {
                return Err(format!(
                    "slice {t} out of range (Gt = {})",
                    domain.dims().gt
                ));
            }
            let path = PathBuf::from(format!("{}_t{t}.{format}", prefix.display()));
            match format {
                "pgm" => stkde::grid::io::write_slice_pgm(&grid, t, stats.max, &path)
                    .map_err(|e| e.to_string())?,
                "csv" => {
                    let f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                    stkde::grid::io::write_slice_csv(&grid, t, f).map_err(|e| e.to_string())?;
                }
                other => return Err(format!("unknown format `{other}`")),
            }
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}
