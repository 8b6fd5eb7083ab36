//! A tour of all twelve algorithms of the paper on one instance, verifying
//! that they all compute the same density field and showing where their
//! runtimes differ.
//!
//! ```sh
//! cargo run --release --example algorithm_tour
//! ```

use std::time::Instant;
use stkde::prelude::*;

fn main() -> Result<(), StkdeError> {
    let domain = Domain::from_dims(GridDims::new(96, 96, 48));
    let extent = domain.extent();
    let points = DatasetKind::PollenUs.generate(8_000, extent, 99);
    let bw = Bandwidth::new(6.0, 4.0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    println!(
        "instance: grid {}, n = {}, Hs x Ht = 6 x 4, threads = {threads}\n",
        domain.dims(),
        points.len()
    );

    let d = Decomp::cubic(8);
    let lineup = [
        ("gold standard", Algorithm::Vb),
        ("blocked voxel baseline", Algorithm::VbDec),
        ("point-based", Algorithm::Pb),
        ("+ spatial invariant", Algorithm::PbDisk),
        ("+ temporal invariant", Algorithm::PbBar),
        ("+ both invariants", Algorithm::PbSym),
        ("parallel: replication", Algorithm::PbSymDr),
        ("parallel: domain decomp", Algorithm::PbSymDd { decomp: d }),
        ("parallel: phased points", Algorithm::PbSymPd { decomp: d }),
        (
            "parallel: DAG-scheduled",
            Algorithm::PbSymPdSched { decomp: d },
        ),
        (
            "parallel: + replication",
            Algorithm::PbSymPdRep { decomp: d },
        ),
        (
            "parallel: sched + rep",
            Algorithm::PbSymPdSchedRep { decomp: d },
        ),
    ];

    let engine = Stkde::new(domain, bw).threads(threads);
    let mut reference: Option<Grid3<f64>> = None;
    println!(
        "{:<24} {:<20} {:>9}  {:>8}  verified",
        "role", "algorithm", "time", "speedup"
    );
    println!("{}", "-".repeat(72));
    let mut t_first = None;
    for (role, alg) in lineup {
        let t0 = Instant::now();
        let result = engine.clone().algorithm(alg).compute::<f64>(&points)?;
        let t = t0.elapsed().as_secs_f64();
        let ok = match &reference {
            None => {
                reference = Some(result.grid.clone());
                t_first = Some(t);
                true
            }
            Some(r) => r.max_rel_diff(&result.grid, 1e-14) <= 1e-9,
        };
        println!(
            "{:<24} {:<20} {:>8.3}s  {:>7.2}x  {}",
            role,
            result.algorithm.to_string(),
            t,
            t_first.unwrap() / t,
            if ok { "yes" } else { "NO — BUG" }
        );
        assert!(ok, "{} disagrees with VB", result.algorithm);
    }
    println!("\nall algorithms agree with the gold standard (rtol 1e-9).");
    Ok(())
}
