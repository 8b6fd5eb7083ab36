//! Social-media stream analysis, after the paper's PollenUS dataset
//! (588K pollen/allergy tweets): a compute-heavy instance where the
//! parallel strategies differ sharply, and where the engine's `Auto` mode
//! (the paper's "parametric model" future work) earns its keep.
//!
//! ```sh
//! cargo run --release --example social_media
//! ```

use std::time::Instant;
use stkde::prelude::*;

fn main() -> Result<(), StkdeError> {
    // Continental-US-like domain over one allergy season, at a resolution
    // giving a compute-dominated instance (PollenUS Hr-Mb character).
    let extent = Extent::new([0.0, 0.0, 0.0], [4_800.0, 2_400.0, 90.0]);
    let domain = Domain::from_extent(extent, Resolution::new(12.0, 1.0));
    let tweets = DatasetKind::PollenUs.generate(60_000, extent, 2016);
    let bw = Bandwidth::new(180.0, 7.0); // Hs = 15, Ht = 7 voxels
    println!(
        "synthetic pollen tweets: n = {}, grid {} ({:.0} MiB), Hs x Ht = 15 x 7 voxels\n",
        tweets.len(),
        domain.dims(),
        domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0),
    );

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let base = Stkde::new(domain, bw).threads(threads);

    // Sequential reference.
    let t0 = Instant::now();
    let reference = base
        .clone()
        .algorithm(Algorithm::PbSym)
        .compute::<f32>(&tweets)?;
    let t_seq = t0.elapsed().as_secs_f64();
    println!(
        "PB-SYM (sequential reference): {t_seq:.3}s [{}]",
        reference.timings
    );

    // The parallel lineup on this machine.
    let candidates = [
        Algorithm::PbSymDr,
        Algorithm::PbSymDd {
            decomp: Decomp::cubic(8),
        },
        Algorithm::PbSymPd {
            decomp: Decomp::cubic(16),
        },
        Algorithm::PbSymPdSched {
            decomp: Decomp::cubic(16),
        },
        Algorithm::PbSymPdSchedRep {
            decomp: Decomp::cubic(16),
        },
    ];
    println!("\nparallel strategies with {threads} threads:");
    for alg in candidates {
        let t0 = Instant::now();
        match base.clone().algorithm(alg).compute::<f32>(&tweets) {
            Ok(result) => {
                let t = t0.elapsed().as_secs_f64();
                // Sanity: all strategies agree with the reference.
                let agrees = reference.grid.max_rel_diff(&result.grid, 1e-9) <= 1e-3;
                println!(
                    "  {:22} {t:7.3}s  speedup {:5.2}  {}",
                    result.algorithm.to_string(),
                    t_seq / t,
                    if agrees { "(verified)" } else { "(MISMATCH!)" }
                );
            }
            Err(e) => println!("  {:22} failed: {e}", alg.to_string()),
        }
    }

    // Let the cost model choose.
    let auto = base
        .clone()
        .algorithm(Algorithm::Auto)
        .compute::<f32>(&tweets)?;
    println!("\nAuto selected {} — {}", auto.algorithm, auto.timings);

    // What the analyst came for: when and where does allergy chatter peak?
    let ((x, y, t), peak) = stkde::grid::stats::top_k(&auto.grid, 1)[0];
    let c = domain.voxel_center(x, y, t);
    println!(
        "peak chatter: day {:.0}, location ({:.0}, {:.0}) km, density {peak:.3e}",
        c[2],
        c[0] / 10.0,
        c[1] / 10.0
    );
    Ok(())
}
