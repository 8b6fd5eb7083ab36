//! Ornithology surveillance, after the paper's Flu/eBird datasets: sparse
//! observations scattered over a huge domain, where *memory
//! initialization* — not kernel computation — dominates (paper Figure 7),
//! domain replication runs out of memory (Figure 8), and decomposed
//! strategies with parallel init are the right call.
//!
//! ```sh
//! cargo run --release --example bird_migration
//! ```

use stkde::prelude::*;

fn main() -> Result<(), StkdeError> {
    // A world-spanning domain observed for 4 years at 3-day resolution —
    // Flu-like: big grid, few points.
    let extent = Extent::new([-180.0, -60.0, 0.0], [180.0, 75.0, 1460.0]);
    let domain = Domain::from_extent(extent, Resolution::new(0.5, 3.0));
    let sightings = DatasetKind::Flu.generate(31_478, extent, 2001);
    let bw = Bandwidth::new(2.0, 9.0);
    let grid_mib = domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0);
    println!(
        "avian-flu-like surveillance: n = {}, grid {} = {:.0} MiB",
        sightings.len(),
        domain.dims(),
        grid_mib
    );

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let engine = Stkde::new(domain, bw).threads(threads);

    // The sparse-instance signature: initialization dominates.
    let seq = engine
        .clone()
        .algorithm(Algorithm::PbSym)
        .compute::<f32>(&sightings)?;
    println!(
        "\nPB-SYM breakdown: {} -> {:.0}% of the time is memory initialization",
        seq.timings,
        100.0 * seq.timings.init_fraction()
    );

    // Domain replication under a realistic memory budget: with P replicas
    // of a big sparse grid, DR exhausts memory exactly as in Figure 8.
    let budget = (2.5 * grid_mib * 1024.0 * 1024.0) as usize;
    match engine
        .clone()
        .algorithm(Algorithm::PbSymDr)
        .threads(8)
        .memory_limit(budget)
        .compute::<f32>(&sightings)
    {
        Err(StkdeError::MemoryLimit { required, limit, what }) => println!(
            "\nPB-SYM-DR with 8 threads: OOM as the paper observes — {what}: needs {:.0} MiB, budget {:.0} MiB",
            required as f64 / (1024.0 * 1024.0),
            limit as f64 / (1024.0 * 1024.0)
        ),
        Ok(_) => println!("\nPB-SYM-DR unexpectedly fit in the budget"),
        Err(e) => println!("\nPB-SYM-DR failed differently: {e}"),
    }

    // The right tool: domain decomposition with parallel first-touch init.
    let dd = engine
        .clone()
        .algorithm(Algorithm::PbSymDd {
            decomp: Decomp::cubic(16),
        })
        .compute::<f32>(&sightings)?;
    let agree = seq.grid.max_rel_diff(&dd.grid, 1e-9) <= 1e-3;
    println!(
        "PB-SYM-DD 16^3, {threads} threads: {} (agrees with sequential: {agree})",
        dd.timings
    );
    println!(
        "speedup vs PB-SYM: {:.2}x (bounded by memory-init scaling on sparse instances)",
        seq.timings.total().as_secs_f64() / dd.timings.total().as_secs_f64()
    );

    // Migration reading: where is sighting density concentrated over time?
    let dims = domain.dims();
    println!("\nflyway activity by season (total density per time slice):");
    let per_quarter = dims.gt / 16;
    for q in 0..16 {
        let t0 = q * per_quarter;
        let t1 = ((q + 1) * per_quarter).min(dims.gt);
        let mass: f64 = (t0..t1)
            .map(|t| dd.grid.time_slice(t).iter().map(|&v| v as f64).sum::<f64>())
            .sum();
        let bar_len = (mass * 4e3) as usize;
        println!(
            "  days {:4.0}-{:4.0}: {}",
            t0 as f64 * 3.0,
            t1 as f64 * 3.0,
            "#".repeat(bar_len.min(60))
        );
    }
    Ok(())
}
