//! Quickstart: compute an STKDE density cube for a synthetic outbreak and
//! render a time slice in the terminal.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stkde::prelude::*;

fn main() -> Result<(), StkdeError> {
    // 1. Describe the space-time domain: a 10 km × 10 km city observed for
    //    90 days, discretized at 100 m and 1 day.
    let extent = Extent::new([0.0, 0.0, 0.0], [10_000.0, 10_000.0, 90.0]);
    let domain = Domain::from_extent(extent, Resolution::new(100.0, 1.0));
    println!(
        "domain: {} voxels ({:.1} MiB of f32)",
        domain.dims(),
        domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0)
    );

    // 2. Get events. Here: a synthetic epidemic with the Dengue profile
    //    (in real use: PointSet::from_vec or stkde::data::csv::load).
    let points = DatasetKind::Dengue.generate(5_000, extent, 7);
    println!("events: {}", points.len());

    // 3. Compute the density with a 1 km spatial / 7 day temporal
    //    bandwidth. PB-SYM is the paper's best sequential algorithm;
    //    Algorithm::Auto would pick a parallel variant when it pays off.
    let result = Stkde::new(domain, Bandwidth::new(1_000.0, 7.0))
        .algorithm(Algorithm::PbSym)
        .compute::<f32>(&points)?;
    println!("timings: {}", result.timings);

    // 4. Inspect the result: global statistics and the densest moment.
    let stats = stkde::grid::stats::stats(&result.grid);
    println!(
        "density: max {:.3e}, mean {:.3e}, {:.1}% of voxels non-zero",
        stats.max,
        stats.mean(),
        100.0 * stats.occupancy()
    );
    let top = stkde::grid::stats::top_k(&result.grid, 1);
    let ((x, y, t), peak) = top[0];
    println!("hottest voxel: ({x}, {y}) on day {t} (density {peak:.3e})");

    // 5. Render that day as ASCII art (darker = denser).
    println!("\ndensity map, day {t}:");
    print!("{}", stkde::grid::io::ascii_slice(&result.grid, t, 72, 30));
    Ok(())
}
