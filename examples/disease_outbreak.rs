//! Disease-outbreak analysis, after the paper's Dengue fever use case
//! (§1, Figure 1): compute the space-time density of an epidemic at two
//! bandwidth settings and compare what the analyst sees.
//!
//! The paper's Figure 1 contrasts `hs = 2500 m / ht = 14 days` (broad
//! regional trends) with `hs = 500 m / ht = 7 days` (street-level
//! clusters). This example reproduces that comparison on a synthetic Cali-
//! like outbreak, prints hotspot rankings, and writes PGM heatmaps.
//!
//! ```sh
//! cargo run --release --example disease_outbreak
//! ```

use stkde::prelude::*;

fn main() -> Result<(), StkdeError> {
    // Cali-like setting: ~15 km × 12 km urban area, two years of daily
    // case reports, 50 m spatial resolution.
    let extent = Extent::new([0.0, 0.0, 0.0], [15_000.0, 12_000.0, 730.0]);
    let domain = Domain::from_extent(extent, Resolution::new(100.0, 2.0));
    let cases = DatasetKind::Dengue.generate(11_056, extent, 2010);
    println!(
        "synthetic dengue surveillance: {} geocoded cases over {} days, grid {}",
        cases.len(),
        730,
        domain.dims()
    );

    for (label, hs, ht) in [
        ("broad   (hs=2500m, ht=14d)", 2_500.0, 14.0),
        ("focused (hs= 500m, ht= 7d)", 500.0, 7.0),
    ] {
        let result = Stkde::new(domain, Bandwidth::new(hs, ht))
            .algorithm(Algorithm::PbSymDd {
                decomp: Decomp::cubic(8),
            })
            .threads(2)
            .compute::<f32>(&cases)?;

        let stats = stkde::grid::stats::stats(&result.grid);
        println!(
            "\n=== {label} ===\n  algorithm {} | {} | occupancy {:.1}%",
            result.algorithm,
            result.timings,
            100.0 * stats.occupancy()
        );

        // Rank outbreak hotspots: the strongest voxels, deduplicated to
        // one report per neighborhood-week.
        let top = stkde::grid::stats::top_k(&result.grid, 500);
        let mut reported: Vec<(usize, usize, usize)> = Vec::new();
        println!("  top outbreak clusters:");
        for ((x, y, t), v) in top {
            let far_enough = reported.iter().all(|&(rx, ry, rt)| {
                let dx = (x as f64 - rx as f64) * domain.resolution().sres;
                let dy = (y as f64 - ry as f64) * domain.resolution().sres;
                let dt = (t as f64 - rt as f64) * domain.resolution().tres;
                (dx * dx + dy * dy).sqrt() > hs || dt.abs() > ht
            });
            if far_enough {
                let c = domain.voxel_center(x, y, t);
                println!(
                    "    ({:6.0} m, {:6.0} m) around day {:3.0}: density {v:.3e}",
                    c[0], c[1], c[2]
                );
                reported.push((x, y, t));
                if reported.len() == 3 {
                    break;
                }
            }
        }

        // Figure-1-style visualization: the peak week as a heatmap.
        let (_, _, peak_t) = stkde::grid::stats::top_k(&result.grid, 1)[0].0;
        let out = std::env::temp_dir().join(format!(
            "dengue_{}.pgm",
            if hs > 1000.0 { "broad" } else { "focused" }
        ));
        let max = stats.max;
        stkde::grid::io::write_slice_pgm(&result.grid, peak_t, max, &out).expect("write heatmap");
        println!("  heatmap of day {peak_t} written to {}", out.display());
        println!(
            "{}",
            stkde::grid::io::ascii_slice(&result.grid, peak_t, 64, 22)
        );
    }

    println!("note: broad bandwidths blur clusters into regional trends;");
    println!("focused bandwidths isolate street-level transmission foci.");
    Ok(())
}
