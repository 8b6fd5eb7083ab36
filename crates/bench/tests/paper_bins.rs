//! Smoke test of the 14 paper-reproduction binaries: each runs to
//! completion on a tiny budget and prints its table. What the tables
//! *say* is recorded in EXPERIMENTS.md; nothing here reads a clock.

use std::process::Command;

/// `(name, path)` of a harness binary, resolved by cargo at build time.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

#[test]
fn every_harness_binary_prints_its_table() {
    let bins = bins![
        "table2",
        "table3",
        "fig07_breakdown",
        "fig08_dr",
        "fig09_dd_overhead",
        "fig10_dd",
        "fig11_pd",
        "fig12_critical_path",
        "fig13_pd_sched",
        "fig14_pd_rep",
        "fig15_best",
        "ablation_distmem",
        "ablation_model",
        "ablation_sparse",
    ];
    for (name, exe) in bins {
        let out = Command::new(exe)
            .args(["--max-voxels", "200000", "--max-points", "2000"])
            .args(["--max-updates", "2e7", "--filter", "Dengue_Hr"])
            .output()
            .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name} exited with {}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let header = stdout.lines().next().unwrap_or_default();
        assert!(
            ["== Table", "== Figure", "== Ablation"]
                .iter()
                .any(|h| header.starts_with(h)),
            "{name}: first line is not a table header: {header:?}"
        );
        assert!(
            stdout.lines().any(|l| l.starts_with("Dengue_Hr")),
            "{name}: no instance row\n{stdout}"
        );
    }
}
