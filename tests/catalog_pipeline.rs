//! End-to-end pipeline over (scaled) Table 2 catalog instances: generate →
//! optionally round-trip through CSV → compute with several algorithms →
//! cross-validate → sanity-check the densities.

use stkde::prelude::*;
use stkde_data::catalog;

fn tiny(name: &str) -> stkde_data::Instance {
    catalog::by_name(name)
        .unwrap_or_else(|| panic!("unknown instance {name}"))
        .scaled_to_budget(60_000, 1_500)
}

#[test]
fn scaled_catalog_instances_run_and_agree() {
    // One representative per dataset (keeps the test fast while touching
    // all four synthetic profiles).
    for name in ["Dengue_Lr-Lb", "PollenUS_Lr-Lb", "Flu_Lr-Hb", "eBird_Lr-Lb"] {
        let inst = tiny(name);
        let points = inst.generate_points(3);
        let engine = Stkde::new(inst.domain(), inst.bandwidth());
        let reference = engine
            .clone()
            .algorithm(Algorithm::PbSym)
            .compute::<f64>(&points)
            .unwrap();
        for alg in [
            Algorithm::Pb,
            Algorithm::PbSymDr,
            Algorithm::PbSymDd {
                decomp: Decomp::cubic(4),
            },
            Algorithm::PbSymPdSchedRep {
                decomp: Decomp::cubic(4),
            },
        ] {
            let r = engine
                .clone()
                .algorithm(alg)
                .threads(2)
                .compute::<f64>(&points)
                .unwrap();
            assert!(
                reference.grid.max_rel_diff(&r.grid, 1e-14) <= 1e-9,
                "{name}: {alg} diverges"
            );
        }
        // Sanity: density mass ≈ (voxel volume) · Σ f̂ ≤ 1, positive.
        let stats = stkde::grid::stats::stats(&reference.grid);
        assert!(stats.max > 0.0, "{name}: empty density");
        assert!(stats.min >= 0.0, "{name}: negative density");
        let res = inst.domain().resolution();
        let voxel_vol = res.sres * res.sres * res.tres;
        let mass = stats.sum * voxel_vol;
        assert!(
            mass > 0.01 && mass < 1.5,
            "{name}: discrete mass {mass} out of range"
        );
    }
}

#[test]
fn csv_round_trip_preserves_density() {
    let inst = tiny("Dengue_Hr-Lb");
    let points = inst.generate_points(11);
    let dir = std::env::temp_dir().join("stkde_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.csv");
    stkde::data::csv::save(&points, &path).unwrap();
    let loaded = stkde::data::csv::load(&path).unwrap();
    assert_eq!(loaded.len(), points.len());

    let engine = Stkde::new(inst.domain(), inst.bandwidth());
    let direct = engine
        .clone()
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let roundtrip = engine
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&loaded)
        .unwrap();
    // CSV serializes f64 exactly (shortest round-trip representation), so
    // the densities must match bit-for-bit.
    assert_eq!(direct.grid.as_slice(), roundtrip.grid.as_slice());
    std::fs::remove_file(path).ok();
}

#[test]
fn full_catalog_is_well_formed_after_scaling() {
    for inst in stkde_data::full_catalog() {
        let scaled = inst.scaled_to_budget(40_000, 800);
        let d = scaled.domain().dims();
        assert!(d.volume() > 0);
        // Bandwidths stay at Table 2 values; grid still fits a cylinder.
        assert_eq!(scaled.params.hs, inst.params.hs, "{}", inst.name());
        assert_eq!(scaled.params.ht, inst.params.ht, "{}", inst.name());
        assert!(d.gx > 2 * scaled.params.hs, "{}", inst.name());
        assert!(d.gt > 2 * scaled.params.ht, "{}", inst.name());
        // When the cylinder-box floor does not bind on any axis, the
        // init/compute cost ratio is preserved (the point of volumetric
        // scaling); floored instances are allowed to distort.
        let floored = d.gx == 2 * scaled.params.hs + 1
            || d.gy == 2 * scaled.params.hs + 1
            || d.gt == 2 * scaled.params.ht + 1;
        if !floored {
            let r_full = inst.compute_cost() / inst.init_cost();
            let r_scaled = scaled.compute_cost() / scaled.init_cost();
            assert!(
                r_scaled / r_full < 2.0 && r_full / r_scaled < 2.0,
                "{}: cost balance drifted {r_full:.3} -> {r_scaled:.3}",
                inst.name()
            );
        }
    }
}

#[test]
fn auto_algorithm_runs_every_dataset_profile() {
    for kind in DatasetKind::ALL {
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let points = kind.generate(500, domain.extent(), 13);
        let r = Stkde::new(domain, Bandwidth::new(4.0, 3.0))
            .algorithm(Algorithm::Auto)
            .threads(2)
            .compute::<f32>(&points)
            .unwrap();
        assert!(stkde::grid::stats::stats(&r.grid).max > 0.0, "{kind}");
    }
}
