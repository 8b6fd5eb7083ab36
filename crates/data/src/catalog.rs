//! The 21-instance catalog of Table 2.
//!
//! Every experiment in the paper runs over these instances. Instance codes
//! combine a resolution level (`Lr`/`Mr`/`Hr`/`VHr`) and a bandwidth level
//! (`VLb`/`Lb`/`Mb`/`Hb`/`VHb`).
//!
//! # Volumetric scaling
//!
//! The full-size instances need up to 60 GB of grid and 292 M points. For
//! small machines, [`Instance::scaled`] shrinks an instance by a factor
//! `α ∈ (0, 1]`: grid dimensions scale by `α` per axis and the point count
//! by `α³`, while the *voxel-space* bandwidths stay at their Table 2
//! values. Both cost terms of the point-based algorithms — initialization
//! `Θ(Gx·Gy·Gt)` and computation `Θ(n·Hs²·Ht)` — then scale by the same
//! `α³`, so the init/compute balance that drives all of the paper's
//! qualitative conclusions (Figure 7 and onward) is preserved per instance.

use crate::datasets::DatasetKind;
use crate::pointset::PointSet;
use serde::{Deserialize, Serialize};
use stkde_grid::{Bandwidth, Domain, GridDims, VoxelBandwidth};

/// The raw parameters of one Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceParams {
    /// Number of events, `n`.
    pub n: usize,
    /// Grid dimensions in voxels.
    pub dims: GridDims,
    /// Spatial bandwidth in voxels, `Hs`.
    pub hs: usize,
    /// Temporal bandwidth in voxels, `Ht`.
    pub ht: usize,
}

/// One instance of the experimental catalog: a dataset kind, an instance
/// code (e.g. `Hr-VHb`), and its parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Which dataset the instance derives from.
    pub dataset: DatasetKind,
    /// The paper's resolution/bandwidth code, e.g. `"Lr-Lb"`.
    pub code: String,
    /// Instance parameters (possibly scaled; see [`Instance::scale`]).
    pub params: InstanceParams,
    /// The volumetric scale factor applied (1.0 = paper size).
    pub scale: f64,
}

impl Instance {
    fn new(
        dataset: DatasetKind,
        code: &str,
        n: usize,
        dims: (usize, usize, usize),
        hs: usize,
        ht: usize,
    ) -> Self {
        Self {
            dataset,
            code: code.to_string(),
            params: InstanceParams {
                n,
                dims: GridDims::new(dims.0, dims.1, dims.2),
                hs,
                ht,
            },
            scale: 1.0,
        }
    }

    /// Full instance name as used in the paper's tables,
    /// e.g. `"Dengue_Hr-VHb"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.dataset.name(), self.code)
    }

    /// The computation domain (unit resolution; Table 2 is expressed in
    /// voxel units).
    pub fn domain(&self) -> Domain {
        Domain::from_dims(self.params.dims)
    }

    /// World-space bandwidths consistent with the voxel bandwidths under
    /// the unit-resolution domain (`hs = Hs`, `ht = Ht`).
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::new(self.params.hs as f64, self.params.ht as f64)
    }

    /// Voxel-space bandwidths (`Hs`, `Ht`).
    pub(crate) fn voxel_bandwidth(&self) -> VoxelBandwidth {
        VoxelBandwidth::new(self.params.hs, self.params.ht)
    }

    /// Grid memory footprint in MiB at 4 bytes per voxel — the `Size`
    /// column of Table 2.
    pub fn grid_mib(&self) -> f64 {
        (self.params.dims.volume() * 4) as f64 / (1024.0 * 1024.0)
    }

    /// Estimated kernel-computation work `n · (2Hs+1)² · (2Ht+1)` in voxel
    /// updates (the `Θ(n·Hs²·Ht)` term).
    pub fn compute_cost(&self) -> f64 {
        let s = (2 * self.params.hs + 1) as f64;
        let t = (2 * self.params.ht + 1) as f64;
        self.params.n as f64 * s * s * t
    }

    /// Estimated initialization work (`Θ(Gx·Gy·Gt)` voxel writes).
    pub fn init_cost(&self) -> f64 {
        self.params.dims.volume() as f64
    }

    /// Volumetrically scale the instance by `α ∈ (0, 1]`: dims ×α per axis
    /// (minimum: one voxel, and never below the cylinder box so the
    /// bandwidth still fits), n ×α³ (minimum 1). Bandwidths are unchanged.
    ///
    /// # Panics
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn scaled(&self, alpha: f64) -> Instance {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        if alpha == 1.0 {
            return self.clone();
        }
        let d = self.params.dims;
        let scale_dim = |g: usize, min_w: usize| -> usize {
            ((g as f64 * alpha).ceil() as usize).clamp(min_w.max(1), g)
        };
        // Keep at least one full cylinder box per axis so the instance
        // remains meaningful (and PB's clipping logic still gets exercised).
        let dims = GridDims::new(
            scale_dim(d.gx, 2 * self.params.hs + 1),
            scale_dim(d.gy, 2 * self.params.hs + 1),
            scale_dim(d.gt, 2 * self.params.ht + 1),
        );
        let vol_ratio = dims.volume() as f64 / d.volume() as f64;
        let n = ((self.params.n as f64 * vol_ratio).round() as usize).max(1);
        Instance {
            dataset: self.dataset,
            code: self.code.clone(),
            params: InstanceParams {
                n,
                dims,
                hs: self.params.hs,
                ht: self.params.ht,
            },
            scale: self.scale * alpha,
        }
    }

    /// Scale the instance down (if needed) so the grid holds at most
    /// `max_voxels` voxels *and* the point count is at most `max_points`.
    /// Returns the instance unchanged when it already fits.
    pub fn scaled_to_budget(&self, max_voxels: usize, max_points: usize) -> Instance {
        self.scaled_to_budgets(max_voxels, max_points, f64::INFINITY)
    }

    /// Like [`Instance::scaled_to_budget`], with an additional cap on the
    /// kernel-computation work `n·(2Hs+1)²(2Ht+1)` (in voxel updates).
    /// All three cost measures scale by `α³`, so one scale factor fits all.
    pub fn scaled_to_budgets(
        &self,
        max_voxels: usize,
        max_points: usize,
        max_updates: f64,
    ) -> Instance {
        let v_ratio = max_voxels as f64 / self.params.dims.volume() as f64;
        let p_ratio = max_points as f64 / self.params.n as f64;
        let u_ratio = max_updates / self.compute_cost();
        let mut alpha = v_ratio.min(p_ratio).min(u_ratio).min(1.0).cbrt();
        if alpha >= 1.0 {
            return self.clone();
        }
        // Final n-cap applied to whatever the loop produces: when the
        // cylinder-box floor stops the dims from shrinking, the point count
        // can still be reduced to honor the work budgets (at the cost of
        // some init/compute balance distortion on those floored instances).
        let cap_n = |mut s: Instance| -> Instance {
            let per_point = s.voxel_bandwidth().cylinder_box_volume() as f64;
            let n_updates = (max_updates / per_point).floor().max(1.0) as usize;
            s.params.n = s.params.n.min(max_points.max(1)).min(n_updates);
            s
        };
        // Ceil-rounding of the scaled dims can overshoot the budget
        // slightly; shrink until the realized instance fits (the minimum
        // cylinder-box clamp can make very tight budgets unattainable, in
        // which case the smallest meaningful instance is returned).
        for _ in 0..64 {
            let s = self.scaled(alpha);
            if (s.params.dims.volume() <= max_voxels
                && s.params.n <= max_points
                && s.compute_cost() <= max_updates)
                || s.params.dims.volume()
                    == GridDims::new(
                        2 * s.params.hs + 1,
                        2 * s.params.hs + 1,
                        2 * s.params.ht + 1,
                    )
                    .volume()
            {
                return cap_n(s);
            }
            alpha *= 0.97;
        }
        cap_n(self.scaled(alpha))
    }

    /// Generate the instance's synthetic point set (deterministic in the
    /// instance name + seed).
    pub fn generate_points(&self, seed: u64) -> PointSet {
        // Mix the instance name into the seed so e.g. Dengue Lr and Hr use
        // different (but stable) draws, like distinct geocoding runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        self.dataset
            .generate(self.params.n, self.domain().extent(), seed ^ h)
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The full 21-instance catalog of Table 2, in the paper's row order.
pub fn full_catalog() -> Vec<Instance> {
    use DatasetKind::*;
    vec![
        Instance::new(Dengue, "Lr-Lb", 11_056, (148, 194, 728), 3, 1),
        Instance::new(Dengue, "Lr-Hb", 11_056, (148, 194, 728), 25, 1),
        Instance::new(Dengue, "Hr-Lb", 11_056, (294, 386, 728), 2, 1),
        Instance::new(Dengue, "Hr-Hb", 11_056, (294, 386, 728), 50, 1),
        Instance::new(Dengue, "Hr-VHb", 11_056, (294, 386, 728), 50, 14),
        Instance::new(PollenUs, "Lr-Lb", 588_189, (131, 61, 84), 2, 3),
        Instance::new(PollenUs, "Hr-Lb", 588_189, (651, 301, 84), 10, 3),
        Instance::new(PollenUs, "Hr-Mb", 588_189, (651, 301, 84), 25, 7),
        Instance::new(PollenUs, "Hr-Hb", 588_189, (651, 301, 84), 50, 14),
        Instance::new(PollenUs, "VHr-Lb", 588_189, (6501, 3001, 84), 100, 3),
        Instance::new(PollenUs, "VHr-VLb", 588_189, (6501, 3001, 84), 50, 3),
        Instance::new(Flu, "Lr-Lb", 31_478, (117, 308, 851), 1, 1),
        Instance::new(Flu, "Lr-Hb", 31_478, (117, 308, 851), 2, 3),
        Instance::new(Flu, "Mr-Lb", 31_478, (233, 615, 1985), 2, 3),
        Instance::new(Flu, "Mr-Hb", 31_478, (233, 615, 1985), 4, 7),
        Instance::new(Flu, "Hr-Lb", 31_478, (581, 1536, 5951), 5, 7),
        Instance::new(Flu, "Hr-Hb", 31_478, (581, 1536, 5951), 10, 21),
        Instance::new(EBird, "Lr-Lb", 291_990_435, (357, 721, 2435), 2, 3),
        Instance::new(EBird, "Lr-Hb", 291_990_435, (357, 721, 2435), 6, 5),
        Instance::new(EBird, "Hr-Lb", 291_990_435, (1781, 3601, 2435), 10, 3),
        Instance::new(EBird, "Hr-Hb", 291_990_435, (1781, 3601, 2435), 30, 5),
    ]
}

/// Look up an instance by its full name (e.g. `"Flu_Mr-Hb"`).
pub fn by_name(name: &str) -> Option<Instance> {
    full_catalog().into_iter().find(|i| i.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_21_instances_in_order() {
        let cat = full_catalog();
        assert_eq!(cat.len(), 21);
        assert_eq!(cat[0].name(), "Dengue_Lr-Lb");
        assert_eq!(cat[4].name(), "Dengue_Hr-VHb");
        assert_eq!(cat[20].name(), "eBird_Hr-Hb");
    }

    #[test]
    fn table2_sizes_match_paper() {
        // The paper's Size column (MiB at 4 bytes/voxel), Table 2.
        let expect = [
            ("Dengue_Lr-Lb", 79.0),
            ("Dengue_Hr-Lb", 315.0),
            ("PollenUS_Lr-Lb", 2.0),
            ("PollenUS_Hr-Lb", 62.0),
            ("PollenUS_VHr-Lb", 6252.0),
            ("Flu_Lr-Lb", 117.0),
            ("Flu_Mr-Lb", 1085.0),
            ("Flu_Hr-Lb", 20260.0),
            ("eBird_Lr-Lb", 2391.0),
            ("eBird_Hr-Lb", 59570.0),
        ];
        for (name, mib) in expect {
            let inst = by_name(name).unwrap();
            let got = inst.grid_mib();
            // The paper prints integer MiB (rounding convention unclear for
            // the smallest instance); allow 1 MiB absolute or 2% relative.
            assert!(
                (got - mib).abs() <= 1.0 || (got - mib).abs() / mib < 0.02,
                "{name}: computed {got:.1} MiB vs paper {mib}"
            );
        }
    }

    #[test]
    fn scaled_preserves_cost_balance() {
        let inst = by_name("PollenUS_Hr-Mb").unwrap();
        let scaled = inst.scaled(0.3);
        let ratio_full = inst.compute_cost() / inst.init_cost();
        let ratio_scaled = scaled.compute_cost() / scaled.init_cost();
        // n is matched to the achieved volume ratio, so the balance is
        // preserved up to rounding of the dims.
        assert!(
            (ratio_scaled / ratio_full - 1.0).abs() < 0.05,
            "balance drifted: {ratio_full} vs {ratio_scaled}"
        );
        assert_eq!(scaled.params.hs, inst.params.hs);
        assert_eq!(scaled.params.ht, inst.params.ht);
        assert!(scaled.params.n < inst.params.n);
    }

    #[test]
    fn scaled_keeps_cylinder_box() {
        let inst = by_name("Dengue_Hr-VHb").unwrap(); // Hs=50, Ht=14
        let s = inst.scaled(0.05);
        assert!(s.params.dims.gx >= 101);
        assert!(s.params.dims.gy >= 101);
        assert!(s.params.dims.gt >= 29);
    }

    #[test]
    fn scaled_one_is_identity() {
        let inst = by_name("Flu_Lr-Lb").unwrap();
        assert_eq!(inst.scaled(1.0), inst);
    }

    #[test]
    fn scaled_to_budget_caps_both() {
        let inst = by_name("eBird_Hr-Hb").unwrap();
        let s = inst.scaled_to_budget(10_000_000, 500_000);
        assert!(s.params.dims.volume() <= 10_000_000);
        assert!(
            s.params.n <= 550_000,
            "n {} should be near the cap",
            s.params.n
        );
        // Small instances pass through untouched.
        let small = by_name("PollenUS_Lr-Lb").unwrap();
        assert_eq!(small.scaled_to_budget(usize::MAX, usize::MAX), small);
    }

    #[test]
    fn generate_points_is_deterministic_and_sized() {
        let inst = by_name("Dengue_Lr-Lb").unwrap().scaled(0.2);
        let a = inst.generate_points(1);
        let b = inst.generate_points(1);
        assert_eq!(a, b);
        assert_eq!(a.len(), inst.params.n);
        let ext = inst.domain().extent();
        for p in &a {
            assert!(ext.contains(p.as_array()));
        }
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(by_name("Nope_Lr-Lb").is_none());
    }
}
