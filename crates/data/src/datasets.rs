//! Shape profiles imitating the paper's four datasets (§6.1).
//!
//! | Paper dataset | Character | Profile here |
//! |---|---|---|
//! | **Dengue** (Cali, Colombia; 11,056 geocoded cases, 2010–11) | Urban cases masked to street intersections: many tight clusters, mild seasonal epidemic waves | many small isotropic clusters, moderate tail, two seasonal waves |
//! | **PollenUS** (588K tweets, Feb–Apr 2016) | Tweets concentrated in population centers with heavy-tailed city sizes; strong spring ramp | heavy-tailed cluster weights, strong single seasonal wave |
//! | **Flu** (31,478 avian-flu positives, 2001–16, worldwide) | Sparse observations along migratory flyways spanning most of the globe | few, elongated (anisotropic) clusters, high background |
//! | **eBird** (292M sightings, worldwide) | Dense crowdsourced sightings concentrated at birding hotspots | many clusters, very heavy tail, low background |

use crate::pointset::PointSet;
use crate::synth::{ClusterSpec, Seasonality};
use serde::{Deserialize, Serialize};
use stkde_grid::Extent;

/// Which of the paper's four datasets a synthetic point set imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Dengue fever cases, Cali, Colombia (2010–2011).
    Dengue,
    /// Pollen-related tweets, contiguous US (Feb–Apr 2016).
    PollenUs,
    /// Avian influenza surveillance observations, worldwide (2001–2016).
    Flu,
    /// eBird rare-bird sightings, worldwide (20 years).
    EBird,
}

impl DatasetKind {
    /// All four kinds, in the paper's order (test support).
    #[cfg(any(test, feature = "testkit"))]
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Dengue,
        DatasetKind::PollenUs,
        DatasetKind::Flu,
        DatasetKind::EBird,
    ];

    /// The dataset name as used in the paper's tables.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DatasetKind::Dengue => "Dengue",
            DatasetKind::PollenUs => "PollenUS",
            DatasetKind::Flu => "Flu",
            DatasetKind::EBird => "eBird",
        }
    }

    /// The cluster-process profile imitating this dataset's clustering
    /// character.
    pub fn profile(&self) -> ClusterSpec {
        match self {
            // Urban epidemic: many tight street-level clusters, two yearly
            // dengue seasons over the two-year record.
            DatasetKind::Dengue => ClusterSpec {
                clusters: 150,
                spatial_sigma: 0.015,
                temporal_sigma: 0.08,
                anisotropy: 1.0,
                weight_tail: 0.6,
                background: 0.05,
                seasonality: Seasonality::Wave {
                    cycles: 2.0,
                    amplitude: 0.7,
                    phase: 0.0,
                },
            },
            // Tweets from population centers: heavy-tailed city sizes and a
            // strong spring allergy ramp within the 3-month window.
            DatasetKind::PollenUs => ClusterSpec {
                clusters: 60,
                spatial_sigma: 0.02,
                temporal_sigma: 0.25,
                anisotropy: 1.3,
                weight_tail: 1.1,
                background: 0.10,
                seasonality: Seasonality::Wave {
                    cycles: 0.5,
                    amplitude: 0.8,
                    phase: -std::f64::consts::FRAC_PI_2,
                },
            },
            // Sparse world-spanning surveillance along flyways: few strongly
            // elongated clusters, lots of background, mild annual cycle.
            DatasetKind::Flu => ClusterSpec {
                clusters: 25,
                spatial_sigma: 0.04,
                temporal_sigma: 0.15,
                anisotropy: 4.0,
                weight_tail: 0.4,
                background: 0.25,
                seasonality: Seasonality::Wave {
                    cycles: 15.0,
                    amplitude: 0.5,
                    phase: 0.0,
                },
            },
            // Crowdsourced hotspots: many clusters, very heavy tail (a few
            // famous spots dominate), low background.
            DatasetKind::EBird => ClusterSpec {
                clusters: 500,
                spatial_sigma: 0.01,
                temporal_sigma: 0.3,
                anisotropy: 1.0,
                weight_tail: 1.4,
                background: 0.05,
                seasonality: Seasonality::Wave {
                    cycles: 20.0,
                    amplitude: 0.4,
                    phase: 0.0,
                },
            },
        }
    }

    /// Generate `n` synthetic events imitating this dataset inside `extent`.
    pub fn generate(&self, n: usize, extent: Extent, seed: u64) -> PointSet {
        self.profile().generate(n, extent, seed)
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> Extent {
        Extent::new([0.0, 0.0, 0.0], [1000.0, 800.0, 365.0])
    }

    #[test]
    fn all_kinds_generate_in_bounds() {
        for kind in DatasetKind::ALL {
            let ps = kind.generate(300, extent(), 99);
            assert_eq!(ps.len(), 300, "{kind}");
            for p in &ps {
                assert!(extent().contains(p.as_array()), "{kind}: {p:?}");
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DatasetKind::Dengue.to_string(), "Dengue");
        assert_eq!(DatasetKind::PollenUs.to_string(), "PollenUS");
        assert_eq!(DatasetKind::Flu.to_string(), "Flu");
        assert_eq!(DatasetKind::EBird.to_string(), "eBird");
    }

    #[test]
    fn profiles_are_distinct() {
        let profiles: Vec<_> = DatasetKind::ALL.iter().map(|k| k.profile()).collect();
        for i in 0..profiles.len() {
            for j in (i + 1)..profiles.len() {
                assert_ne!(profiles[i], profiles[j]);
            }
        }
    }

    #[test]
    fn ebird_is_heavier_tailed_than_flu() {
        // The densest cell of a coarse histogram should hold a larger share
        // for eBird than for Flu.
        let n = 5000;
        let share = |kind: DatasetKind| {
            let ps = kind.generate(n, extent(), 4);
            let mut h = vec![0usize; 64];
            for p in &ps {
                let cx = ((p.x / 1000.0) * 8.0) as usize;
                let cy = ((p.y / 800.0) * 8.0) as usize;
                h[cy.min(7) * 8 + cx.min(7)] += 1;
            }
            *h.iter().max().unwrap() as f64 / n as f64
        };
        assert!(share(DatasetKind::EBird) > share(DatasetKind::Flu));
    }
}
