//! Instance preparation: catalog filtering, scaling, point generation.

use crate::opts::HarnessOpts;
use stkde_core::Problem;
use stkde_data::{full_catalog, Instance, Point};

/// An instance ready to run: scaled parameters, problem description, and
/// generated points.
#[derive(Debug, Clone)]
pub struct PreparedInstance {
    /// The (scaled) instance.
    pub instance: Instance,
    /// Problem description (domain, bandwidths, normalization).
    pub problem: Problem,
    /// The synthetic events.
    pub points: Vec<Point>,
}

impl PreparedInstance {
    /// The paper's instance name, e.g. `Flu_Mr-Hb`.
    pub fn name(&self) -> String {
        self.instance.name()
    }
}

/// Prepare every catalog instance selected by `opts`: filter by name,
/// scale (explicitly or to the budget), and generate points.
pub fn prepare_instances(opts: &HarnessOpts) -> Vec<PreparedInstance> {
    full_catalog()
        .into_iter()
        .filter(|inst| {
            opts.filter
                .as_deref()
                .is_none_or(|f| inst.name().contains(f))
        })
        .map(|inst| prepare(&inst, opts))
        .collect()
}

/// Prepare a single instance.
pub(crate) fn prepare(instance: &Instance, opts: &HarnessOpts) -> PreparedInstance {
    let scaled = match opts.scale {
        Some(alpha) => instance.scaled(alpha),
        None => instance.scaled_to_budgets(opts.max_voxels, opts.max_points, opts.max_updates),
    };
    let points = scaled.generate_points(opts.seed).into_vec();
    let problem = Problem::new(scaled.domain(), scaled.bandwidth(), points.len());
    PreparedInstance {
        instance: scaled,
        problem,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_selects_subset() {
        let opts = HarnessOpts {
            filter: Some("Dengue".into()),
            max_voxels: 100_000,
            max_points: 2_000,
            ..Default::default()
        };
        let prepared = prepare_instances(&opts);
        assert_eq!(prepared.len(), 5);
        assert!(prepared.iter().all(|p| p.name().starts_with("Dengue")));
    }

    #[test]
    fn budget_scaling_applies() {
        let opts = HarnessOpts {
            filter: Some("eBird_Hr-Hb".into()),
            max_voxels: 500_000,
            max_points: 10_000,
            ..Default::default()
        };
        let prepared = prepare_instances(&opts);
        assert_eq!(prepared.len(), 1);
        let p = &prepared[0];
        assert!(p.problem.domain.dims().volume() <= 500_000);
        assert!(p.points.len() <= 10_000);
        assert!(p.instance.scale < 1.0);
    }

    #[test]
    fn explicit_scale_wins() {
        let opts = HarnessOpts {
            filter: Some("PollenUS_Lr-Lb".into()),
            scale: Some(0.5),
            ..Default::default()
        };
        let p = &prepare_instances(&opts)[0];
        assert!((p.instance.scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn problem_matches_points() {
        let opts = HarnessOpts {
            filter: Some("Flu_Lr-Lb".into()),
            max_voxels: 200_000,
            max_points: 3_000,
            ..Default::default()
        };
        let p = &prepare_instances(&opts)[0];
        assert_eq!(p.problem.n, p.points.len());
    }
}
