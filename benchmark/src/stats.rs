//! Robust order statistics for the end-to-end metrics.
//!
//! No end-to-end metric is a minimum, a mean or a single sample. A run is
//! [`PARTS`] independent parts — each with freshly generated inputs and a
//! freshly started system under test — and every metric is the median of
//! the per-part values (for a latency: of each part's nearest-rank
//! percentile). Noise on a shared box is slow (a whole part is uniformly
//! slow, not one op in ten) and the program itself has process-level
//! modes (where its threads happened to land), so a median over
//! independent parts discards a disturbed or odd part where a percentile
//! over one long phase would absorb it.

/// How many independent parts a run consists of.
pub const PARTS: usize = 5;

/// The seed of part `part` of the run seeded `seed`: distinct for every
/// (seed, part), so no two runs or parts share inputs.
pub fn part_seed(seed: u64, part: usize) -> u64 {
    seed * PARTS as u64 + part as u64
}

/// The tail percentiles a workload may report, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// A tail percentile is only reported when every part has at least this
/// many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a percentile outside `(0, 100]`.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of samples in any order.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// Nearest-rank median (the lower middle of an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the nearest-rank `pct` percentile among `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).min(n)
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it in every part, given each part's sample count.
pub fn highest_supported_tail(part_counts: &[usize]) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&pct| {
        !part_counts.is_empty()
            && part_counts
                .iter()
                .all(|&n| samples_beyond(n, pct) >= MIN_BEYOND)
    })
}

/// Median over parts of each part's `pct` percentile. Empty parts are
/// skipped; `None` when every part is empty.
pub fn median_of_parts(parts: &[Vec<f64>], pct: f64) -> Option<f64> {
    let per_part: Vec<f64> = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| percentile(p, pct))
        .collect();
    (!per_part.is_empty()).then(|| median(&per_part))
}

/// Distance between the first and third quartile as a share of the
/// median, with the inclusive-exclusive quartile convention of Python's
/// `statistics.quantiles(values, n=4)` — the spread the acceptance check
/// computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let quantile = |k: usize| {
        // Python's default `exclusive` method: position k(n+1)/4, clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / quantile(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 91.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.1), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_panics() {
        percentile_sorted(&[], 50.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(40, 90.0), 4);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 75.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_every_part_supports() {
        assert_eq!(highest_supported_tail(&[40; 5]), Some(75.0));
        assert_eq!(highest_supported_tail(&[100; 5]), Some(90.0));
        assert_eq!(highest_supported_tail(&[200; 5]), Some(95.0));
        assert_eq!(highest_supported_tail(&[1000; 5]), Some(99.0));
        // One thin part pulls the whole workload down.
        assert_eq!(
            highest_supported_tail(&[1000, 1000, 40, 1000, 1000]),
            Some(75.0)
        );
        assert_eq!(highest_supported_tail(&[39; 5]), None);
        assert_eq!(highest_supported_tail(&[]), None);
    }

    #[test]
    fn median_of_parts_ignores_one_disturbed_part() {
        let mut parts = vec![vec![1.0, 1.1, 0.9]; PARTS];
        parts[2] = vec![5.0, 6.0, 7.0];
        assert_eq!(median_of_parts(&parts, 50.0), Some(1.0));
        parts[0].clear();
        assert_eq!(median_of_parts(&parts, 50.0), Some(1.0));
        assert_eq!(median_of_parts(&vec![Vec::new(); PARTS], 50.0), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert!((iqr_share(&[10.0, 20.0, 30.0, 40.0, 50.0]) - 1.0).abs() < 1e-12);
    }
}
