//! Collections of space-time events.

use crate::point::Point;
use stkde_grid::Extent;

/// An owned collection of space-time events — the input to every STKDE
/// algorithm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointSet {
    points: Vec<Point>,
}

impl PointSet {
    /// Empty point set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing vector of points.
    pub fn from_vec(points: Vec<Point>) -> Self {
        Self { points }
    }

    /// Number of events, `n` in the paper.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if there are no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The events as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Point] {
        &self.points
    }

    /// Iterate over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Consume and return the underlying vector.
    pub fn into_vec(self) -> Vec<Point> {
        self.points
    }

    /// The tight world-space bounding box of the events
    /// (`None` when empty).
    pub fn bounds(&self) -> Option<Extent> {
        Extent::bounding(self.points.iter().map(|p| p.as_array()))
    }

    /// Remove events with non-finite coordinates; returns how many were
    /// dropped. (Real feeds contain bad geocodes; the paper's Dengue data,
    /// for instance, keeps only the ~82% of cases that geocode cleanly.)
    pub fn retain_finite(&mut self) -> usize {
        let before = self.points.len();
        self.points.retain(Point::is_finite);
        before - self.points.len()
    }
}

impl FromIterator<Point> for PointSet {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Self {
            points: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_iter() {
        assert!(PointSet::new().is_empty());
        let ps: PointSet = [Point::new(1.0, 2.0, 3.0), Point::new(4.0, 5.0, 6.0)]
            .into_iter()
            .collect();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.iter().count(), 2);
    }

    #[test]
    fn bounds_cover_all_points() {
        let ps: PointSet = [
            Point::new(1.0, 10.0, 100.0),
            Point::new(-1.0, 20.0, 50.0),
            Point::new(0.5, 15.0, 75.0),
        ]
        .into_iter()
        .collect();
        let b = ps.bounds().unwrap();
        assert_eq!(b.min[0], -1.0);
        assert_eq!(b.max[1], 20.0);
        for p in &ps {
            assert!(b.contains(p.as_array()));
        }
        assert!(PointSet::new().bounds().is_none());
    }

    #[test]
    fn retain_finite_drops_bad_rows() {
        let mut ps = PointSet::from_vec(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(f64::NAN, 0.0, 0.0),
            Point::new(1.0, 1.0, 1.0),
        ]);
        assert_eq!(ps.retain_finite(), 1);
        assert_eq!(ps.len(), 2);
    }
}
