//! A single space-time event.

use serde::{Deserialize, Serialize};

/// An event located in space and time: `(xi, yi, ti)` in the paper's
/// notation (world coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Spatial x coordinate (e.g. easting in meters or longitude).
    pub x: f64,
    /// Spatial y coordinate (e.g. northing in meters or latitude).
    pub y: f64,
    /// Temporal coordinate (e.g. days since epoch).
    pub t: f64,
}

impl Point {
    /// Create a point.
    pub fn new(x: f64, y: f64, t: f64) -> Self {
        Self { x, y, t }
    }

    /// The point as a `[x, y, t]` array (for geometry helpers).
    #[inline]
    pub fn as_array(&self) -> [f64; 3] {
        [self.x, self.y, self.t]
    }

    /// `true` if all coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.t.is_finite()
    }
}

impl From<[f64; 3]> for Point {
    fn from(a: [f64; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let p = Point::new(1.0, 2.0, 3.0);
        assert_eq!(Point::from(p.as_array()), p);
    }

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
