//! Exact range sums: the ground truth the experiment harness scores
//! summaries against.

use sas_sampling::product::SpatialData;
use sas_structures::product::{BoxRange, MultiRangeQuery, Point};

/// Exact scan-based range-sum engine over spatial data. Used as ground
/// truth by the experiment harness ("asking this many queries over the full
/// data takes 2 minutes" — the baseline the paper compares query speed to).
#[derive(Debug, Clone)]
pub struct ExactEngine {
    points: Vec<(Point, f64)>,
}

impl ExactEngine {
    /// Builds the engine (stores every point).
    pub fn new(data: &SpatialData) -> Self {
        Self {
            points: data
                .keys
                .iter()
                .zip(&data.points)
                .map(|(wk, p)| (p.clone(), wk.weight))
                .collect(),
        }
    }

    /// Exact weight in a box.
    pub fn box_sum(&self, query: &BoxRange) -> f64 {
        self.points
            .iter()
            .filter(|(p, _)| query.contains(p))
            .map(|(_, w)| w)
            .sum()
    }

    /// Exact weight of a multi-range query.
    pub fn multi_sum(&self, query: &MultiRangeQuery) -> f64 {
        self.points
            .iter()
            .filter(|(p, _)| query.contains(p))
            .map(|(_, w)| w)
            .sum()
    }

    /// Total data weight.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|(_, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> SpatialData {
        SpatialData::from_xyw(&[(0, 0, 1.0), (5, 5, 2.0), (9, 9, 4.0), (5, 9, 8.0)])
    }

    #[test]
    fn exact_sums() {
        let e = ExactEngine::new(&tiny_data());
        assert_eq!(e.box_sum(&BoxRange::xy(0, 9, 0, 9)), 15.0);
        assert_eq!(e.box_sum(&BoxRange::xy(0, 4, 0, 4)), 1.0);
        assert_eq!(e.box_sum(&BoxRange::xy(5, 5, 5, 9)), 10.0);
        assert_eq!(e.total(), 15.0);
    }

    #[test]
    fn exact_multi_counts_once() {
        let e = ExactEngine::new(&tiny_data());
        // Disjoint boxes.
        let q = MultiRangeQuery::new(vec![BoxRange::xy(0, 1, 0, 1), BoxRange::xy(9, 9, 9, 9)]);
        assert_eq!(e.multi_sum(&q), 5.0);
    }
}
