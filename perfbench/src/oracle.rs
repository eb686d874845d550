//! Exact truth. The benchmark keeps every row it generated and which
//! batches the daemon acknowledged; given the daemon's window list it
//! computes the exact answer a verification probe should approximate.

use sas_store::wire::WindowRow;
use sas_summaries::{Estimate, Query};

use crate::workload::{Probe, Row, Workload};

/// Acknowledged ingests per series, `(ts, batch)`.
pub struct Oracle {
    ingested: Vec<Vec<(u64, usize)>>,
}

/// Whether row `r` falls inside `q` (missing axes span the domain).
fn contains(q: &Query, r: &Row) -> bool {
    let in_box = |axes: &[(u64, u64)]| {
        let x_ok = axes.first().is_none_or(|&(lo, hi)| lo <= r.x && r.x <= hi);
        let y_ok = axes.get(1).is_none_or(|&(lo, hi)| lo <= r.y && r.y <= hi);
        x_ok && y_ok
    };
    match q {
        Query::Total => true,
        Query::BoxRange(axes) => in_box(axes),
        Query::MultiRange(boxes) => boxes.iter().any(|b| in_box(b)),
        Query::Point(p) => in_box(&p.iter().map(|&c| (c, c)).collect::<Vec<_>>()),
        Query::HierarchyNode { level, index } => *level >= 64 || r.x >> level == *index,
    }
}

impl Oracle {
    pub fn new(w: &Workload) -> Oracle {
        Oracle {
            ingested: vec![Vec::new(); w.series.len()],
        }
    }

    /// Records an acknowledged ingest.
    pub fn record(&mut self, series: usize, batch: usize, ts: u64) {
        self.ingested[series].push((ts, batch));
    }

    /// The acknowledged `(ts, batch)` ingests window `r` holds.
    ///
    /// A window reports how many batches it holds. Retention drops a
    /// series' oldest windows first, and compaction may later roll the
    /// survivors of a partly expired span into one parent, so the batches
    /// a window holds are the *newest* that many acknowledged in its span.
    /// Errs when a window claims more batches than were acknowledged.
    fn held<'a>(
        &self,
        sorted: &'a [(u64, usize)],
        r: &WindowRow,
    ) -> Result<&'a [(u64, usize)], String> {
        let (start, end) = (r.key.start, r.key.start + r.key.level.span());
        let lo = sorted.partition_point(|&(ts, _)| ts < start);
        let hi = sorted.partition_point(|&(ts, _)| ts < end);
        let held = usize::try_from(r.batches).unwrap_or(usize::MAX);
        if held > hi - lo {
            return Err(format!(
                "window {} holds {held} batches but {} were acknowledged in its span",
                r.key,
                hi - lo
            ));
        }
        Ok(&sorted[hi - held..hi])
    }

    fn sorted(&self, series: usize) -> Vec<(u64, usize)> {
        let mut v = self.ingested[series].clone();
        v.sort_by_key(|&(ts, _)| ts);
        v
    }

    /// The exact answer to `probe` over the batches held by the windows
    /// (of `windows`, the daemon's list) that overlap its time filter.
    pub fn exact(&self, w: &Workload, probe: &Probe, windows: &[WindowRow]) -> Result<f64, String> {
        let s = &w.series[probe.series];
        let sorted = self.sorted(probe.series);
        // Exact answer per pool batch, computed once.
        let mut per_batch: Vec<Option<f64>> = vec![None; s.batches.len()];
        let mut total = 0.0;
        for r in windows
            .iter()
            .filter(|r| r.key.dataset == s.dataset && r.key.kind == s.kind)
        {
            if let Some((t0, t1)) = probe.time {
                if !(r.key.start <= t1 && t0 < r.key.start + r.key.level.span()) {
                    continue;
                }
            }
            for &(_, b) in self.held(&sorted, r)? {
                total += *per_batch[b].get_or_insert_with(|| {
                    s.batches[b]
                        .rows
                        .iter()
                        .filter(|row| contains(&probe.query, row))
                        .map(|row| row.w)
                        .sum()
                });
            }
        }
        Ok(total)
    }

    /// Raw rows the listed windows hold, over every series.
    pub fn held_rows(&self, w: &Workload, windows: &[WindowRow]) -> Result<u64, String> {
        let mut rows = 0;
        for (i, s) in w.series.iter().enumerate() {
            let sorted = self.sorted(i);
            for r in windows
                .iter()
                .filter(|r| r.key.dataset == s.dataset && r.key.kind == s.kind)
            {
                for &(_, b) in self.held(&sorted, r)? {
                    rows += w.rows(i, b).len() as u64;
                }
            }
        }
        Ok(rows)
    }
}

/// Problems with one answer, whatever the truth: a non-finite field or an
/// interval that does not contain its own value.
pub fn malformed(e: &Estimate) -> Option<String> {
    let fields = [e.value, e.variance, e.lower, e.upper, e.confidence];
    if fields.iter().any(|v| !v.is_finite()) {
        return Some(format!("non-finite estimate {e:?}"));
    }
    let slack = 1e-9 * e.value.abs().max(1.0);
    if e.lower > e.value + slack || e.value > e.upper + slack {
        return Some(format!("interval does not contain its value: {e:?}"));
    }
    None
}

/// Whether `value` equals `exact` up to summation re-association.
pub fn exact_enough(value: f64, exact: f64) -> bool {
    (value - exact).abs() <= 1e-9 * exact.abs().max(1.0)
}

/// Whether the interval contains the exact answer (same slack).
pub fn covers(e: &Estimate, exact: f64) -> bool {
    let slack = 1e-9 * exact.abs().max(1.0);
    e.lower - slack <= exact && exact <= e.upper + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_membership() {
        let r = Row {
            x: 300,
            y: 7,
            w: 1.0,
        };
        assert!(contains(&Query::Total, &r));
        assert!(contains(&Query::BoxRange(vec![(0, 300)]), &r));
        assert!(!contains(&Query::BoxRange(vec![(0, 300), (8, 9)]), &r));
        assert!(contains(
            &Query::MultiRange(vec![vec![(0, 10)], vec![(290, 310)]]),
            &r
        ));
        // 300 >> 8 == 1: node (8, 1) spans 256..=511.
        assert!(contains(&Query::HierarchyNode { level: 8, index: 1 }, &r));
        assert!(!contains(&Query::HierarchyNode { level: 8, index: 0 }, &r));
    }
}
