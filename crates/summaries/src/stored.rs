//! [`StoredSample`] — a finished sample as a durable, mergeable summary.
//!
//! This is the persistent form of the paper's headline object: the sampled
//! keys with their Horvitz–Thompson adjusted weights (plus locations for
//! 2-D data), self-contained enough to answer any subset-sum query without
//! the underlying data set. The CLI's TSV summaries and the binary frames
//! of `sas-codec` both load into this type.
//!
//! ## Layout
//!
//! The sample is held as a struct of arrays: parallel `keys` / `weights` /
//! `adjusted` columns, plus `xs` / `ys` location columns for 2-D data. A
//! range test over the summary is then a tight scan of two or three
//! columns — no per-item hash-map lookup, no pointer chasing — which is
//! what makes `answer_batch` over thousands of queries cheap. Columns keep
//! **entry order** (the order the sampler or merge produced), because the
//! v1 wire format serializes entries in that order and the encoding must
//! stay bit-identical to the original array-of-structs layout.
//!
//! A 1-D sample answers through a key-order index over its keys, with a
//! key fence and the folded accumulator of every whole block of 16 index
//! positions (see `crate::fold`), built on the first query and dropped by
//! every merge.
//! A mapped segment builds the same index over the same columns, so the
//! two answer bit for bit alike.

use std::collections::HashMap;
use std::sync::OnceLock;

use sas_core::estimate::{Sample, SampleEntry};
use sas_core::KeyId;
use sas_sampling::product::SpatialData;
use sas_structures::product::Point;

use crate::fold::KeyOrder;

/// A finished sample with optional 2-D locations, stored as parallel
/// columns in entry order (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct StoredSample {
    keys: Vec<KeyId>,
    weights: Vec<f64>,
    adjusted: Vec<f64>,
    /// Per-entry locations, aligned with `keys` (empty for 1-D, where the
    /// keys themselves are positions on the line).
    xs: Vec<u64>,
    ys: Vec<u64>,
    tau: f64,
    dims: usize,
    /// Key-order index over `keys` (1-D only), built on first use and
    /// reset by [`StoredSample::merge`], the only mutator.
    order: OnceLock<KeyOrder>,
}

impl StoredSample {
    /// Wraps a 1-D sample (keys are positions on the line).
    pub fn one_dim(sample: Sample) -> Self {
        let tau = sample.tau();
        let entries = sample.into_entries();
        let mut s = Self {
            keys: Vec::with_capacity(entries.len()),
            weights: Vec::with_capacity(entries.len()),
            adjusted: Vec::with_capacity(entries.len()),
            tau,
            dims: 1,
            ..Self::default()
        };
        for e in entries {
            s.keys.push(e.key);
            s.weights.push(e.weight);
            s.adjusted.push(e.adjusted_weight);
        }
        s
    }

    /// Wraps a 2-D sample; every sampled key must have a location.
    pub fn two_dim(sample: Sample, points: HashMap<KeyId, Point>) -> Result<Self, String> {
        Self::located(sample, |k| points.get(&k))
    }

    /// Wraps a 2-D sample drawn from `data`, taking each sampled key's
    /// location from it.
    pub fn spatial(sample: Sample, data: &SpatialData) -> Result<Self, String> {
        let points: HashMap<KeyId, &Point> = data
            .keys
            .iter()
            .map(|wk| wk.key)
            .zip(&data.points)
            .collect();
        Self::located(sample, |k| points.get(&k).copied())
    }

    /// Wraps a 2-D sample, looking up each sampled key's location.
    fn located<'a>(
        sample: Sample,
        point: impl Fn(KeyId) -> Option<&'a Point>,
    ) -> Result<Self, String> {
        let tau = sample.tau();
        let entries = sample.into_entries();
        let mut s = Self {
            keys: Vec::with_capacity(entries.len()),
            weights: Vec::with_capacity(entries.len()),
            adjusted: Vec::with_capacity(entries.len()),
            xs: Vec::with_capacity(entries.len()),
            ys: Vec::with_capacity(entries.len()),
            tau,
            dims: 2,
            ..Self::default()
        };
        for e in entries {
            match point(e.key) {
                None => return Err(format!("sampled key {} has no location", e.key)),
                Some(p) if p.dim() != 2 => {
                    return Err(format!("key {} has a {}-D location", e.key, p.dim()))
                }
                Some(p) => {
                    s.xs.push(p.coord(0));
                    s.ys.push(p.coord(1));
                }
            }
            s.keys.push(e.key);
            s.weights.push(e.weight);
            s.adjusted.push(e.adjusted_weight);
        }
        Ok(s)
    }

    /// Number of sampled entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The IPPS threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Dimensionality (1 or 2).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The key column (entry order).
    pub fn keys(&self) -> &[KeyId] {
        &self.keys
    }

    /// The original-weight column, aligned with [`StoredSample::keys`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The HT adjusted-weight column, aligned with [`StoredSample::keys`].
    pub fn adjusted_weights(&self) -> &[f64] {
        &self.adjusted
    }

    /// The x-coordinate column (empty for 1-D summaries).
    pub fn xs(&self) -> &[u64] {
        &self.xs
    }

    /// The y-coordinate column (empty for 1-D summaries).
    pub fn ys(&self) -> &[u64] {
        &self.ys
    }

    /// HT estimate of the total data weight: the value of the
    /// [`Query::Total`](crate::Query::Total) answer, folded in the same
    /// order, so the two agree bit for bit.
    pub fn total_estimate(&self) -> f64 {
        let cols = crate::fold::SampleColumns {
            keys: self.keys(),
            weights: self.weights(),
            adjusted: self.adjusted_weights(),
            xs: self.xs(),
            ys: self.ys(),
        };
        let order = (self.dims == 1).then(|| self.key_order());
        crate::fold::sample_total(&cols, order)
    }

    /// Materializes the underlying sample (entry order preserved).
    pub fn to_sample(&self) -> Sample {
        let entries = (0..self.keys.len())
            .map(|i| SampleEntry {
                key: self.keys[i],
                weight: self.weights[i],
                adjusted_weight: self.adjusted[i],
            })
            .collect();
        Sample::from_entries(entries, self.tau)
    }

    /// The location map (empty for 1-D summaries). Built on demand — the
    /// hot paths read the coordinate columns directly.
    pub fn point_map(&self) -> HashMap<KeyId, Point> {
        self.keys
            .iter()
            .zip(self.xs.iter().zip(&self.ys))
            .map(|(&k, (&x, &y))| (k, Point::xy(x, y)))
            .collect()
    }

    /// The key-order index over the keys, built on first use.
    pub(crate) fn key_order(&self) -> &KeyOrder {
        self.order.get_or_init(|| {
            KeyOrder::build_sample(
                self.keys.as_slice(),
                self.weights.as_slice(),
                self.adjusted.as_slice(),
            )
            .expect("a sample holds at most u32::MAX items")
        })
    }

    /// Merges a sample of disjoint data.
    ///
    /// With `budget: None` the entries are concatenated (each keeps the
    /// adjusted weight its own sampler assigned — exact and unbiased, but
    /// the size grows). With `budget: Some(s)` the union is re-subsampled
    /// down to `s` entries by the structure-aware threshold merge
    /// (`sas_sampling::sharded::merge_samples`), which aggregates in key
    /// order and conserves the total exactly.
    pub fn merge<R: rand::Rng + ?Sized>(
        &mut self,
        other: StoredSample,
        budget: Option<usize>,
        rng: &mut R,
    ) -> Result<(), String> {
        if self.dims != other.dims {
            return Err(format!(
                "cannot merge a {}-D sample into a {}-D sample",
                other.dims, self.dims
            ));
        }
        self.order.take();
        match budget {
            Some(s) if s > 0 => {
                // Per-key locations survive the re-subsampling through a
                // coordinate map (later inserts win, matching the
                // historical map-extend semantics).
                let coords: Option<HashMap<KeyId, (u64, u64)>> = (self.dims == 2).then(|| {
                    [&*self, &other]
                        .into_iter()
                        .flat_map(|p| p.keys.iter().zip(p.xs.iter().zip(&p.ys)))
                        .map(|(&k, (&x, &y))| (k, (x, y)))
                        .collect()
                });
                let merged = sas_sampling::sharded::merge_samples(
                    self.to_sample(),
                    other.to_sample(),
                    s,
                    rng,
                );
                self.load_sample(merged, coords.as_ref())
            }
            Some(_) => Err("merge budget must be positive".into()),
            None => {
                // Concatenation: extend every column; each entry keeps its
                // own adjusted weight and location.
                self.tau = self.tau.max(other.tau);
                self.keys.extend_from_slice(&other.keys);
                self.weights.extend_from_slice(&other.weights);
                self.adjusted.extend_from_slice(&other.adjusted);
                self.xs.extend_from_slice(&other.xs);
                self.ys.extend_from_slice(&other.ys);
                Ok(())
            }
        }
    }

    /// Replaces the columns with a merged sample's entries, resolving 2-D
    /// locations through `coords`.
    fn load_sample(
        &mut self,
        merged: Sample,
        coords: Option<&HashMap<KeyId, (u64, u64)>>,
    ) -> Result<(), String> {
        *self = Self {
            tau: merged.tau(),
            dims: self.dims,
            ..Self::default()
        };
        for e in merged.iter() {
            self.keys.push(e.key);
            self.weights.push(e.weight);
            self.adjusted.push(e.adjusted_weight);
            if let Some(m) = coords {
                let &(x, y) = m
                    .get(&e.key)
                    .ok_or_else(|| format!("merged key {} has no location", e.key))?;
                self.xs.push(x);
                self.ys.push(y);
            }
        }
        Ok(())
    }

    /// Reassembles a sample from already-validated columns. The segment
    /// view layer (`crate::view`) enforces the same invariants the wire
    /// decoder does before calling this.
    pub(crate) fn from_columns(
        keys: Vec<KeyId>,
        weights: Vec<f64>,
        adjusted: Vec<f64>,
        xs: Vec<u64>,
        ys: Vec<u64>,
        tau: f64,
        dims: usize,
    ) -> Self {
        Self {
            keys,
            weights,
            adjusted,
            xs,
            ys,
            tau,
            dims,
            ..Self::default()
        }
    }

    /// Writes the wire representation (see `sas-codec` for the framing).
    /// Entries are serialized in column (= entry) order, bit-identical to
    /// the format the original array-of-structs layout produced.
    pub(crate) fn write_wire(&self, w: &mut sas_codec::Writer) {
        w.section(1, |w| {
            w.put_u8(self.dims as u8);
            w.put_f64(self.tau);
        });
        w.section(2, |w| {
            w.put_u64(self.keys.len() as u64);
            for i in 0..self.keys.len() {
                w.put_u64(self.keys[i]);
                w.put_f64(self.weights[i]);
                w.put_f64(self.adjusted[i]);
            }
        });
        w.section(3, |w| {
            if self.dims == 2 {
                // Locations aligned with the entry order of section 2.
                w.put_u64(self.keys.len() as u64);
                for i in 0..self.keys.len() {
                    w.put_u64(self.xs[i]);
                    w.put_u64(self.ys[i]);
                }
            } else {
                w.put_u64(0);
            }
        });
    }

    /// Reads the wire representation (never panics on corrupted input).
    pub(crate) fn read_wire(r: &mut sas_codec::Reader<'_>) -> Result<Self, sas_codec::CodecError> {
        use sas_codec::CodecError;
        let mut meta = r.expect_section(1)?;
        let dims = meta.get_u8()? as usize;
        let tau = meta.get_finite_f64()?;
        meta.finish()?;
        if dims != 1 && dims != 2 {
            return Err(CodecError::Invalid(format!("unsupported dims {dims}")));
        }
        if tau < 0.0 {
            return Err(CodecError::Invalid(format!("negative threshold {tau}")));
        }
        let mut body = r.expect_section(2)?;
        let n = body.get_len(24)?; // u64 + 2×f64 per entry
        let mut s = Self {
            keys: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            adjusted: Vec::with_capacity(n),
            tau,
            dims,
            ..Self::default()
        };
        for _ in 0..n {
            let key = body.get_u64()?;
            let weight = body.get_finite_f64()?;
            let adjusted_weight = body.get_finite_f64()?;
            if weight < 0.0 || adjusted_weight < 0.0 {
                return Err(CodecError::Invalid(format!("negative weight on key {key}")));
            }
            s.keys.push(key);
            s.weights.push(weight);
            s.adjusted.push(adjusted_weight);
        }
        body.finish()?;
        let mut locs = r.expect_section(3)?;
        let n_points = locs.get_len(16)?; // 2×u64 per point
        let expected = if dims == 2 { n } else { 0 };
        if n_points != expected {
            return Err(CodecError::Invalid(format!(
                "{n_points} locations for {expected} expected"
            )));
        }
        s.xs.reserve(n_points);
        s.ys.reserve(n_points);
        for _ in 0..n_points {
            s.xs.push(locs.get_u64()?);
            s.ys.push(locs.get_u64()?);
        }
        locs.finish()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, Summary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(key: KeyId, w: f64, a: f64) -> SampleEntry {
        SampleEntry {
            key,
            weight: w,
            adjusted_weight: a,
        }
    }

    /// The point estimate of one query.
    fn value(s: &StoredSample, q: Query) -> f64 {
        s.answer(&q, 0.9).unwrap().value
    }

    #[test]
    fn one_dim_range_sums() {
        let s = StoredSample::one_dim(Sample::from_entries(
            vec![entry(1, 2.0, 4.0), entry(5, 9.0, 9.0), entry(9, 1.0, 4.0)],
            4.0,
        ));
        assert_eq!(s.dims(), 1);
        assert_eq!(value(&s, Query::interval(0, 4)), 4.0);
        assert_eq!(value(&s, Query::interval(1, 9)), 17.0);
        assert_eq!(value(&s, Query::Total), 17.0);
    }

    #[test]
    fn two_dim_requires_locations() {
        let sample = Sample::from_entries(vec![entry(1, 2.0, 2.0)], 0.0);
        assert!(StoredSample::two_dim(sample.clone(), HashMap::new()).is_err());
        let mut points = HashMap::new();
        points.insert(1, Point::xy(3, 4));
        let s = StoredSample::two_dim(sample, points).unwrap();
        assert_eq!(value(&s, Query::BoxRange(vec![(0, 9), (0, 9)])), 2.0);
        assert_eq!(value(&s, Query::BoxRange(vec![(0, 2), (0, 9)])), 0.0);
    }

    #[test]
    fn columns_preserve_entry_order() {
        let s = StoredSample::one_dim(Sample::from_entries(
            vec![entry(9, 1.0, 4.0), entry(1, 2.0, 4.0), entry(5, 9.0, 9.0)],
            4.0,
        ));
        // Entry order is the wire order — never silently re-sorted.
        assert_eq!(s.keys(), &[9, 1, 5]);
        assert_eq!(s.weights(), &[1.0, 2.0, 9.0]);
        assert_eq!(s.adjusted_weights(), &[4.0, 4.0, 9.0]);
        let round = s.to_sample();
        let keys: Vec<_> = round.keys().collect();
        assert_eq!(keys, vec![9, 1, 5]);
        assert_eq!(round.tau(), 4.0);
    }

    #[test]
    fn concat_merge_extends() {
        let mut a = StoredSample::one_dim(Sample::from_entries(vec![entry(1, 2.0, 4.0)], 4.0));
        let b = StoredSample::one_dim(Sample::from_entries(vec![entry(2, 3.0, 3.0)], 1.0));
        let mut rng = StdRng::seed_from_u64(1);
        a.merge(b, None, &mut rng).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.tau(), 4.0);
        assert_eq!(value(&a, Query::interval(0, 10)), 7.0);
    }

    #[test]
    fn budget_merge_respects_size_and_total() {
        let entries_a: Vec<SampleEntry> = (0..30).map(|k| entry(k, 1.0, 2.0)).collect();
        let entries_b: Vec<SampleEntry> = (30..60).map(|k| entry(k, 1.0, 2.0)).collect();
        let mut a = StoredSample::one_dim(Sample::from_entries(entries_a, 2.0));
        let b = StoredSample::one_dim(Sample::from_entries(entries_b, 2.0));
        let mut rng = StdRng::seed_from_u64(2);
        a.merge(b, Some(20), &mut rng).unwrap();
        assert_eq!(a.len(), 20);
        assert!((value(&a, Query::interval(0, 59)) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let mut a = StoredSample::one_dim(Sample::from_entries(vec![entry(1, 1.0, 1.0)], 0.0));
        let mut points = HashMap::new();
        points.insert(2, Point::xy(0, 0));
        let b = StoredSample::two_dim(Sample::from_entries(vec![entry(2, 1.0, 1.0)], 0.0), points)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(a.merge(b, None, &mut rng).is_err());
    }

    #[test]
    fn budget_merge_prunes_stale_locations() {
        let mk = |range: std::ops::Range<u64>| {
            let entries: Vec<SampleEntry> = range.clone().map(|k| entry(k, 1.0, 2.0)).collect();
            let points: HashMap<KeyId, Point> = range.map(|k| (k, Point::xy(k, k))).collect();
            StoredSample::two_dim(Sample::from_entries(entries, 2.0), points).unwrap()
        };
        let mut a = mk(0..25);
        let b = mk(25..50);
        let mut rng = StdRng::seed_from_u64(4);
        a.merge(b, Some(10), &mut rng).unwrap();
        assert_eq!(a.len(), 10);
        // Location columns stay aligned with the surviving entries.
        assert_eq!(a.xs().len(), 10);
        assert_eq!(a.ys().len(), 10);
        assert_eq!(a.point_map().len(), 10);
        for (i, &k) in a.keys().iter().enumerate() {
            assert_eq!((a.xs()[i], a.ys()[i]), (k, k));
        }
    }

    #[test]
    fn merges_never_leave_the_key_order_index_stale() {
        use crate::fold::tests::{assert_same_bits, assert_sample_answers};
        use rand::Rng;
        let queries = [
            Query::Total,
            Query::interval(0, 99),
            Query::interval(40, 170),
            Query::Point(vec![150]),
            Query::MultiRange(vec![vec![(0, 30)], vec![(120, 199)]]),
        ];
        let check = |s: &StoredSample, ctx: &str| {
            for confidence in [0.5, 0.9] {
                let got = s.answer_batch(&queries, confidence).unwrap();
                assert_sample_answers(s, &got, &queries, confidence, ctx);
            }
        };
        // A sampled batch over keys `keys`, with a few heavy keys so the
        // sample mixes light and heavy items.
        let batch = |keys: std::ops::Range<u64>, rng: &mut StdRng| {
            let rows: Vec<sas_core::WeightedKey> = keys
                .map(|k| {
                    let w = if rng.gen_bool(0.1) { 40.0 } else { 1.0 };
                    sas_core::WeightedKey::new(k, w)
                })
                .collect();
            StoredSample::one_dim(sas_sampling::order::sample(&rows, 30, rng))
        };
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = batch(0..120, &mut rng);
            check(&base, "base");

            // Each merge follows a query that built the index.
            let mut concat = base.clone();
            check(&concat, "before concat");
            concat
                .merge(batch(60..200, &mut rng), None, &mut rng)
                .unwrap();
            check(&concat, &format!("seed {seed}: after concat"));

            let mut budgeted = base.clone();
            check(&budgeted, "before budgeted");
            budgeted
                .merge(batch(120..200, &mut rng), Some(25), &mut rng)
                .unwrap();
            check(&budgeted, &format!("seed {seed}: after budgeted merge"));

            // The store's mutation path: clone (sharing the built index),
            // then merge the clone through the erased trait.
            let before = base.answer_batch(&queries, 0.9).unwrap();
            let mut copy = base.clone_box();
            copy.merge_in_place(Box::new(batch(90..200, &mut rng)), None, &mut rng)
                .unwrap();
            let copy = copy.as_any().downcast_ref::<StoredSample>().unwrap();
            check(copy, &format!("seed {seed}: merged clone"));
            let after = base.answer_batch(&queries, 0.9).unwrap();
            assert_same_bits(&after, &before, &queries, &format!("seed {seed}: source"));
            check(&base, &format!("seed {seed}: source"));
        }
    }
}
