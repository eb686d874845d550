//! [`KeyIndex`] — the key-order index of one key column: the column's item
//! indices stably sorted by key, and a fence holding the key at the start
//! of every block of [`BLOCK`] index positions. A closed key range then
//! resolves to a run of index positions by one binary search over the
//! fence and one over a single block, without a copy of the keys.
//!
//! The index holds no keys. Its searches read them through an accessor,
//! `key(i)` for item `i`, so one index type serves an owned column, a
//! VarOpt reservoir partition and a little-endian column of a mapped
//! segment alike.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Index positions per block: the fence holds the key at the start of
/// every block.
pub const BLOCK: usize = 16;

/// The key-order index of one key column (module docs). Shared, so cloning
/// a summary that holds one stays cheap.
#[derive(Clone)]
pub struct KeyIndex {
    /// Item indices stably sorted by key.
    order: Arc<[u32]>,
    /// The key at index position `b·BLOCK`, for every block `b`: a search
    /// picks its block here before it touches the index.
    fence: Arc<[u64]>,
}

impl fmt::Debug for KeyIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyIndex({} items)", self.order.len())
    }
}

/// Items a key-order index can address: its entries are `u32`.
fn index_len(items: usize) -> Result<u32, String> {
    u32::try_from(items).map_err(|_| {
        format!(
            "key column of {items} items exceeds the index limit of {}",
            u32::MAX
        )
    })
}

impl KeyIndex {
    /// Sorts the items `0..len` of a key column by key, ties in item order,
    /// and samples the fence. Refuses a column of more items than a `u32`
    /// entry can address. The `(key, index)` pairs exist only while
    /// sorting.
    pub fn build(len: usize, key: impl Fn(usize) -> u64) -> Result<Self, String> {
        let len = index_len(len)?;
        let mut pairs: Vec<(u64, u32)> = (0..len).map(|i| (key(i as usize), i)).collect();
        pairs.sort_unstable();
        Ok(KeyIndex {
            fence: pairs.iter().step_by(BLOCK).map(|&(k, _)| k).collect(),
            order: pairs.into_iter().map(|(_, i)| i).collect(),
        })
    }

    /// The item indices in key order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The first index position whose key fails `before`, a predicate
    /// that holds on a prefix of the keys in index order: the fence picks
    /// the block, one block of the index finishes the search. Equal to
    /// `partition_point` over the whole index.
    pub fn partition_point(
        &self,
        key: impl Fn(usize) -> u64,
        before: impl Fn(u64) -> bool,
    ) -> usize {
        let Some(block) = self.fence.partition_point(|&k| before(k)).checked_sub(1) else {
            return 0;
        };
        let start = block * BLOCK;
        let run = &self.order[start..self.order.len().min(start + BLOCK)];
        start + run.partition_point(|&i| before(key(i as usize)))
    }

    /// The index positions of the items whose keys lie in `[lo, hi]`.
    pub fn positions(&self, key: impl Fn(usize) -> u64, (lo, hi): (u64, u64)) -> Range<usize> {
        self.partition_point(&key, |k| k < lo)..self.partition_point(&key, |k| k <= hi)
    }

    /// The items whose keys lie in `[lo, hi]`.
    pub fn span(&self, key: impl Fn(usize) -> u64, range: (u64, u64)) -> &[u32] {
        &self.order[self.positions(key, range)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Little-endian bytes of a key column, the layout of a mapped segment
    /// column.
    fn le_bytes(keys: &[u64]) -> Vec<u8> {
        keys.iter().flat_map(|k| k.to_le_bytes()).collect()
    }

    /// Key `i` of a little-endian column, read as a segment reads it.
    fn le_key(bytes: &[u8]) -> impl Fn(usize) -> u64 + '_ {
        |i| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
    }

    #[test]
    fn key_order_index_is_a_stable_sort_by_key() {
        let keys: &[u64] = &[5, 1, 5, u64::MAX, 0, 1, 5];
        let bytes = le_bytes(keys);
        let slice = |i: usize| keys[i];
        let le = le_key(&bytes);
        let built = [
            KeyIndex::build(keys.len(), slice).unwrap(),
            KeyIndex::build(keys.len(), &le).unwrap(),
        ];
        for order in built {
            assert_eq!(order.order(), &[4, 1, 5, 0, 2, 6, 3]);
            assert_eq!(order.span(slice, (5, 5)), &[0, 2, 6]);
            assert_eq!(order.span(&le, (5, 5)), &[0, 2, 6]);
            assert_eq!(order.span(slice, (2, 4)), &[] as &[u32]);
            assert_eq!(order.span(slice, (0, u64::MAX)).len(), 7);
            assert_eq!(order.span(&le, (u64::MAX, u64::MAX)), &[3]);
        }
    }

    #[test]
    fn key_order_index_caps_columns_at_u32_items() {
        // A segment whose key column the `u32` index cannot address (a
        // 32 GiB column) is refused; the limit is checked on the count.
        assert!(index_len(u32::MAX as usize).is_ok());
        assert!(index_len(u32::MAX as usize + 1).is_err());
        let err = KeyIndex::build(u32::MAX as usize + 1, |_| unreachable!()).unwrap_err();
        assert!(err.contains("exceeds the index limit"), "{err}");
    }

    /// `(key, item)` pairs in key order, ties in item order: the index
    /// positions, sorted here without [`KeyIndex`].
    fn sorted_pairs(keys: &[u64]) -> Vec<(u64, usize)> {
        let mut pairs: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        pairs
    }

    /// The whole-index search the fence replaces: the slice
    /// [`KeyIndex::span`] must return.
    fn whole_index_span<'a>(order: &'a [u32], keys: &[u64], (lo, hi): (u64, u64)) -> &'a [u32] {
        let start = order.partition_point(|&i| keys[i as usize] < lo);
        let rest = &order[start..];
        &rest[..rest.partition_point(|&i| keys[i as usize] <= hi)]
    }

    /// A key column of `n` items in scrambled item order. In key order the
    /// keys rise in steps of 0–4, the three positions around every fence
    /// (`b·BLOCK − 1 ..= b·BLOCK + 1`) share one key, and on odd seeds the
    /// last keys are `u64::MAX` (the first key is 0 on some seeds).
    fn fence_fixture(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = rng.gen_range(0..3u64);
        let mut keys: Vec<u64> = (0..n)
            .map(|p| {
                if p > 0 && p % BLOCK > 1 {
                    key += rng.gen_range(0..5u64);
                }
                key
            })
            .collect();
        if seed % 2 == 1 {
            let tail = n.saturating_sub(3);
            keys[tail..].fill(u64::MAX);
        }
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        keys
    }

    /// Ranges whose ends are 0, `u64::MAX`, and every distinct key and its
    /// two neighbours: every pair of ends when there are few, else each
    /// end alone, against each domain end, and paired with a later end.
    fn fence_probe_ranges(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut ends = vec![0, u64::MAX];
        for &k in keys {
            ends.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        ends.sort_unstable();
        ends.dedup();
        if ends.len() <= 120 {
            return ends
                .iter()
                .enumerate()
                .flat_map(|(i, &lo)| ends[i..].iter().map(move |&hi| (lo, hi)))
                .collect();
        }
        ends.iter()
            .enumerate()
            .flat_map(|(i, &e)| {
                [
                    (e, e),
                    (0, e),
                    (e, u64::MAX),
                    (e, ends[(i + 7).min(ends.len() - 1)]),
                ]
            })
            .collect()
    }

    /// The probe ranges on which `order` answers a different slice from
    /// the whole-index search over `reference`, the keys' stable sort,
    /// reading the keys from a slice or from little-endian bytes.
    fn fence_mismatches(order: &KeyIndex, keys: &[u64], reference: &[u32]) -> usize {
        let bytes = le_bytes(keys);
        let le = le_key(&bytes);
        fence_probe_ranges(keys)
            .into_iter()
            .filter(|&range| {
                let want = whole_index_span(reference, keys, range);
                order.span(|i| keys[i], range) != want || order.span(&le, range) != want
            })
            .count()
    }

    #[test]
    fn fence_search_returns_the_whole_index_slice() {
        for n in [0, 1, 15, 16, 17, 31, 32, 33, 1000] {
            for seed in 0..6u64 {
                let keys = fence_fixture(n, seed);
                let order = KeyIndex::build(n, |i| keys[i]).unwrap();
                assert_eq!(order.fence.len(), n.div_ceil(BLOCK), "n {n}");
                let reference: Vec<u32> =
                    sorted_pairs(&keys).iter().map(|&(_, i)| i as u32).collect();
                assert_eq!(order.order(), reference.as_slice(), "n {n}");
                let bad = fence_mismatches(&order, &keys, &reference);
                assert_eq!(bad, 0, "n {n}, seed {seed}: {bad} ranges differ");
            }
        }
        // The fixtures hold runs of duplicate keys across fences.
        let keys = fence_fixture(1000, 2);
        let order = KeyIndex::build(1000, |i| keys[i]).unwrap();
        let at = |p: usize| keys[order.order()[p] as usize];
        assert!((1..1000 / BLOCK).all(|b| at(b * BLOCK - 1) == at(b * BLOCK)));
    }

    #[test]
    fn fence_off_by_one_block_is_caught() {
        let keys = fence_fixture(1000, 3);
        let index = KeyIndex::build(1000, |i| keys[i]).unwrap();
        // Each block's fence entry names the next block's first key.
        let shifted: Arc<[u64]> = index.fence[1..].iter().copied().chain([u64::MAX]).collect();
        let mutated = KeyIndex {
            order: index.order.clone(),
            fence: shifted,
        };
        assert!(fence_mismatches(&mutated, &keys, &index.order) > 0);
    }
}
