//! The store manifest: the single source of truth for which window frames
//! a store directory contains.
//!
//! The manifest is itself a `sas-codec` frame (tag
//! [`sas_codec::proto::TAG_MANIFEST`]) written atomically by every catalog
//! change that persists or drops a window (ingests only append to the
//! batch log), *after* the frames it references — so at any crash point
//! the manifest only ever names frames that are fully on disk. Files
//! present but unlisted are compaction/crash orphans and are swept on
//! open.

use std::collections::BTreeMap;

use sas_codec::{encode_frame, open_frame, proto, CodecError, Reader, Writer};
use sas_summaries::SummaryKind;

use crate::policy::Policy;
use crate::window::{Level, WindowKey};

/// One manifest row: a window's key plus the writer state needed to resume
/// it (batch counter for deterministic ingest-merge seeds), its frame size
/// for integrity checking, and the generation that names its frame file.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// The window's catalog coordinate.
    pub key: WindowKey,
    /// Batches the window's frame holds. Batch-log records of the window
    /// with a smaller batch index are already counted here.
    pub batches: u64,
    /// Size of the window's frame file in bytes.
    pub frame_bytes: u64,
    /// Generation of the frame file ([`crate::frame_file`]). A window whose
    /// batches changed is persisted under the next generation, never over
    /// the frame this row names.
    pub generation: u64,
}

/// The decoded manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Monotonic write counter (diagnostics; bumped every rewrite).
    pub sequence: u64,
    /// All live windows, in key order.
    pub entries: Vec<ManifestEntry>,
    /// Installed lifecycle policies, keyed by dataset. Absent from
    /// pre-lifecycle manifests; those decode to an empty map.
    pub policies: BTreeMap<String, Policy>,
    /// Retention floors per `(dataset, kind-tag)` series: the largest
    /// window end retention has dropped so far. Persisted so recovery
    /// reproduces the series watermark and stale-ingest floor even when
    /// retention removed the newest windows — the invariant behind
    /// retention/recovery commutativity.
    pub retention_floors: BTreeMap<(String, u16), u64>,
}

impl Manifest {
    /// Serializes the manifest as a frame. Stores that never used
    /// lifecycle features encode byte-identically to the pre-lifecycle
    /// format: the policy and floor sections are appended only when one of
    /// them is non-empty (or section 5 follows them), and the generation
    /// section 5 only when some frame is past generation 0.
    pub fn encode(&self) -> Vec<u8> {
        let generations: Vec<(u64, u64)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.generation > 0)
            .map(|(i, e)| (i as u64, e.generation))
            .collect();
        encode_frame(proto::TAG_MANIFEST, |w| {
            w.section(1, |w| {
                w.put_u64(self.sequence);
            });
            w.section(2, |w| {
                w.put_u64(self.entries.len() as u64);
                for e in &self.entries {
                    write_entry(w, e);
                }
            });
            if !self.policies.is_empty()
                || !self.retention_floors.is_empty()
                || !generations.is_empty()
            {
                w.section(3, |w| {
                    w.put_u64(self.policies.len() as u64);
                    for (dataset, policy) in &self.policies {
                        w.put_str(dataset);
                        policy.write_wire(w);
                    }
                });
                w.section(4, |w| {
                    w.put_u64(self.retention_floors.len() as u64);
                    for ((dataset, kind_tag), floor) in &self.retention_floors {
                        w.put_str(dataset);
                        w.put_u16(*kind_tag);
                        w.put_u64(*floor);
                    }
                });
            }
            if !generations.is_empty() {
                w.section(5, |w| {
                    w.put_u64(generations.len() as u64);
                    for (row, generation) in &generations {
                        w.put_u64(*row);
                        w.put_u64(*generation);
                    }
                });
            }
        })
    }

    /// Decodes a manifest frame (never panics on corrupted input).
    pub fn decode(bytes: &[u8]) -> Result<Manifest, CodecError> {
        let mut frame = open_frame(bytes)?;
        if frame.kind != proto::TAG_MANIFEST {
            return Err(CodecError::UnknownKind(frame.kind));
        }
        let mut meta = frame.body.expect_section(1)?;
        let sequence = meta.get_u64()?;
        meta.finish()?;
        let mut sec = frame.body.expect_section(2)?;
        // Smallest possible entry: 1-byte dataset + fixed fields.
        let n = sec.get_len(8 + 1 + 2 + 1 + 8 + 8 + 8)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(read_entry(&mut sec)?);
        }
        sec.finish()?;
        let mut policies = BTreeMap::new();
        let mut retention_floors = BTreeMap::new();
        // Pre-lifecycle manifests end here; newer ones carry two more
        // sections.
        if frame.body.remaining() > 0 {
            let mut sec = frame.body.expect_section(3)?;
            // Smallest policy row: 1-byte dataset + two option flags + an
            // empty budget map.
            let n = sec.get_len(8 + 1 + 1 + 1 + 8)?;
            let mut prev: Option<String> = None;
            for _ in 0..n {
                let dataset = read_dataset(&mut sec)?;
                if prev.as_deref().is_some_and(|p| p >= dataset.as_str()) {
                    return Err(CodecError::Invalid("manifest policies out of order".into()));
                }
                let policy = Policy::read_wire(&mut sec)?;
                if policy.is_empty() {
                    return Err(CodecError::Invalid(format!(
                        "manifest carries an empty policy for '{dataset}'"
                    )));
                }
                prev = Some(dataset.clone());
                policies.insert(dataset, policy);
            }
            sec.finish()?;
            let mut sec = frame.body.expect_section(4)?;
            let n = sec.get_len(8 + 1 + 2 + 8)?;
            let mut prev: Option<(String, u16)> = None;
            for _ in 0..n {
                let dataset = read_dataset(&mut sec)?;
                let kind_tag = sec.get_u16()?;
                if SummaryKind::from_tag(kind_tag).is_none() {
                    return Err(CodecError::UnknownKind(kind_tag));
                }
                let key = (dataset, kind_tag);
                if prev.as_ref().is_some_and(|p| p >= &key) {
                    return Err(CodecError::Invalid("manifest floors out of order".into()));
                }
                let floor = sec.get_u64()?;
                if floor == 0 {
                    return Err(CodecError::Invalid("manifest floor of zero".into()));
                }
                prev = Some(key.clone());
                retention_floors.insert(key, floor);
            }
            sec.finish()?;
        }
        // Stores whose every frame is generation 0 end here.
        if frame.body.remaining() > 0 {
            let mut sec = frame.body.expect_section(5)?;
            let n = sec.get_len(8 + 8)?;
            let mut prev: Option<u64> = None;
            for _ in 0..n {
                let row = sec.get_u64()?;
                let generation = sec.get_u64()?;
                let entry = usize::try_from(row)
                    .ok()
                    .and_then(|i| entries.get_mut(i))
                    .filter(|_| prev.is_none_or(|p| p < row) && generation > 0)
                    .ok_or_else(|| {
                        CodecError::Invalid(format!("manifest generation row {row} is invalid"))
                    })?;
                entry.generation = generation;
                prev = Some(row);
            }
            sec.finish()?;
        }
        frame.body.finish()?;
        Ok(Manifest {
            sequence,
            entries,
            policies,
            retention_floors,
        })
    }
}

/// Reads and validates a dataset name (manifest rows must never drive
/// frame paths outside the store directory).
fn read_dataset(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let dataset = r.get_str()?;
    if !crate::window::valid_dataset(&dataset) {
        return Err(CodecError::Invalid(format!(
            "manifest dataset '{dataset}' is not a valid dataset name"
        )));
    }
    Ok(dataset)
}

fn write_entry(w: &mut Writer, e: &ManifestEntry) {
    w.put_str(&e.key.dataset);
    w.put_u16(e.key.kind.tag());
    w.put_u8(e.key.level.tag());
    w.put_u64(e.key.start);
    w.put_u64(e.batches);
    w.put_u64(e.frame_bytes);
}

fn read_entry(r: &mut Reader<'_>) -> Result<ManifestEntry, CodecError> {
    // Re-establish the ingest-time invariant on the recovery path: a
    // crafted or foreign manifest must not be able to point frame paths
    // outside the store directory (e.g. dataset "..").
    let dataset = read_dataset(r)?;
    let kind_tag = r.get_u16()?;
    let kind = SummaryKind::from_tag(kind_tag).ok_or(CodecError::UnknownKind(kind_tag))?;
    let level_tag = r.get_u8()?;
    let level = Level::from_tag(level_tag)
        .ok_or_else(|| CodecError::Invalid(format!("unknown window level {level_tag}")))?;
    let start = r.get_u64()?;
    if start % level.span() != 0 {
        return Err(CodecError::Invalid(format!(
            "window start {start} is not aligned to a {level} span"
        )));
    }
    let batches = r.get_u64()?;
    let frame_bytes = r.get_u64()?;
    Ok(ManifestEntry {
        generation: 0,
        key: WindowKey {
            dataset,
            kind,
            level,
            start,
        },
        batches,
        frame_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            sequence: 17,
            entries: vec![
                ManifestEntry {
                    key: WindowKey {
                        dataset: "web".into(),
                        kind: SummaryKind::Sample,
                        level: Level::Minute,
                        start: 120,
                    },
                    batches: 3,
                    frame_bytes: 999,
                    generation: 0,
                },
                ManifestEntry {
                    key: WindowKey {
                        dataset: "web".into(),
                        kind: SummaryKind::Sample,
                        level: Level::Hour,
                        start: 0,
                    },
                    batches: 60,
                    frame_bytes: 12345,
                    generation: 0,
                },
            ],
            policies: BTreeMap::new(),
            retention_floors: BTreeMap::new(),
        }
    }

    fn sample_with_lifecycle() -> Manifest {
        let mut m = sample();
        m.policies.insert(
            "web".into(),
            Policy {
                compact_after: Some(60),
                retention_ttl: Some(7200),
                per_kind_budget: [(SummaryKind::Sample.tag(), 64)].into_iter().collect(),
            },
        );
        m.retention_floors
            .insert(("web".into(), SummaryKind::Sample.tag()), 3600);
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Empty manifests are valid too.
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
        // And manifests carrying lifecycle state.
        let m = sample_with_lifecycle();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn pre_lifecycle_manifests_still_decode() {
        // A manifest without sections 3/4 — exactly what every store wrote
        // before policies existed — decodes to empty lifecycle state, and a
        // store that never used lifecycle features re-encodes to the same
        // bytes (no silent format drift for old stores).
        let m = sample();
        let old = m.encode();
        let decoded = Manifest::decode(&old).unwrap();
        assert!(decoded.policies.is_empty());
        assert!(decoded.retention_floors.is_empty());
        assert_eq!(decoded.encode(), old);
    }

    #[test]
    fn generations_roundtrip_with_and_without_lifecycle_state() {
        for mut m in [sample(), sample_with_lifecycle()] {
            let before = m.encode();
            m.entries[1].generation = 3;
            let bytes = m.encode();
            assert_ne!(bytes, before);
            assert_eq!(Manifest::decode(&bytes).unwrap(), m);
            for len in 0..bytes.len() {
                assert!(Manifest::decode(&bytes[..len]).is_err(), "prefix {len}");
            }
            // Back at generation 0 the section is gone again.
            m.entries[1].generation = 0;
            assert_eq!(m.encode(), before);
        }
        // A generation row past the entries, out of order, or naming
        // generation 0 is rejected.
        let with_rows = |rows: &[(u64, u64)]| {
            encode_frame(proto::TAG_MANIFEST, |w| {
                w.section(1, |w| w.put_u64(1));
                w.section(2, |w| {
                    w.put_u64(sample().entries.len() as u64);
                    for e in &sample().entries {
                        write_entry(w, e);
                    }
                });
                w.section(3, |w| w.put_u64(0));
                w.section(4, |w| w.put_u64(0));
                w.section(5, |w| {
                    w.put_u64(rows.len() as u64);
                    for (row, generation) in rows {
                        w.put_u64(*row);
                        w.put_u64(*generation);
                    }
                });
            })
        };
        assert!(Manifest::decode(&with_rows(&[(0, 2), (1, 5)])).is_ok());
        for rows in [&[(2u64, 1u64)][..], &[(1, 1), (0, 1)], &[(0, 0)]] {
            assert!(Manifest::decode(&with_rows(rows)).is_err(), "{rows:?}");
        }
    }

    #[test]
    fn lifecycle_sections_corruption_rejected() {
        let bytes = sample_with_lifecycle().encode();
        for len in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..len]).is_err(), "prefix {len}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(Manifest::decode(&corrupt).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn hostile_lifecycle_rows_rejected() {
        // Policy for an invalid dataset name, unsorted policy rows, an
        // empty policy, a zero floor, an unknown floor kind: each must be
        // rejected structurally, not just by CRC.
        let base = |f: &mut dyn FnMut(&mut sas_codec::Writer)| {
            encode_frame(proto::TAG_MANIFEST, |w| {
                w.section(1, |w| w.put_u64(1));
                w.section(2, |w| w.put_u64(0));
                f(w);
            })
        };
        let ttl_policy = |w: &mut sas_codec::Writer| {
            w.put_u8(0);
            w.put_u8(1);
            w.put_u64(60);
            w.put_u64(0);
        };
        let cases: Vec<Vec<u8>> = vec![
            base(&mut |w| {
                w.section(3, |w| {
                    w.put_u64(1);
                    w.put_str("..");
                    ttl_policy(w);
                });
                w.section(4, |w| w.put_u64(0));
            }),
            base(&mut |w| {
                w.section(3, |w| {
                    w.put_u64(2);
                    w.put_str("b");
                    ttl_policy(w);
                    w.put_str("a");
                    ttl_policy(w);
                });
                w.section(4, |w| w.put_u64(0));
            }),
            base(&mut |w| {
                w.section(3, |w| {
                    w.put_u64(1);
                    w.put_str("a");
                    w.put_u8(0);
                    w.put_u8(0);
                    w.put_u64(0);
                });
                w.section(4, |w| w.put_u64(0));
            }),
            base(&mut |w| {
                w.section(3, |w| w.put_u64(0));
                w.section(4, |w| {
                    w.put_u64(1);
                    w.put_str("a");
                    w.put_u16(SummaryKind::Sample.tag());
                    w.put_u64(0);
                });
            }),
            base(&mut |w| {
                w.section(3, |w| w.put_u64(0));
                w.section(4, |w| {
                    w.put_u64(1);
                    w.put_str("a");
                    w.put_u16(0xFFFF);
                    w.put_u64(60);
                });
            }),
        ];
        for (i, bytes) in cases.iter().enumerate() {
            assert!(Manifest::decode(bytes).is_err(), "case {i}");
        }
    }

    #[test]
    fn corruption_is_rejected_not_panicking() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..len]).is_err(), "prefix {len}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(Manifest::decode(&corrupt).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn summary_frames_are_not_manifests() {
        let frame = encode_frame(SummaryKind::Sample.tag(), |w| w.put_u64(0));
        assert!(matches!(
            Manifest::decode(&frame),
            Err(CodecError::UnknownKind(_))
        ));
    }

    #[test]
    fn path_traversal_dataset_rejected() {
        // A manifest naming dataset ".." must not drive frame paths
        // outside the store directory on recovery.
        for hostile in ["..", "../../etc", "a/b", ""] {
            let bytes = encode_frame(proto::TAG_MANIFEST, |w| {
                w.section(1, |w| w.put_u64(1));
                w.section(2, |w| {
                    w.put_u64(1);
                    w.put_str(hostile);
                    w.put_u16(SummaryKind::Sample.tag());
                    w.put_u8(Level::Minute.tag());
                    w.put_u64(0);
                    w.put_u64(0);
                    w.put_u64(0);
                });
            });
            // Non-empty hostile names reach the validity check (Invalid);
            // the empty name already dies at the section length floor.
            assert!(
                Manifest::decode(&bytes).is_err(),
                "dataset '{hostile}' must be rejected"
            );
        }
    }

    #[test]
    fn misaligned_start_rejected() {
        // Hand-build a manifest whose hour window starts mid-span.
        let bytes = encode_frame(proto::TAG_MANIFEST, |w| {
            w.section(1, |w| w.put_u64(1));
            w.section(2, |w| {
                w.put_u64(1);
                w.put_str("d");
                w.put_u16(SummaryKind::Sample.tag());
                w.put_u8(Level::Hour.tag());
                w.put_u64(1800);
                w.put_u64(0);
                w.put_u64(0);
            });
        });
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }
}
