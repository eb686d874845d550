//! v2 **segment** format — a flat, seekable layout whose bytes *are* the
//! query representation.
//!
//! A v1 frame (see the crate root) is a *logical* format: decoding walks
//! length-prefixed sections and materializes owned structures. A segment is
//! a *physical* format: a fixed-width header is followed by a section table
//! of absolute offsets, and each section is a run of 8-byte little-endian
//! elements (a column). A reader seeks straight to a column and reads
//! elements in place — no allocation, no decode pass — which is what lets
//! the store serve range queries from an `mmap`ed file off the page cache.
//!
//! ## Layout (version 2)
//!
//! ```text
//! offset      size  field
//! ----------  ----  ---------------------------------------------------
//!          0     4  magic  "SASG"
//!          4     2  format version (little-endian u16, currently 2)
//!          6     2  summary kind tag (registry lives in sas-summaries)
//!          8     8  total file length in bytes (including the trailer)
//!         16     4  section count k (little-endian u32)
//!         20     4  reserved, must be zero
//!         24  32*k  section table, one fixed-width entry per section:
//!                     id: u32, elem_size: u32, count: u64,
//!                     offset: u64, len: u64
//! 24 + 32*k  ....  section payloads, each starting at its table offset
//! end - 4       4  CRC-32 (IEEE) of bytes [0, end - 4)
//! ```
//!
//! Table invariants, all enforced by [`SegmentView::parse`]: entry ids
//! strictly increase; `elem_size` is 8 (the only element width version 2
//! defines); `len == count * elem_size`; offsets are 8-byte aligned, start
//! at or after the table, strictly increase, never overlap, and end before
//! the trailer. All integers are little-endian; `f64` travels as its
//! IEEE-754 bit pattern, read by [`Le`] via `from_le_bytes` on 8-byte
//! arrays — never a pointer transmute, so alignment of the backing buffer
//! is irrelevant to safety.
//!
//! ## Robustness contract
//!
//! [`SegmentView::parse`] is the only entry point and it validates the
//! whole file: CRC-32 first (one sequential pass — which doubles as page-
//! cache warming for a freshly mapped file), then every header field and
//! table invariant. After a successful parse, every column run ([`Le`]) is
//! a slice proven in-bounds at parse time; corrupted or forged input
//! surfaces as a [`CodecError`], never a panic or an out-of-bounds read.

use std::marker::PhantomData;
use std::ops::Range;

use crate::{crc32, CodecError, TRAILER_LEN};

/// File magic: identifies a `sas` v2 segment ("SAS seGment").
pub const SEGMENT_MAGIC: [u8; 4] = *b"SASG";

/// Current segment-format version.
pub const SEGMENT_VERSION: u16 = 2;

/// Size of the fixed segment header (magic + version + kind + file length
/// + section count + reserved).
pub const SEGMENT_HEADER_LEN: usize = 24;

/// Size of one section-table entry.
pub const SEGMENT_ENTRY_LEN: usize = 32;

/// Hard cap on the section count — far above any real summary layout, low
/// enough that a forged count cannot force a large table allocation.
pub const MAX_SEGMENT_SECTIONS: usize = 64;

/// The only element width version 2 defines: every column is a run of
/// 8-byte little-endian words (`u64` or `f64` bit patterns).
pub const SEGMENT_ELEM_SIZE: usize = 8;

/// Whether `bytes` look like a v2 segment (magic sniff — used by loaders
/// that also accept v1 frames and the legacy TSV format).
pub fn is_segment(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == SEGMENT_MAGIC
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (unique, ascending within a segment).
    pub id: u32,
    /// Element width in bytes (always [`SEGMENT_ELEM_SIZE`] in version 2).
    pub elem_size: u32,
    /// Number of elements.
    pub count: u64,
    /// Absolute byte offset of the column run.
    pub offset: u64,
    /// Byte length of the column run (`count * elem_size`).
    pub len: u64,
}

/// A value stored as one 8-byte little-endian word of a column run.
pub trait Word: Copy {
    /// Decodes one word.
    fn from_le(word: [u8; 8]) -> Self;
}

impl Word for u64 {
    #[inline(always)]
    fn from_le(word: [u8; 8]) -> Self {
        u64::from_le_bytes(word)
    }
}

impl Word for f64 {
    #[inline(always)]
    fn from_le(word: [u8; 8]) -> Self {
        f64::from_le_bytes(word)
    }
}

/// A column run of little-endian `T`s, indexed as whole 8-byte words: the
/// one reader of segment words, for meta and data columns alike.
#[derive(Debug, Clone, Copy)]
pub struct Le<'a, T> {
    words: &'a [[u8; 8]],
    _value: PhantomData<T>,
}

impl<'a, T: Word> Le<'a, T> {
    /// Views a run whose length is a multiple of 8 ([`SegmentView::parse`]
    /// proves it for every column; trailing bytes of any other slice are
    /// not part of the view).
    pub fn new(bytes: &'a [u8]) -> Self {
        let (words, rest) = bytes.as_chunks();
        debug_assert!(rest.is_empty(), "column run of {} bytes", bytes.len());
        Self {
            words,
            _value: PhantomData,
        }
    }

    /// Number of words.
    pub fn len(self) -> usize {
        self.words.len()
    }

    /// Whether the run holds no words.
    pub fn is_empty(self) -> bool {
        self.words.is_empty()
    }

    /// Word `i`; panics if `i` is out of range.
    #[inline(always)]
    pub fn at(self, i: usize) -> T {
        T::from_le(self.words[i])
    }

    /// Every word, in order.
    pub fn values(self) -> impl ExactSizeIterator<Item = T> + 'a {
        self.words.iter().map(|&w| T::from_le(w))
    }
}

/// A validated, zero-copy view over a segment's bytes.
#[derive(Debug, Clone)]
pub struct SegmentView<'a> {
    bytes: &'a [u8],
    kind: u16,
    table: Vec<SectionEntry>,
}

impl<'a> SegmentView<'a> {
    /// Validates a whole segment (checksum, header, section table) and
    /// returns a view. Never panics and never reads out of bounds on
    /// corrupted, truncated, or forged input.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let min = SEGMENT_HEADER_LEN + TRAILER_LEN;
        if bytes.len() < min {
            return Err(CodecError::Truncated {
                needed: min,
                remaining: bytes.len(),
            });
        }
        // Checksum first: any single-bit corruption anywhere in the file
        // surfaces before a field is interpreted.
        let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
        let stored = u32::from_le_bytes(trailer.try_into().expect("len 4"));
        if crc32(payload) != stored {
            return Err(CodecError::ChecksumMismatch);
        }
        if bytes[..4] != SEGMENT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let word16 = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().expect("len 2"));
        let word32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len 4"));
        let word64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("len 8"));
        let version = word16(4);
        if version != SEGMENT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let kind = word16(6);
        let declared = word64(8);
        if declared != bytes.len() as u64 {
            return Err(CodecError::LengthMismatch {
                declared,
                actual: bytes.len() as u64,
            });
        }
        let count = word32(16) as usize;
        if count > MAX_SEGMENT_SECTIONS {
            return Err(CodecError::Invalid(format!(
                "{count} sections exceed the cap of {MAX_SEGMENT_SECTIONS}"
            )));
        }
        if word32(20) != 0 {
            return Err(CodecError::Invalid("reserved header bytes not zero".into()));
        }
        let table_end = SEGMENT_HEADER_LEN + count * SEGMENT_ENTRY_LEN;
        let data_end = bytes.len() - TRAILER_LEN;
        if table_end > data_end {
            return Err(CodecError::Truncated {
                needed: table_end + TRAILER_LEN,
                remaining: bytes.len(),
            });
        }
        let mut table = Vec::with_capacity(count);
        let mut prev_id: Option<u32> = None;
        let mut cursor = table_end as u64;
        for i in 0..count {
            let at = SEGMENT_HEADER_LEN + i * SEGMENT_ENTRY_LEN;
            let entry = SectionEntry {
                id: word32(at),
                elem_size: word32(at + 4),
                count: word64(at + 8),
                offset: word64(at + 16),
                len: word64(at + 24),
            };
            if prev_id.is_some_and(|p| entry.id <= p) {
                return Err(CodecError::Invalid(format!(
                    "section ids not strictly ascending at id {}",
                    entry.id
                )));
            }
            prev_id = Some(entry.id);
            if entry.elem_size as usize != SEGMENT_ELEM_SIZE {
                return Err(CodecError::Invalid(format!(
                    "section {}: element size {} (only {SEGMENT_ELEM_SIZE} is defined)",
                    entry.id, entry.elem_size
                )));
            }
            let expected_len =
                entry
                    .count
                    .checked_mul(entry.elem_size as u64)
                    .ok_or_else(|| {
                        CodecError::Invalid(format!("section {}: count overflows", entry.id))
                    })?;
            if entry.len != expected_len {
                return Err(CodecError::Invalid(format!(
                    "section {}: length {} does not match {} elements of {}",
                    entry.id, entry.len, entry.count, entry.elem_size
                )));
            }
            if !entry.offset.is_multiple_of(8) {
                return Err(CodecError::Invalid(format!(
                    "section {}: offset {} is not 8-byte aligned",
                    entry.id, entry.offset
                )));
            }
            if entry.offset < cursor {
                return Err(CodecError::Invalid(format!(
                    "section {}: offset {} overlaps the preceding bytes ending at {cursor}",
                    entry.id, entry.offset
                )));
            }
            let end = entry.offset.checked_add(entry.len).ok_or_else(|| {
                CodecError::Invalid(format!("section {}: extent overflows", entry.id))
            })?;
            if end > data_end as u64 {
                return Err(CodecError::Invalid(format!(
                    "section {}: extent [{}, {end}) runs past the data end {data_end}",
                    entry.id, entry.offset
                )));
            }
            cursor = end;
            table.push(entry);
        }
        Ok(Self { bytes, kind, table })
    }

    /// The summary kind tag from the header.
    pub fn kind(&self) -> u16 {
        self.kind
    }

    /// The validated section table, in id order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.table
    }

    /// Total segment size in bytes.
    pub fn file_len(&self) -> usize {
        self.bytes.len()
    }

    /// The byte range of section `id`'s column run, proven in-bounds by
    /// [`SegmentView::parse`].
    pub fn column_range(&self, id: u32) -> Result<Range<usize>, CodecError> {
        let entry = self
            .table
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CodecError::Invalid(format!("missing segment section {id}")))?;
        let start = entry.offset as usize;
        Ok(start..start + entry.len as usize)
    }

    /// Section `id`'s column run, read as little-endian `T`s.
    pub fn column<T: Word>(&self, id: u32) -> Result<Le<'a, T>, CodecError> {
        Ok(Le::new(&self.bytes[self.column_range(id)?]))
    }
}

/// Builds a segment from columns of 8-byte words.
///
/// Columns must be added in strictly ascending id order (the table is part
/// of the format, and ascending ids make duplicate detection free);
/// [`SegmentBuilder::finish`] panics otherwise — that is a programmer
/// error, not a data error.
#[derive(Debug)]
pub struct SegmentBuilder {
    kind: u16,
    cols: Vec<(u32, u64, Vec<u8>)>,
}

impl SegmentBuilder {
    /// Starts a segment for the given summary kind tag.
    pub fn new(kind: u16) -> Self {
        Self {
            kind,
            cols: Vec::new(),
        }
    }

    /// Appends a column of `u64`s.
    pub fn column_u64(&mut self, id: u32, vals: impl IntoIterator<Item = u64>) -> &mut Self {
        let mut bytes = Vec::new();
        let mut count = 0u64;
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
            count += 1;
        }
        self.cols.push((id, count, bytes));
        self
    }

    /// Appends a column of `f64` bit patterns.
    pub fn column_f64(&mut self, id: u32, vals: impl IntoIterator<Item = f64>) -> &mut Self {
        self.column_u64(id, vals.into_iter().map(f64::to_bits))
    }

    /// Assembles the segment: header, section table, 8-aligned column runs,
    /// trailing CRC-32.
    pub fn finish(self) -> Vec<u8> {
        assert!(
            self.cols.len() <= MAX_SEGMENT_SECTIONS,
            "{} sections exceed the cap",
            self.cols.len()
        );
        for pair in self.cols.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "section ids must be strictly ascending"
            );
        }
        let table_end = SEGMENT_HEADER_LEN + self.cols.len() * SEGMENT_ENTRY_LEN;
        // Header and table entries are each a multiple of 8 bytes, and so is
        // every column run, so offsets stay 8-aligned without padding.
        let data_len: usize = self.cols.iter().map(|(_, _, b)| b.len()).sum();
        let total = table_end + data_len + TRAILER_LEN;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(total as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        let mut offset = table_end as u64;
        for (id, count, bytes) in &self.cols {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(SEGMENT_ELEM_SIZE as u32).to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            offset += bytes.len() as u64;
        }
        for (_, _, bytes) in &self.cols {
            out.extend_from_slice(bytes);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> Vec<u8> {
        let mut b = SegmentBuilder::new(1);
        b.column_u64(1, [2u64, 0x4045_0000_0000_0000]);
        b.column_u64(2, [10, 20, 30]);
        b.column_f64(3, [1.5, 2.5, 3.5]);
        b.column_u64(5, []);
        b.finish()
    }

    /// Patches `bytes` and recomputes the trailing CRC so structural checks
    /// (not the checksum) are what reject the forgery.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Byte offset of field `field_at` inside table entry `i`.
    fn entry_at(i: usize, field_at: usize) -> usize {
        SEGMENT_HEADER_LEN + i * SEGMENT_ENTRY_LEN + field_at
    }

    #[test]
    fn roundtrip_columns() {
        let bytes = sample_segment();
        let view = SegmentView::parse(&bytes).unwrap();
        assert_eq!(view.kind(), 1);
        assert_eq!(view.sections().len(), 4);
        assert_eq!(view.file_len(), bytes.len());
        let c1 = view.column::<u64>(1).unwrap();
        assert_eq!(
            c1.values().collect::<Vec<_>>(),
            vec![2, 0x4045_0000_0000_0000]
        );
        assert_eq!(view.column::<f64>(1).unwrap().at(1), 42.0);
        let c2 = view.column::<u64>(2).unwrap();
        assert_eq!(c2.len(), 3);
        assert_eq!(c2.values().collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(c2.at(2), 30);
        let c3 = view.column::<f64>(3).unwrap();
        assert_eq!(c3.values().collect::<Vec<_>>(), vec![1.5, 2.5, 3.5]);
        assert!(view.column::<u64>(5).unwrap().is_empty());
        assert!(matches!(view.column::<u64>(4), Err(CodecError::Invalid(_))));
        // The range is the run the table names.
        let e = view.sections()[1];
        assert_eq!(
            view.column_range(2).unwrap(),
            e.offset as usize..(e.offset + e.len) as usize
        );
    }

    #[test]
    fn empty_segment_roundtrips() {
        let bytes = SegmentBuilder::new(9).finish();
        assert_eq!(bytes.len(), SEGMENT_HEADER_LEN + TRAILER_LEN);
        let view = SegmentView::parse(&bytes).unwrap();
        assert_eq!(view.kind(), 9);
        assert!(view.sections().is_empty());
    }

    #[test]
    fn columns_are_eight_aligned() {
        let bytes = sample_segment();
        let view = SegmentView::parse(&bytes).unwrap();
        for e in view.sections() {
            assert_eq!(e.offset % 8, 0, "section {}", e.id);
            assert_eq!(e.elem_size as usize, SEGMENT_ELEM_SIZE);
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample_segment();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SegmentView::parse(&corrupt).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_segment();
        for len in 0..bytes.len() {
            assert!(
                SegmentView::parse(&bytes[..len]).is_err(),
                "prefix of {len} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = sample_segment();
        bytes.push(0);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn wrong_version_with_valid_checksum_is_rejected() {
        let mut bytes = sample_segment();
        bytes[4] = 99;
        reseal(&mut bytes);
        assert_eq!(
            SegmentView::parse(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn v1_frame_magic_is_rejected() {
        let mut bytes = sample_segment();
        bytes[..4].copy_from_slice(&crate::MAGIC);
        reseal(&mut bytes);
        assert_eq!(
            SegmentView::parse(&bytes).unwrap_err(),
            CodecError::BadMagic
        );
        // And the sniffers tell the two formats apart.
        assert!(is_segment(&sample_segment()));
        assert!(!is_segment(&bytes[..3]));
        assert!(!crate::is_frame(&sample_segment()));
    }

    #[test]
    fn forged_offset_out_of_range_is_rejected() {
        let mut bytes = sample_segment();
        let at = entry_at(1, 16);
        let past_end = bytes.len() as u64;
        bytes[at..at + 8].copy_from_slice(&past_end.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            SegmentView::parse(&bytes).unwrap_err(),
            CodecError::Invalid(_)
        ));
    }

    #[test]
    fn forged_offset_overflow_is_rejected() {
        let mut bytes = sample_segment();
        let at = entry_at(1, 16);
        bytes[at..at + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_misaligned_offset_is_rejected() {
        let mut bytes = sample_segment();
        let at = entry_at(1, 16);
        let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(offset + 4).to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_overlapping_sections_are_rejected() {
        let mut bytes = sample_segment();
        // Point section 2 back at section 1's run.
        let src = entry_at(0, 16);
        let offset = u64::from_le_bytes(bytes[src..src + 8].try_into().unwrap());
        let at = entry_at(1, 16);
        bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_count_mismatch_is_rejected() {
        let mut bytes = sample_segment();
        let at = entry_at(1, 8);
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_elem_size_is_rejected() {
        let mut bytes = sample_segment();
        let at = entry_at(0, 4);
        bytes[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_duplicate_or_descending_ids_are_rejected() {
        for forged_id in [1u32, 0] {
            let mut bytes = sample_segment();
            let at = entry_at(1, 0);
            bytes[at..at + 4].copy_from_slice(&forged_id.to_le_bytes());
            reseal(&mut bytes);
            assert!(SegmentView::parse(&bytes).is_err(), "id {forged_id}");
        }
    }

    #[test]
    fn forged_section_count_is_rejected() {
        let mut bytes = sample_segment();
        bytes[16..20].copy_from_slice(&(MAX_SEGMENT_SECTIONS as u32 + 1).to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
        // A count whose table would run past the data end is truncation.
        let mut bytes = sample_segment();
        bytes[16..20].copy_from_slice(&(MAX_SEGMENT_SECTIONS as u32).to_le_bytes());
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    fn forged_file_length_is_rejected() {
        let mut bytes = sample_segment();
        bytes[8..16].copy_from_slice(&(u64::MAX).to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            SegmentView::parse(&bytes).unwrap_err(),
            CodecError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn forged_reserved_bytes_are_rejected() {
        let mut bytes = sample_segment();
        bytes[20] = 1;
        reseal(&mut bytes);
        assert!(SegmentView::parse(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn builder_rejects_unordered_ids() {
        let mut b = SegmentBuilder::new(1);
        b.column_u64(2, [1]);
        b.column_u64(1, [2]);
        b.finish();
    }
}
