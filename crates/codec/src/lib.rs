//! # sas-codec — versioned binary wire format for persistent summaries
//!
//! The paper's premise is that a small summary stands in for the full data
//! set and is queried later, repeatedly, and flexibly. That requires the
//! summary to outlive the process that built it: this crate is the hand-
//! rolled (no serde; the build environment is offline) framing layer that
//! `sas-summaries` encodes every summary kind on top of.
//!
//! ## Frame layout (version 1)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic  "SASF"
//!      4     2  format version (little-endian u16, currently 1)
//!      6     2  summary kind tag (registry lives in sas-summaries)
//!      8     8  body length in bytes (little-endian u64)
//!     16     N  body: a sequence of length-prefixed sections
//! 16 + N     4  CRC-32 (IEEE) of bytes [0, 16 + N)
//! ```
//!
//! Each body **section** is `id: u16, len: u64, payload: [u8; len]` —
//! decoders address sections by id, and a version bump may append new
//! sections without disturbing existing ones. All integers are
//! little-endian; `f64` travels as its IEEE-754 bit pattern.
//!
//! ## Robustness contract
//!
//! Decoding untrusted bytes must **never panic** and never allocate
//! unboundedly: every read is bounds-checked ([`Reader`]), every collection
//! length is validated against the bytes actually remaining
//! ([`Reader::get_len`]), and the trailing CRC-32 (which detects all
//! single-bit errors) is verified before any field is interpreted. Any
//! corruption, truncation, version or kind mismatch surfaces as a
//! [`CodecError`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod segment;

use std::fmt;

/// File magic: identifies a `sas` binary summary frame.
pub const MAGIC: [u8; 4] = *b"SASF";

/// Current wire-format version.
pub const VERSION: u16 = 1;

/// Size of the fixed frame header (magic + version + kind + body length).
pub const HEADER_LEN: usize = 16;

/// Size of the trailing checksum.
pub const TRAILER_LEN: usize = 4;

/// Everything that can go wrong while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remain than a read requires.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version is not one this build can decode.
    UnsupportedVersion(u16),
    /// The kind tag is not present in the decoder registry.
    UnknownKind(u16),
    /// The trailing CRC-32 does not match the frame contents.
    ChecksumMismatch,
    /// The declared body length disagrees with the frame size.
    LengthMismatch {
        /// Body length declared in the header.
        declared: u64,
        /// Body bytes actually present.
        actual: u64,
    },
    /// Bytes remain after the last expected field.
    TrailingBytes(usize),
    /// A field decoded to a value that violates the kind's invariants.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic => write!(f, "not a sas summary file (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown summary kind tag {k}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch (corrupted file)"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "body length mismatch: header says {declared}, found {actual}"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} unexpected trailing bytes"),
            CodecError::Invalid(msg) => write!(f, "invalid field: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -----------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes` — detects all single-bit errors, which is what
/// makes the bit-flip robustness sweep airtight.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- Writer ----------------------------------------------------------------

/// Append-only byte writer for frame bodies.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string (`len: u64, bytes`).
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed section: `id, len, payload` where the
    /// payload is whatever `f` writes.
    pub fn section(&mut self, id: u16, f: impl FnOnce(&mut Writer)) {
        self.put_u16(id);
        let len_at = self.buf.len();
        self.put_u64(0); // patched below
        let start = self.buf.len();
        f(self);
        let len = (self.buf.len() - start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

// --- Reader ----------------------------------------------------------------

/// Bounds-checked cursor over a byte slice. Every method returns `Err`
/// instead of panicking when the input is short.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor reached the end.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an `f64` that must be finite (rejects NaN/∞ smuggled in by
    /// corruption — the samplers' invariants assume finite weights).
    pub fn get_finite_f64(&mut self) -> Result<f64, CodecError> {
        let v = self.get_f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::Invalid(format!("non-finite f64 {v}")))
        }
    }

    /// Reads a length-prefixed UTF-8 string written by [`Writer::put_str`].
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }

    /// Reads a collection length and validates it against the bytes left:
    /// a corrupted length cannot trigger a huge allocation because at least
    /// `elem_size` bytes must remain per element.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| CodecError::Invalid(format!("length {n} overflows usize")))?;
        let needed = n
            .checked_mul(elem_size.max(1))
            .ok_or_else(|| CodecError::Invalid(format!("length {n} × {elem_size} overflows")))?;
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads the next section header, requiring id `id`, and returns a
    /// sub-reader scoped to exactly that section's payload.
    pub fn expect_section(&mut self, id: u16) -> Result<Reader<'a>, CodecError> {
        let found = self.get_u16()?;
        if found != id {
            return Err(CodecError::Invalid(format!(
                "expected section {id}, found {found}"
            )));
        }
        let len = self.get_u64()?;
        let len: usize = len
            .try_into()
            .map_err(|_| CodecError::Invalid(format!("section length {len} overflows usize")))?;
        let payload = self.take(len)?;
        Ok(Reader::new(payload))
    }
}

// --- Frame -----------------------------------------------------------------

/// A parsed frame: the kind tag plus a reader over the body.
#[derive(Debug)]
pub struct Frame<'a> {
    /// The summary kind tag from the header.
    pub kind: u16,
    /// Reader positioned at the start of the body.
    pub body: Reader<'a>,
}

/// Encodes a complete frame: header, body written by `f`, trailing CRC-32.
pub fn encode_frame(kind: u16, f: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&MAGIC);
    w.put_u16(VERSION);
    w.put_u16(kind);
    w.put_u64(0); // body length, patched below
    f(&mut w);
    let mut bytes = w.into_bytes();
    let body_len = (bytes.len() - HEADER_LEN) as u64;
    bytes[8..16].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Validates a frame's envelope (length, checksum, magic, version, body
/// length) and returns its kind tag and body reader.
pub fn open_frame(bytes: &[u8]) -> Result<Frame<'_>, CodecError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN + TRAILER_LEN,
            remaining: bytes.len(),
        });
    }
    // Checksum first: CRC-32 detects every single-bit error anywhere in the
    // frame (header, body, or the checksum itself), so corruption surfaces
    // before any field is interpreted.
    let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let stored = u32::from_le_bytes(trailer.try_into().expect("len 4"));
    if crc32(payload) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    let mut r = Reader::new(payload);
    if r.get_bytes(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = r.get_u16()?;
    let declared = r.get_u64()?;
    let actual = r.remaining() as u64;
    if declared != actual {
        return Err(CodecError::LengthMismatch { declared, actual });
    }
    Ok(Frame { kind, body: r })
}

/// Whether `bytes` look like a binary summary frame (magic sniff — used by
/// loaders that also accept the legacy TSV format).
pub fn is_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// Frame kinds and stream framing for the `sas serve` wire protocol and the
/// store manifest.
///
/// The daemon speaks the same self-describing frame format as persisted
/// summaries: every request, response, and manifest is an
/// [`encode_frame`]-built frame whose kind tag lives in the ranges reserved
/// here. Summary kinds occupy low tags (1..=31, registry in
/// `sas-summaries`); the store manifest and protocol messages start at 48
/// and 64 so the two spaces can never collide.
///
/// On a byte stream the frames are length-prefixed: `len: u32 LE` followed
/// by exactly `len` frame bytes ([`write_message`](proto::write_message) /
/// [`read_message`](proto::read_message)). The
/// length prefix bounds the read before any allocation; the frame's own
/// CRC-32 then vouches for the payload.
pub mod proto {
    use std::io::{self, Read, Write};

    /// Store manifest frame (body layout owned by `sas-store`).
    pub const TAG_MANIFEST: u16 = 48;

    /// A standalone query AST frame (body layout owned by
    /// `sas-summaries::query`).
    pub const TAG_QUERY: u16 = 49;

    /// A standalone estimate frame — a value with error bounds (body layout
    /// owned by `sas-summaries::query`).
    pub const TAG_ESTIMATE: u16 = 50;

    /// Request: value-only range query against a dataset series — the
    /// legacy tag. The daemon answers it as a [`REQ_ESTIMATE`] of the same
    /// box at confidence 0.95 (same cache line, bit-identical value) and
    /// returns only the value; a box the estimate path rejects (more axes
    /// than the summary has, say) gets an error response.
    pub const REQ_QUERY: u16 = 64;
    /// Request: ingest a batch summary frame into a time window.
    pub const REQ_INGEST: u16 = 65;
    /// Request: list the catalog's windows.
    pub const REQ_LIST: u16 = 66;
    /// Request: store statistics.
    pub const REQ_STATS: u16 = 67;
    /// Request: clean daemon shutdown.
    pub const REQ_SHUTDOWN: u16 = 68;
    /// Request: estimate a [`TAG_QUERY`] query against a dataset series,
    /// answered with a [`TAG_ESTIMATE`]-shaped body (value + error bounds).
    /// The older [`REQ_QUERY`] tag remains answered for compatibility.
    pub const REQ_ESTIMATE: u16 = 69;
    /// Request: liveness probe. The daemon answers from its event loop
    /// without touching the store, so a ping measures loop responsiveness
    /// even while workers are saturated.
    pub const REQ_PING: u16 = 70;
    /// Request: snapshot the daemon's metrics registry (counters plus
    /// latency histograms). Answered with a [`RESP_OK`] body holding the
    /// full registry; see `sas-store`'s wire module for the layout.
    pub const REQ_METRICS: u16 = 71;
    /// Request: like [`REQ_ESTIMATE`] but the answer also carries a
    /// coverage report — which parts of the requested time span were
    /// missing or expired. The older tags stay answered bit-identically.
    pub const REQ_ESTIMATE_COV: u16 = 72;
    /// Request: register a live subscription for a canonical query on this
    /// connection. Acknowledged with a watch id; incremental updates then
    /// arrive as unsolicited [`RESP_PUSH`] frames.
    pub const REQ_WATCH: u16 = 73;
    /// Request: install (or clear) the lifecycle policy of a dataset.
    pub const REQ_POLICY_SET: u16 = 74;
    /// Request: read back the installed lifecycle policies.
    pub const REQ_POLICY_SHOW: u16 = 75;

    /// Response: success; body layout depends on the request kind.
    pub const RESP_OK: u16 = 80;
    /// Response: failure; body is one section holding a message string.
    pub const RESP_ERR: u16 = 81;
    /// Response: load shed — the daemon refused the request (connection
    /// limit or per-dataset admission control); body is one section holding
    /// a reason string. An overloaded daemon answers BUSY explicitly rather
    /// than silently dropping the connection.
    pub const RESP_BUSY: u16 = 82;
    /// Unsolicited push: an incremental estimate for a registered watch.
    /// Never sent in reply to a request — it carries the watch id it
    /// belongs to instead of a request sequence number.
    pub const RESP_PUSH: u16 = 83;

    /// Hard cap on a single protocol message (frame bytes). A batch of a
    /// few million sample entries fits; a corrupted length prefix cannot
    /// force an unbounded allocation.
    pub const MAX_MESSAGE_LEN: u32 = 256 * 1024 * 1024;

    /// Writes one length-prefixed frame to a stream.
    pub fn write_message(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
        let len: u32 = frame
            .len()
            .try_into()
            .ok()
            .filter(|&n| n <= MAX_MESSAGE_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("message of {} bytes exceeds the protocol cap", frame.len()),
                )
            })?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(frame)?;
        w.flush()
    }

    /// Reads one length-prefixed frame from a stream. Returns `Ok(None)` on
    /// a clean EOF at a message boundary (peer closed the connection).
    pub fn read_message(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        let mut len_bytes = [0u8; 4];
        match r.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_MESSAGE_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message length {len} exceeds the protocol cap"),
            ));
        }
        let mut frame = vec![0u8; len as usize];
        r.read_exact(&mut frame)?;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        encode_frame(7, |w| {
            w.section(1, |w| {
                w.put_u64(3);
                w.put_f64(2.5);
            });
            w.section(2, |w| {
                w.put_bytes(b"abc");
            });
        })
    }

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn frame_roundtrip() {
        let bytes = sample_frame();
        let mut frame = open_frame(&bytes).unwrap();
        assert_eq!(frame.kind, 7);
        let mut s1 = frame.body.expect_section(1).unwrap();
        assert_eq!(s1.get_u64().unwrap(), 3);
        assert_eq!(s1.get_f64().unwrap(), 2.5);
        assert!(s1.finish().is_ok());
        let mut s2 = frame.body.expect_section(2).unwrap();
        assert_eq!(s2.get_bytes(3).unwrap(), b"abc");
        assert!(frame.body.finish().is_ok());
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample_frame();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                open_frame(&corrupt).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_frame();
        for len in 0..bytes.len() {
            assert!(
                open_frame(&bytes[..len]).is_err(),
                "prefix of {len} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = sample_frame();
        bytes.push(0);
        assert!(open_frame(&bytes).is_err());
    }

    #[test]
    fn wrong_version_with_valid_checksum_is_rejected() {
        let mut bytes = sample_frame();
        bytes[4] = 99; // version low byte
        let crc = crc32(&bytes[..bytes.len() - TRAILER_LEN]);
        let at = bytes.len() - TRAILER_LEN;
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            open_frame(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn wrong_magic_with_valid_checksum_is_rejected() {
        let mut bytes = sample_frame();
        bytes[0] = b'X';
        let crc = crc32(&bytes[..bytes.len() - TRAILER_LEN]);
        let at = bytes.len() - TRAILER_LEN;
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open_frame(&bytes).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn corrupted_length_cannot_force_huge_allocation() {
        // get_len validates against remaining bytes: u64::MAX never reaches
        // Vec::with_capacity.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_len(8).is_err());
    }

    #[test]
    fn non_finite_f64_rejected() {
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        w.put_f64(f64::INFINITY);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_finite_f64().is_err());
        assert!(r.get_finite_f64().is_err());
        assert_eq!(r.get_finite_f64().unwrap(), 1.0);
    }

    #[test]
    fn wrong_section_id_rejected() {
        let bytes = sample_frame();
        let mut frame = open_frame(&bytes).unwrap();
        assert!(frame.body.expect_section(9).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn string_roundtrip_and_rejection() {
        let mut w = Writer::new();
        w.put_str("déjà vu");
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "déjà vu");
        assert_eq!(r.get_str().unwrap(), "");
        assert!(r.finish().is_ok());
        // Truncated length and invalid UTF-8 both fail cleanly.
        let mut short = Reader::new(&bytes[..4]);
        assert!(short.get_str().is_err());
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bad = w.into_bytes();
        assert!(Reader::new(&bad).get_str().is_err());
    }

    #[test]
    fn stream_messages_roundtrip() {
        let frames = [sample_frame(), encode_frame(proto::REQ_LIST, |_| {})];
        let mut wire = Vec::new();
        for f in &frames {
            proto::write_message(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            let got = proto::read_message(&mut cursor).unwrap().expect("a frame");
            assert_eq!(&got, f);
        }
        // Clean EOF at a boundary is None, not an error.
        assert!(proto::read_message(&mut cursor).unwrap().is_none());
        // EOF mid-message is an error.
        let mut torn = &wire[..wire.len() - 1];
        proto::read_message(&mut torn).unwrap();
        assert!(proto::read_message(&mut torn).is_err());
        // A hostile length prefix is rejected before allocation.
        let huge = u32::MAX.to_le_bytes();
        assert!(proto::read_message(&mut &huge[..]).is_err());
    }

    #[test]
    fn proto_tags_avoid_summary_tag_space() {
        // Summary kinds use low tags; manifest and protocol tags must never
        // collide with them (or each other).
        let tags = [
            proto::TAG_MANIFEST,
            proto::REQ_QUERY,
            proto::REQ_INGEST,
            proto::REQ_LIST,
            proto::REQ_STATS,
            proto::REQ_SHUTDOWN,
            proto::REQ_ESTIMATE,
            proto::REQ_PING,
            proto::REQ_METRICS,
            proto::RESP_OK,
            proto::RESP_ERR,
            proto::RESP_BUSY,
        ];
        let unique: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(unique.len(), tags.len());
        assert!(tags.iter().all(|&t| t >= 32));
    }

    #[test]
    fn is_frame_sniffs_magic() {
        assert!(is_frame(&sample_frame()));
        assert!(!is_frame(b"#sas-summary tau=1 dims=1"));
        assert!(!is_frame(b"SA"));
    }
}
