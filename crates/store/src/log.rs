//! The batch log: one store-wide, append-only file of acknowledged
//! ingests.
//!
//! An ingest is made durable by appending one record and `sync_data`-ing
//! the file — no new file, rename or manifest rewrite. A record is a
//! `sas-codec` frame (tag [`proto::TAG_LOG_RECORD`], so it carries its own
//! length and CRC-32) holding everything replay needs:
//!
//! * section 1: dataset, summary kind tag, ingest tick, the window's batch
//!   index (how many batches the window held before this one), and the
//!   merge budget in force (a flag byte plus a `u64`);
//! * section 2: the batch's encoded summary frame.
//!
//! Records are concatenated with nothing between them. Reading stops at
//! the first record that is incomplete or fails its checksum — the torn
//! tail of an append a crash interrupted, which was never acknowledged —
//! provided no whole record follows it. There is one appender and it syncs
//! before acknowledging, so a crash tears only the last append: a whole
//! record after a bad one proves the bad one damaged, not torn, and that
//! is an error, as is a checksummed record that does not decode.
//! What counts a record as live or dead is the store's rule
//! ([`crate::Store::open`]); this module only frames, appends, reads and
//! rewrites.

use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use sas_codec::{encode_frame, open_frame, proto, CodecError, HEADER_LEN, MAGIC, TRAILER_LEN};
use sas_summaries::SummaryKind;

use crate::fsio;
use crate::window::{valid_dataset, WindowKey};

/// One decoded log record, with its raw bytes (a rewrite copies them
/// verbatim).
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Dataset the batch was ingested into.
    pub dataset: String,
    /// Summary kind of the batch.
    pub kind: SummaryKind,
    /// Ingest tick.
    pub ts: u64,
    /// Batches the window held before this one: the merge seed's counter.
    pub index: u64,
    /// Merge budget in force when the batch was ingested.
    pub budget: Option<usize>,
    bytes: Vec<u8>,
    frame: std::ops::Range<usize>,
}

impl LogRecord {
    /// The minute window the batch landed in.
    pub fn key(&self) -> WindowKey {
        WindowKey::minute(&self.dataset, self.kind, self.ts)
    }

    /// The batch's encoded summary frame.
    pub fn frame(&self) -> &[u8] {
        &self.bytes[self.frame.clone()]
    }

    /// The whole record as it sits in the log.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes one record (never panics on corrupted input).
    pub fn decode(bytes: Vec<u8>) -> Result<LogRecord, CodecError> {
        let mut frame = open_frame(&bytes)?;
        if frame.kind != proto::TAG_LOG_RECORD {
            return Err(CodecError::UnknownKind(frame.kind));
        }
        let mut meta = frame.body.expect_section(1)?;
        let dataset = meta.get_str()?;
        if !valid_dataset(&dataset) {
            return Err(CodecError::Invalid(format!(
                "log dataset '{dataset}' is not a valid dataset name"
            )));
        }
        let tag = meta.get_u16()?;
        let kind = SummaryKind::from_tag(tag).ok_or(CodecError::UnknownKind(tag))?;
        let ts = meta.get_u64()?;
        let index = meta.get_u64()?;
        let budget = match (meta.get_u8()?, meta.get_u64()?) {
            (0, 0) => None,
            (1, b) => Some(
                usize::try_from(b)
                    .map_err(|_| CodecError::Invalid(format!("log budget {b} overflows")))?,
            ),
            (flag, b) => {
                return Err(CodecError::Invalid(format!(
                    "log budget flag {flag} with value {b}"
                )))
            }
        };
        meta.finish()?;
        let batch = frame.body.expect_section(2)?;
        let len = batch.remaining();
        frame.body.finish()?;
        // The batch frame is the last payload before the CRC trailer.
        let end = bytes.len() - TRAILER_LEN;
        Ok(LogRecord {
            dataset,
            kind,
            ts,
            index,
            budget,
            frame: end - len..end,
            bytes,
        })
    }
}

/// Encodes one record: batch `frame` ingested at `ts` into `key`'s window
/// as its batch number `index`, merged under `budget`.
pub fn encode_record(
    key: &WindowKey,
    ts: u64,
    index: u64,
    budget: Option<usize>,
    frame: &[u8],
) -> Vec<u8> {
    encode_frame(proto::TAG_LOG_RECORD, |w| {
        w.section(1, |w| {
            w.put_str(&key.dataset);
            w.put_u16(key.kind.tag());
            w.put_u64(ts);
            w.put_u64(index);
            w.put_u8(budget.is_some() as u8);
            w.put_u64(budget.map_or(0, |b| b as u64));
        });
        w.section(2, |w| w.put_bytes(frame));
    })
}

/// Streams the records of a log file in order. A missing file reads as an
/// empty log.
#[derive(Debug)]
pub struct LogReader {
    input: Option<BufReader<File>>,
    /// File length when opened.
    len: u64,
    /// End of the last complete, checksummed record.
    valid: u64,
}

impl LogReader {
    /// Opens `path` for reading.
    pub fn open(path: &Path) -> io::Result<LogReader> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(LogReader {
                    input: None,
                    len: 0,
                    valid: 0,
                })
            }
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        Ok(LogReader {
            input: Some(BufReader::new(file)),
            len,
            valid: 0,
        })
    }

    /// Bytes of complete records read so far; after the last record, the
    /// length of the log's valid prefix.
    pub fn valid_len(&self) -> u64 {
        self.valid
    }

    /// Bytes past the valid prefix: a torn tail. Meaningful once
    /// [`LogReader::next_record`] has returned `None`.
    pub fn torn_bytes(&self) -> u64 {
        self.len - self.valid
    }

    /// The next record, `None` at the end of the valid prefix.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, LogError> {
        let Some(input) = self.input.as_mut() else {
            return Ok(None);
        };
        let rest = self.len - self.valid;
        let mut header = [0u8; HEADER_LEN];
        if rest < (HEADER_LEN + TRAILER_LEN) as u64 {
            self.input = None;
            return Ok(None);
        }
        // Lengths are checked against the file's, so a failed read is an
        // I/O error, never the end of the log.
        input.read_exact(&mut header).map_err(LogError::Io)?;
        let body = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let total = body.checked_add((HEADER_LEN + TRAILER_LEN) as u64);
        // The declared length is trusted only as far as the file reaches,
        // so a torn header can never drive a large allocation.
        let Some(total) = total.filter(|&t| header[..4] == MAGIC && t <= rest) else {
            return self.end("bad magic or length");
        };
        let mut bytes = vec![0u8; total as usize];
        bytes[..HEADER_LEN].copy_from_slice(&header);
        input
            .read_exact(&mut bytes[HEADER_LEN..])
            .map_err(LogError::Io)?;
        match LogRecord::decode(bytes) {
            Ok(record) => {
                self.valid += total;
                Ok(Some(record))
            }
            Err(CodecError::ChecksumMismatch) => self.end("checksum mismatch"),
            Err(e) => Err(LogError::Corrupt(self.valid, e)),
        }
    }

    /// Ends the log at the record at `valid_len`, which failed for `why`:
    /// a torn tail when no whole record follows it, corruption otherwise.
    fn end(&mut self, why: &str) -> Result<Option<LogRecord>, LogError> {
        let Some(input) = self.input.take() else {
            return Ok(None);
        };
        match record_after(input.get_ref(), self.valid + 1, self.len).map_err(LogError::Io)? {
            None => Ok(None),
            Some(next) => Err(LogError::Corrupt(
                self.valid,
                CodecError::Invalid(format!("{why}, but a whole record follows at byte {next}")),
            )),
        }
    }
}

/// The offset of the first whole log record (magic, length, checksum and
/// tag [`proto::TAG_LOG_RECORD`]) that starts in `file` at or after `from`
/// and ends by `len`. A torn record can hold a complete batch frame, whose
/// tag differs, so that never counts. Streams the file in chunks, so a
/// scan over a long log holds no more than one chunk and one candidate.
fn record_after(file: &File, from: u64, len: u64) -> io::Result<Option<u64>> {
    const CHUNK: usize = 64 * 1024;
    let min = (HEADER_LEN + TRAILER_LEN) as u64;
    let mut chunk = vec![0u8; CHUNK];
    let mut at = from;
    while at + min <= len {
        let n = usize::try_from(len - at).map_or(CHUNK, |rest| rest.min(CHUNK));
        file.read_exact_at(&mut chunk[..n], at)?;
        for i in (0..n + 1 - MAGIC.len()).filter(|&i| chunk[i..i + MAGIC.len()] == MAGIC) {
            let start = at + i as u64;
            if start + min > len {
                return Ok(None);
            }
            let mut header = [0u8; HEADER_LEN];
            file.read_exact_at(&mut header, start)?;
            let tag = u16::from_le_bytes([header[6], header[7]]);
            let body = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
            let fits = body.checked_add(min).filter(|&t| t <= len - start);
            let Some(total) = fits.filter(|_| tag == proto::TAG_LOG_RECORD) else {
                continue;
            };
            let mut bytes = vec![0u8; total as usize];
            file.read_exact_at(&mut bytes, start)?;
            if open_frame(&bytes).is_ok_and(|f| f.kind == proto::TAG_LOG_RECORD) {
                return Ok(Some(start));
            }
        }
        // Overlap by all but one magic byte, so a magic split across two
        // chunks is still seen, and none is seen twice.
        at += (n + 1 - MAGIC.len()) as u64;
    }
    Ok(None)
}

/// Why a log could not be read.
#[derive(Debug)]
pub enum LogError {
    /// The file could not be read.
    Io(io::Error),
    /// The record at this offset is damaged: it passes its checksum but
    /// does not decode, or it fails its checksum (or framing) and a whole
    /// record follows it, so it cannot be a torn tail.
    Corrupt(u64, CodecError),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "{e}"),
            LogError::Corrupt(at, e) => write!(f, "log record at byte {at}: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

/// The open, appendable batch log.
#[derive(Debug)]
pub struct BatchLog {
    path: PathBuf,
    file: File,
    /// Bytes of records in the file; the next append lands here.
    len: u64,
    /// Records in the file.
    records: u64,
    /// Set by a failed append: what the file holds past `len` is unknown,
    /// so nothing more may be appended until the store is reopened.
    poisoned: bool,
}

impl BatchLog {
    /// Opens the log at `path` for appending after its valid prefix of
    /// `len` bytes and `records` records, cutting off any torn tail. A
    /// missing log is created empty, durably.
    pub fn open(path: &Path, len: u64, records: u64) -> io::Result<BatchLog> {
        if !path.exists() {
            fsio::write_atomic(path, &[])?;
        }
        let file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() != len {
            file.set_len(len)?;
            file.sync_data()?;
        }
        Ok(BatchLog {
            path: path.to_path_buf(),
            file,
            len,
            records,
            poisoned: false,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of records in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one encoded record and `sync_data`s it: when this returns
    /// `Ok`, the record survives a crash. On failure the log refuses every
    /// later append (reopen the store to recover from what the file holds).
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "the batch log failed an earlier append; reopen the store",
            ));
        }
        let result = self
            .file
            .write_all_at(record, self.len)
            .and_then(|()| self.file.sync_data());
        match result {
            Ok(()) => {
                self.len += record.len() as u64;
                self.records += 1;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Rewrites the log with only the records `keep` accepts, in order,
    /// streaming from the old file into a temp file that is then renamed
    /// over it ([`fsio::write_atomic_with`]). Returns the records dropped.
    pub fn rewrite(&mut self, keep: impl Fn(&LogRecord) -> bool) -> Result<u64, LogError> {
        let mut reader = LogReader::open(&self.path).map_err(LogError::Io)?;
        // Only the valid prefix this handle appended to is rewritten.
        reader.len = reader.len.min(self.len);
        let (mut len, mut records, mut dropped) = (0u64, 0u64, 0u64);
        let mut failed = None;
        fsio::write_atomic_with(&self.path, |w: &mut dyn Write| loop {
            match reader.next_record() {
                Ok(Some(record)) if keep(&record) => {
                    w.write_all(record.bytes())?;
                    len += record.bytes().len() as u64;
                    records += 1;
                }
                Ok(Some(_)) => dropped += 1,
                Ok(None) => return Ok(()),
                Err(e) => {
                    failed = Some(e);
                    return Err(io::Error::other("unreadable log record"));
                }
            }
        })
        .map_err(|e| {
            // The rename may have happened before the failure: this handle
            // could point at the replaced file, so stop appending through it.
            self.poisoned = true;
            failed.take().unwrap_or(LogError::Io(e))
        })?;
        *self = BatchLog::open(&self.path, len, records).map_err(|e| {
            self.poisoned = true;
            LogError::Io(e)
        })?;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ts: u64) -> WindowKey {
        WindowKey::minute("web", SummaryKind::Sample, ts)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sas-log-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_all(path: &Path) -> (Vec<LogRecord>, LogReader) {
        let mut reader = LogReader::open(path).unwrap();
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        (out, reader)
    }

    #[test]
    fn records_roundtrip_every_field() {
        for budget in [None, Some(0), Some(64), Some(usize::MAX)] {
            let bytes = encode_record(&key(125), 125, 7, budget, b"frame bytes");
            let r = LogRecord::decode(bytes.clone()).unwrap();
            assert_eq!(
                (r.dataset.as_str(), r.kind, r.ts),
                ("web", SummaryKind::Sample, 125)
            );
            assert_eq!((r.index, r.budget), (7, budget));
            assert_eq!(r.frame(), b"frame bytes");
            assert_eq!(r.bytes(), &bytes[..]);
            assert_eq!(r.key(), key(120));
        }
    }

    #[test]
    fn corrupted_records_are_rejected_not_panicking() {
        let bytes = encode_record(&key(5), 5, 0, Some(3), b"xyz");
        for len in 0..bytes.len() {
            assert!(
                LogRecord::decode(bytes[..len].to_vec()).is_err(),
                "prefix {len}"
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(LogRecord::decode(corrupt).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn a_missing_log_reads_empty_and_opens_durably_empty() {
        let dir = temp_dir("missing");
        let path = dir.join("LOG.sas");
        let (records, reader) = read_all(&path);
        assert!(records.is_empty() && reader.torn_bytes() == 0);
        let log = BatchLog::open(&path, 0, 0).unwrap();
        assert!(log.is_empty());
        assert_eq!(fs::read(&path).unwrap(), b"");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_stops_at_a_torn_tail_and_open_cuts_it_off() {
        let dir = temp_dir("torn");
        let path = dir.join("LOG.sas");
        let mut log = BatchLog::open(&path, 0, 0).unwrap();
        let records: Vec<Vec<u8>> = (0..3u64)
            .map(|i| encode_record(&key(i * 60), i * 60, 0, None, &[i as u8; 40]))
            .collect();
        for r in &records {
            log.append(r).unwrap();
        }
        let full = fs::read(&path).unwrap();
        let second_end = (records[0].len() + records[1].len()) as u64;
        for cut in second_end..full.len() as u64 {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let (got, reader) = read_all(&path);
            assert_eq!(got.len(), 2, "cut {cut}");
            assert_eq!(reader.valid_len(), second_end);
            assert_eq!(reader.torn_bytes(), cut - second_end);
        }
        // A flipped byte in the last record ends the log before it.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 1;
        fs::write(&path, &flipped).unwrap();
        let (got, reader) = read_all(&path);
        assert_eq!((got.len(), reader.valid_len()), (2, second_end));
        // Reopening for append truncates to the valid prefix.
        let mut log = BatchLog::open(&path, second_end, 2).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), second_end);
        log.append(&records[2]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), full);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_keeps_the_accepted_records_in_order() {
        let dir = temp_dir("rewrite");
        let path = dir.join("LOG.sas");
        let mut log = BatchLog::open(&path, 0, 0).unwrap();
        let records: Vec<Vec<u8>> = (0..6u64)
            .map(|i| encode_record(&key(i), i, i, None, &[i as u8; 10]))
            .collect();
        for r in &records {
            log.append(r).unwrap();
        }
        assert_eq!(log.rewrite(|r| r.index % 2 == 1).unwrap(), 3);
        let kept: Vec<u8> = [&records[1][..], &records[3][..], &records[5][..]].concat();
        assert_eq!(fs::read(&path).unwrap(), kept);
        assert_eq!((log.records(), log.len()), (3, kept.len() as u64));
        // Appends continue after the rewritten records.
        log.append(&records[0]).unwrap();
        let (got, _) = read_all(&path);
        let order: Vec<u64> = got.iter().map(|r| r.index).collect();
        assert_eq!(order, vec![1, 3, 5, 0]);
        assert_eq!(fsio::remove_temp_files(&dir, |_| true).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
