//! Crash-safe file persistence: every frame (window, manifest, batch log
//! rewrite, or CLI `--out`) is written to a temp file in the destination
//! directory, fsync'd, and atomically `rename`d into place, and the rename
//! is made durable by fsyncing the directory that holds it. A reader can
//! never observe a torn frame — it sees either the old bytes or the new
//! bytes, completely — and once the call returns, a crash cannot undo it.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Infix marking an in-flight temp file: [`write_atomic`] writes
/// `<name>` through `<name>.tmp-<pid>-<n>`, and a file of that shape is
/// garbage left by a crash, swept by [`remove_temp_files`].
pub const TEMP_INFIX: &str = ".tmp-";

/// Writes `bytes` to `path` atomically: temp file in the same directory
/// (rename is only atomic within a filesystem), flushed and fsync'd, then
/// renamed over the destination, then the directory fsync'd so the new
/// name survives a crash. Parent directories are created as needed (see
/// [`create_dirs`]).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes))
}

/// [`write_atomic`] with the contents streamed by `fill` into a buffered
/// writer over the temp file, so a large file is never held in memory.
pub fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    create_dirs(parent)?;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    let mut temp_name = file_name;
    temp_name.push(format!("{TEMP_INFIX}{}-{id}", std::process::id()));
    let temp_path = path.with_file_name(temp_name);
    let result = (|| {
        let mut w = BufWriter::new(fs::File::create(&temp_path)?);
        fill(&mut w)?;
        let f = w.into_inner().map_err(|e| e.into_error())?;
        f.sync_all()?;
        fs::rename(&temp_path, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&temp_path);
        return result;
    }
    sync_dir(parent)
}

/// Fsyncs a directory, making the names created, renamed or removed in it
/// durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// `create_dir_all` that leaves every directory it creates durable: each
/// new directory's parent is fsync'd after the directory appears in it.
/// Existing directories cost one `metadata` call.
pub fn create_dirs(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        create_dirs(parent)?;
    }
    match fs::create_dir(dir) {
        Ok(()) => {}
        // Another writer made it first; its creator syncs the parent.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => return Ok(()),
        Err(e) => return Err(e),
    }
    match dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => sync_dir(parent),
        None => Ok(()),
    }
}

/// Recursively removes leftover temp files under `dir` (crash debris): the
/// files [`write_atomic`] names `<name>.tmp-<pid>-<n>`, for each
/// destination `<name>` that `owned` claims. Returns how many were swept.
pub fn remove_temp_files(dir: &Path, owned: impl Fn(&Path) -> bool) -> io::Result<u64> {
    let mut removed = 0;
    for path in walk_files(dir)? {
        if temp_destination(&path).is_some_and(|dest| owned(&dest)) {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The destination a temp file of [`write_atomic`] stands in for, or
/// `None` if `path` is not named like one.
fn temp_destination(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_str()?;
    let (base, suffix) = name.split_once(TEMP_INFIX)?;
    let (pid, n) = suffix.split_once('-')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (digits(pid) && digits(n)).then(|| path.with_file_name(base))
}

/// All regular files under `dir`, recursively, in sorted order (so every
/// directory scan in the store is deterministic).
pub fn walk_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sas-fsio-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_creates_parents_and_replaces() {
        let dir = temp_dir("basic");
        let path = dir.join("a/b/frame.sas");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        // No temp debris left behind.
        assert_eq!(remove_temp_files(&dir, |_| true).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_debris_is_swept_and_never_tears_the_original() {
        let dir = temp_dir("debris");
        let path = dir.join("frame.sas");
        write_atomic(&path, b"intact").unwrap();
        // Simulate a crash mid-write: a truncated temp file next to the
        // destination, never renamed.
        let torn = dir.join(format!("frame.sas{TEMP_INFIX}999-0"));
        fs::write(&torn, b"in").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"intact", "original untouched");
        // Temp-like files of names the caller does not own stay.
        let foreign = [
            dir.join(format!("notes.txt{TEMP_INFIX}1-2")),
            dir.join(format!("frame.sas{TEMP_INFIX}draft")),
        ];
        for f in &foreign {
            fs::write(f, b"keep").unwrap();
        }
        assert_eq!(remove_temp_files(&dir, |dest| dest == path).unwrap(), 1);
        assert!(!torn.exists());
        assert!(foreign.iter().all(|f| f.exists()));
        assert_eq!(fs::read(&path).unwrap(), b"intact");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn walk_is_recursive_and_sorted() {
        let dir = temp_dir("walk");
        fs::create_dir_all(dir.join("z")).unwrap();
        fs::write(dir.join("z/2.sas"), b"x").unwrap();
        fs::write(dir.join("1.sas"), b"x").unwrap();
        let files = walk_files(&dir).unwrap();
        assert_eq!(
            files,
            vec![dir.join("1.sas"), dir.join("z/2.sas")],
            "sorted, recursive"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
