//! Shared plumbing for the `sas` binary integration tests (smoke, golden,
//! persistence, daemon, atomic/info).
#![allow(dead_code)] // each test binary uses a different subset

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temp path that is removed when dropped. Uniqueness combines the
/// pid with a process-wide counter: tests run as parallel threads of one
/// process, so the pid alone would race on reused names.
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn create(name: &str, contents: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("sas-test-{}-{id}-{name}", std::process::id()));
        fs::write(&path, contents).expect("write temp file");
        TempFile(path)
    }

    pub fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// Runs the compiled `sas` binary, asserting the expected success/failure.
pub fn sas(args: &[&str], expect_success: bool) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sas"))
        .args(args)
        .output()
        .expect("failed to spawn sas binary");
    assert_eq!(
        out.status.success(),
        expect_success,
        "sas {args:?} exited with {:?}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    (
        String::from_utf8(out.stdout).expect("non-UTF-8 stdout"),
        String::from_utf8(out.stderr).expect("non-UTF-8 stderr"),
    )
}

/// Extracts a numeric `field: value` line from `sas info` output.
pub fn parse_info_field(info: &str, field: &str) -> f64 {
    info.lines()
        .find_map(|l| l.strip_prefix(&format!("{field}: ")))
        .unwrap_or_else(|| panic!("no '{field}:' line in info output:\n{info}"))
        .trim()
        .parse()
        .expect("numeric info field")
}

/// The point estimate of a box query against a summary.
pub fn box_value(s: &dyn sas_summaries::Summary, range: &[(u64, u64)]) -> f64 {
    s.answer(&sas_summaries::Query::BoxRange(range.to_vec()), 0.95)
        .expect("box query")
        .value
}
