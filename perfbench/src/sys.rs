//! Linux process accounting read from `/proc`, plus the host descriptor
//! every result is stamped with. Std only: the few libc calls needed are
//! declared here.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Daemons currently running, for the watchdog.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

pub fn track_child(pid: u32) {
    CHILDREN.lock().expect("child list").push(pid);
}

pub fn untrack_child(pid: u32) {
    CHILDREN.lock().expect("child list").retain(|&p| p != pid);
}

/// Kills every tracked daemon (the watchdog's last resort).
pub fn kill_children() {
    let pids = CHILDREN.lock().map(|c| c.clone()).unwrap_or_default();
    for pid in pids {
        // SAFETY: kill(2) takes plain integers; at worst it fails with
        // ESRCH for a process that already exited.
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second used by `/proc/*/stat` CPU times.
pub fn clock_ticks_per_sec() -> f64 {
    // SAFETY: sysconf takes an integer selector and has no memory-safety
    // preconditions; an unknown selector returns -1, handled below.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// `(comm, utime + stime in ticks)` from a `stat` file. The command name
/// may contain spaces and parentheses, so fields are split after the last
/// `)`.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    let fields: Vec<&str> = text[close + 2..].split_whitespace().collect();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Process CPU time (user + system) in seconds.
pub fn process_cpu_s(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0.0, |(_, ticks)| ticks as f64 / clock_ticks_per_sec())
}

/// Per-thread CPU seconds, keyed by thread name (`comm`, which Linux
/// truncates to 15 bytes).
pub fn thread_cpu_s(pid: u32) -> Vec<(String, f64)> {
    let hz = clock_ticks_per_sec();
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out: Vec<(String, f64)> = tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("stat")).ok())
        .filter_map(|t| parse_stat(&t))
        .map(|(comm, ticks)| (comm, ticks as f64 / hz))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// CPU seconds of the calling thread.
pub fn current_thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0.0, |(_, ticks)| ticks as f64 / clock_ticks_per_sec())
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`: the
/// time a hypervisor ran someone else on this guest's CPUs.
pub fn steal_and_total() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family syscalls (`wchar`).
pub fn self_wchar() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Copies a directory tree (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = right.split_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |b| b.1)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's Rust sources and lock file, in path
/// order: identifies the code under test where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, files),
                Ok(t) if t.is_file() && p.extension().is_some_and(|x| x == "rs" || x == "toml") => {
                    files.push(p)
                }
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["src", "crates", "perfbench/src"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for &b in fs::read(&f).unwrap_or_default().iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The host descriptor: `(key, value)` pairs in print order.
pub fn host_descriptor(store_dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("filesystem", filesystem_of(store_dir)),
        ("rustc", command_line("rustc", &["--version"])),
        // Only this checkout's own metadata: git must not search parents.
        (
            "git_commit",
            command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        ),
        ("source_digest", source_digest(Path::new("."))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_odd_thread_names() {
        let line = "42 (sas (x) y) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0";
        assert_eq!(parse_stat(line), Some(("sas (x) y".into(), 267)));
    }

    #[test]
    fn own_process_is_visible() {
        assert!(peak_rss_mib(std::process::id()) > 0.0);
        assert!(process_cpu_s(std::process::id()) >= 0.0);
        assert!(!thread_cpu_s(std::process::id()).is_empty());
    }
}
