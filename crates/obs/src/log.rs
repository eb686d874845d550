//! Leveled structured logger: single-line `key=value` records on stderr.
//!
//! The level comes from `SAS_LOG` (`warn`, `info`, or `debug`; default
//! `warn`) and is cached in an atomic after the first check, so a
//! disabled [`slog!`](crate::slog) call is one relaxed load and a branch —
//! no formatting, no allocation, no syscall. Enabled records are rendered
//! into one `String` and written with a single `write_all`, so concurrent
//! threads never interleave mid-line.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Log severity, ordered so that a numeric comparison is a level check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

const LEVEL_UNSET: u8 = 0;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env() -> Level {
    match std::env::var("SAS_LOG").as_deref() {
        Ok("debug") => Level::Debug,
        Ok("info") => Level::Info,
        // Unknown values degrade to the default rather than erroring:
        // logging config must never take the daemon down.
        _ => Level::Warn,
    }
}

/// The active log level (reads `SAS_LOG` once, then a relaxed load).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let l = level_from_env();
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Overrides the level programmatically (tests, `--metrics-every` dumps).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when records at `l` should be emitted.
pub fn enabled(l: Level) -> bool {
    l <= level()
}

fn start_instant() -> Instant {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Renders and writes one record. Called by [`slog!`](crate::slog) only
/// after the level check passed; `args` carries the already-formatted
/// `key=value` tail.
pub fn emit(l: Level, event: &str, args: std::fmt::Arguments<'_>) {
    let line = render(start_instant().elapsed().as_secs_f64(), l, event, args);
    // One write_all keeps concurrent records line-atomic; a failed write
    // (closed stderr) is ignored — logging must never kill the daemon.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// The record line for an event at `t` seconds since the first record.
fn render(t: f64, l: Level, event: &str, args: std::fmt::Arguments<'_>) -> String {
    format!("t={t:.3} level={} event={event}{args}\n", l.as_str())
}

/// Emits a single-line structured log record:
///
/// ```
/// use sas_obs::{slog, Level};
/// sas_obs::set_level(Level::Info);
/// slog!(Level::Info, "compaction_done", dataset = "web", merged = 3);
/// ```
///
/// Values use their `Display` impls; quote free-form strings at the call
/// site with `{:?}`-style wrappers (e.g. `err = format_args!("{e:?}")`)
/// when they may contain spaces. When the level is disabled the argument
/// expressions are never evaluated.
#[macro_export]
macro_rules! slog {
    ($lvl:expr, $event:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($lvl) {
            $crate::emit(
                $lvl,
                $event,
                ::core::format_args!(
                    concat!($(" ", stringify!($k), "={}"),*)
                    $(, $v)*
                ),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises the tests that set the process-wide level, so one test's
    /// `set_level` never flips the gate under another.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    fn lock_level() -> std::sync::MutexGuard<'static, ()> {
        LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn levels_order_and_gate() {
        let _g = lock_level();
        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Info));
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
    }

    #[test]
    fn disabled_records_do_not_evaluate_arguments() {
        let _g = lock_level();
        set_level(Level::Warn);
        let mut evaluated = false;
        slog!(
            Level::Debug,
            "never",
            x = {
                evaluated = true;
                1
            }
        );
        assert!(!evaluated, "disabled slog! must not evaluate its values");
    }

    #[test]
    fn emit_formats_key_value_tails() {
        // Rendered rather than emitted: a raw stderr write is not captured
        // by the test harness and would split its progress lines.
        let line = render(
            1.5,
            Level::Warn,
            "test_event",
            format_args!(" a={} b={}", 1, "two"),
        );
        assert_eq!(line, "t=1.500 level=warn event=test_event a=1 b=two\n");
    }
}
