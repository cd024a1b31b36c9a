//! The leveled structured logger behind [`error!`](crate::error!),
//! [`warn!`](crate::warn!), [`info!`](crate::info!), and
//! [`debug!`](crate::debug!).
//!
//! The maximum level comes from the `BS_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`; default `info`), read once
//! on first use; [`set_max_log_level`] overrides it programmatically.
//! Lines go to stderr as `[LEVEL target] message key=value …`, or —
//! with `BS_LOG_FORMAT=json` (or [`set_log_format`]) — as one JSON
//! object per line (`ts_ms`, `level`, `target`, `message`, `kvs`) so
//! logs are machine-ingestable alongside the trace export.
//!
//! Warn-or-worse records are additionally forwarded to the flight
//! recorder (when tracing is enabled), attributed to the current
//! trace span.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severities, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The pipeline cannot proceed as asked.
    Error = 1,
    /// Something is degraded but the pipeline continues.
    Warn = 2,
    /// Operator-facing progress (the default).
    Info = 3,
    /// Per-stage detail for debugging.
    Debug = 4,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }

    fn counter_name(self) -> &'static str {
        match self {
            Level::Error => "log.error",
            Level::Warn => "log.warn",
            Level::Info => "log.info",
            Level::Debug => "log.debug",
        }
    }
}

const LEVEL_OFF: u8 = 0;
const LEVEL_UNSET: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env() -> u8 {
    let parsed = match std::env::var("BS_LOG") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => LEVEL_OFF,
            "error" => Level::Error as u8,
            "warn" | "warning" => Level::Warn as u8,
            "info" => Level::Info as u8,
            "debug" | "trace" => Level::Debug as u8,
            _ => Level::Info as u8,
        },
        Err(_) => Level::Info as u8,
    };
    MAX_LEVEL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Override the maximum level (`None` silences the logger). Takes
/// precedence over `BS_LOG` from the moment it is called.
pub fn set_max_log_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(LEVEL_OFF), Ordering::Relaxed);
}

/// Whether events at `level` are currently emitted.
pub fn log_enabled(level: Level) -> bool {
    let mut max = MAX_LEVEL.load(Ordering::Relaxed);
    if max == LEVEL_UNSET {
        max = level_from_env();
    }
    level as u8 <= max
}

/// Log output encodings (see [`set_log_format`] / `BS_LOG_FORMAT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LogFormat {
    /// `[LEVEL target] message key=value …` (the default).
    Text = 0,
    /// One JSON object per line:
    /// `{"ts_ms":…,"level":"…","target":"…","message":"…","kvs":{…}}`.
    Json = 1,
}

const FORMAT_UNSET: u8 = u8::MAX;

static FORMAT: AtomicU8 = AtomicU8::new(FORMAT_UNSET);

fn format_from_env() -> u8 {
    let parsed = match std::env::var("BS_LOG_FORMAT") {
        Ok(v) if v.trim().eq_ignore_ascii_case("json") => LogFormat::Json as u8,
        _ => LogFormat::Text as u8,
    };
    FORMAT.store(parsed, Ordering::Relaxed);
    parsed
}

/// Override the output encoding. Takes precedence over
/// `BS_LOG_FORMAT` from the moment it is called.
pub fn set_log_format(format: LogFormat) {
    FORMAT.store(format as u8, Ordering::Relaxed);
}

fn current_format() -> LogFormat {
    let mut f = FORMAT.load(Ordering::Relaxed);
    if f == FORMAT_UNSET {
        f = format_from_env();
    }
    if f == LogFormat::Json as u8 {
        LogFormat::Json
    } else {
        LogFormat::Text
    }
}

/// Render one record in the given format (separated from the emission
/// path so both encodings are unit-testable).
fn render(
    format: LogFormat,
    ts_ms: u128,
    level: Level,
    target: &str,
    message: &str,
    kvs: &[(&str, String)],
) -> String {
    match format {
        LogFormat::Text => {
            let mut line = format!("[{} {}] {}", level.as_str(), target, message);
            for (k, v) in kvs {
                line.push(' ');
                line.push_str(k);
                line.push('=');
                line.push_str(v);
            }
            line
        }
        LogFormat::Json => {
            let mut line = format!(
                "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"target\":\"{}\",\"message\":\"{}\",\"kvs\":{{",
                level.as_str(),
                crate::json::escape(target),
                crate::json::escape(message)
            );
            for (i, (k, v)) in kvs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ =
                    write!(line, "\"{}\":\"{}\"", crate::json::escape(k), crate::json::escape(v));
            }
            line.push_str("}}");
            line
        }
    }
}

/// Emit one structured line. Callers go through the level macros, which
/// check [`log_enabled`] first.
pub fn log_emit(level: Level, target: &str, message: &str, kvs: &[(&str, String)]) {
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    eprintln!("{}", render(current_format(), ts_ms, level, target, message, kvs));
    if level <= Level::Warn && crate::trace::is_enabled() {
        // The flight recorder keeps warn-or-worse records with their
        // key=value pairs rendered into the message.
        let traced = render(LogFormat::Text, ts_ms, level, target, message, kvs);
        let stripped = traced.split_once("] ").map(|(_, m)| m).unwrap_or(&traced);
        crate::trace::record_log(level.as_str(), target, stripped);
    }
    crate::counter_add(level.counter_name(), 1);
}

/// Log at an explicit [`Level`]: `log_at!(level, target, fmt, args…;
/// key = value, …)`. The level macros are the usual entry points.
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, $target:expr, $fmt:literal $(, $arg:expr)* $(; $($k:ident = $v:expr),+ $(,)?)?) => {{
        let lvl = $lvl;
        if $crate::log_enabled(lvl) {
            $crate::log_emit(
                lvl,
                $target,
                &::std::format!($fmt $(, $arg)*),
                &[$($((::core::stringify!($k), ::std::format!("{}", $v))),+)?],
            );
        }
    }};
}

/// Log an error: `error!("target", "fmt {}", arg; key = value)`.
#[macro_export]
macro_rules! error {
    ($($t:tt)+) => { $crate::log_at!($crate::Level::Error, $($t)+) };
}

/// Log a warning: `warn!("target", "fmt {}", arg; key = value)`.
#[macro_export]
macro_rules! warn {
    ($($t:tt)+) => { $crate::log_at!($crate::Level::Warn, $($t)+) };
}

/// Log progress: `info!("target", "fmt {}", arg; key = value)`.
#[macro_export]
macro_rules! info {
    ($($t:tt)+) => { $crate::log_at!($crate::Level::Info, $($t)+) };
}

/// Log debug detail: `debug!("target", "fmt {}", arg; key = value)`.
#[macro_export]
macro_rules! debug {
    ($($t:tt)+) => { $crate::log_at!($crate::Level::Debug, $($t)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_level_filters_and_macros_expand() {
        let _g = crate::testutil::serial();
        set_max_log_level(Some(Level::Warn));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));

        // Every macro arity compiles and respects the filter.
        let n = 3;
        crate::error!("test", "plain");
        crate::warn!("test", "formatted {} and {n}", 7);
        crate::info!("test", "suppressed");
        crate::debug!("test", "suppressed {}", 1; k = 2);
        crate::error!("test", "with kvs"; records = n, window = "w0");
        crate::log_at!(Level::Warn, "test", "explicit level"; x = 1.5,);

        set_max_log_level(Some(Level::Debug));
        assert!(log_enabled(Level::Debug));
        set_max_log_level(None);
        assert!(!log_enabled(Level::Error));
        // Restore the default for other tests in this process.
        set_max_log_level(Some(Level::Info));
    }

    #[test]
    fn text_render_is_bracketed_with_kvs() {
        let line = render(
            LogFormat::Text,
            123,
            Level::Warn,
            "sensor",
            "window evicted",
            &[("records", "42".to_string()), ("window", "w3".to_string())],
        );
        assert_eq!(line, "[WARN sensor] window evicted records=42 window=w3");
    }

    #[test]
    fn json_render_is_one_parseable_object_per_line() {
        let line = render(
            LogFormat::Json,
            1700000000123,
            Level::Error,
            "core.pipeline",
            "bad \"input\"\nline",
            &[("path", "a\\b".to_string())],
        );
        assert!(!line.contains('\n'), "one object per line — escapes keep it single-line");
        let v = crate::json::parse(&line).expect("json log line parses");
        assert_eq!(v.get("ts_ms").and_then(|t| t.as_f64()), Some(1700000000123.0));
        assert_eq!(v.get("level").and_then(|l| l.as_str()), Some("ERROR"));
        assert_eq!(v.get("target").and_then(|t| t.as_str()), Some("core.pipeline"));
        assert_eq!(v.get("message").and_then(|m| m.as_str()), Some("bad \"input\"\nline"));
        assert_eq!(v.get("kvs").and_then(|k| k.get("path")).and_then(|p| p.as_str()), Some("a\\b"));
    }

    #[test]
    fn json_render_empty_kvs_is_valid() {
        let line = render(LogFormat::Json, 0, Level::Info, "t", "m", &[]);
        let v = crate::json::parse(&line).expect("parses");
        assert_eq!(v.get("kvs").and_then(|k| k.as_object()).map(<[_]>::len), Some(0));
    }

    #[test]
    fn set_log_format_overrides_env() {
        let _g = crate::testutil::serial();
        set_log_format(LogFormat::Json);
        assert_eq!(current_format(), LogFormat::Json);
        set_log_format(LogFormat::Text);
        assert_eq!(current_format(), LogFormat::Text);
    }

    #[test]
    fn emitted_events_count_when_registry_enabled() {
        let _g = crate::testutil::serial();
        crate::enable();
        set_max_log_level(Some(Level::Info));
        let before = crate::registry().counter("log.info").get();
        crate::info!("test", "counted event");
        let after = crate::registry().counter("log.info").get();
        assert!(after > before);
        // One call site in a loop: every line is emitted and counted.
        let warned_before = crate::registry().counter("log.warn").get();
        for i in 0..100 {
            crate::warn!("test.loop", "line {i}");
        }
        let warned = crate::registry().counter("log.warn").get() - warned_before;
        assert!(warned >= 100, "a loop of 100 warnings emitted {warned}");
    }
}
