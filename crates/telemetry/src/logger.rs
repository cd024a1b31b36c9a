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
//!
//! # Rate limiting
//!
//! Hot-path call sites can flood stderr under storm scenarios (one
//! eviction warning per record is a self-inflicted denial of service).
//! Every `log_at!` expansion therefore owns a per-call-site token
//! bucket ([`LogSite`]): a site may burst [`SITE_BURST`] lines, then
//! refills at [`SITE_REFILL_PER_SEC`] lines per second. Suppressed
//! lines are counted globally (`telemetry.log.suppressed`) and per
//! target (`telemetry.log.suppressed.<target>`, so `stats` can name
//! the flooding site), and the next line that passes is preceded by a
//! one-line summary of how many were
//! dropped, so floods stay diagnosable without being replayed.
//! `Error` lines always pass, and direct [`log_emit`] calls are never
//! limited.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

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

/// Lines a call site may emit back-to-back before the limiter engages.
pub const SITE_BURST: u64 = 32;
/// Steady-state lines per second a call site refills at.
pub const SITE_REFILL_PER_SEC: u64 = 16;

/// Milli-token scale: refill math stays in integers with sub-line
/// resolution (one line costs 1000 milli-tokens).
const MILLI: u64 = 1_000;
const BURST_MILLI: u64 = SITE_BURST * MILLI;
const REFILL_MILLI_PER_SEC: u64 = SITE_REFILL_PER_SEC * MILLI;

/// The per-call-site token bucket behind [`log_at!`](crate::log_at!). One static
/// instance is generated inside every macro expansion, so each textual
/// call site is limited independently — a flooding loop cannot starve
/// unrelated log lines elsewhere.
///
/// All state is relaxed atomics: a racing pair of threads may briefly
/// over- or under-count by a line, which is an acceptable price for
/// keeping the limiter lock-free on the logging hot path.
#[derive(Debug)]
pub struct LogSite {
    /// Milli-tokens available (starts at the full burst).
    tokens_milli: AtomicU64,
    /// Nanoseconds past `crate::epoch` of the last refill credit.
    last_refill_ns: AtomicU64,
    /// Lines suppressed since the last admitted line.
    suppressed: AtomicU64,
}

impl LogSite {
    /// A fresh bucket holding a full burst. `const` so `log_at!` can
    /// put one in a `static`.
    pub const fn new() -> Self {
        LogSite {
            tokens_milli: AtomicU64::new(BURST_MILLI),
            last_refill_ns: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Decide whether this site may emit a line right now. On
    /// admission returns `Some(n)` where `n` is the number of lines
    /// suppressed at this site since the previous admission (so the
    /// caller can surface the gap); on suppression returns `None`,
    /// bumps the site's tally, and advances both the global
    /// `telemetry.log.suppressed` counter and the per-site
    /// `telemetry.log.suppressed.<target>` counter. `Error` lines
    /// always pass.
    pub fn admit(&self, level: Level, target: &str) -> Option<u64> {
        if level == Level::Error {
            return Some(self.suppressed.swap(0, Ordering::Relaxed));
        }
        let now = crate::epoch().elapsed().as_nanos() as u64;
        let last = self.last_refill_ns.load(Ordering::Relaxed);
        let refill = (now.saturating_sub(last) as u128 * REFILL_MILLI_PER_SEC as u128
            / 1_000_000_000) as u64;
        // Claim the elapsed window only when it is worth at least one
        // milli-token — claiming shorter windows would discard the
        // accumulated fraction on every tight-loop iteration and the
        // bucket would never refill under sustained load.
        if refill > 0
            && self
                .last_refill_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let _ = self.tokens_milli.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some((t + refill).min(BURST_MILLI))
            });
        }
        let took = self.tokens_milli.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
            if t >= MILLI {
                Some(t - MILLI)
            } else {
                None
            }
        });
        match took {
            Ok(_) => Some(self.suppressed.swap(0, Ordering::Relaxed)),
            Err(_) => {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                crate::counter_add("telemetry.log.suppressed", 1);
                // Already on the slow (suppressed) path, so the
                // per-site name allocation is acceptable.
                crate::counter_add(&format!("telemetry.log.suppressed.{target}"), 1);
                None
            }
        }
    }
}

impl Default for LogSite {
    fn default() -> Self {
        LogSite::new()
    }
}

/// Log at an explicit [`Level`]: `log_at!(level, target, fmt, args…;
/// key = value, …)`. The level macros are the usual entry points.
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, $target:expr, $fmt:literal $(, $arg:expr)* $(; $($k:ident = $v:expr),+ $(,)?)?) => {{
        let lvl = $lvl;
        if $crate::log_enabled(lvl) {
            static __BS_LOG_SITE: $crate::LogSite = $crate::LogSite::new();
            if let ::core::option::Option::Some(suppressed) = __BS_LOG_SITE.admit(lvl, $target) {
                if suppressed > 0 {
                    $crate::log_emit(
                        lvl,
                        $target,
                        &::std::format!(
                            "(rate limiter: {suppressed} earlier lines from this call site suppressed)"
                        ),
                        &[],
                    );
                }
                $crate::log_emit(
                    lvl,
                    $target,
                    &::std::format!($fmt $(, $arg)*),
                    &[$($((::core::stringify!($k), ::std::format!("{}", $v))),+)?],
                );
            }
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
    fn token_bucket_suppresses_floods_then_reports_the_gap() {
        let _g = crate::testutil::serial();
        crate::enable();
        let counter_before = crate::registry().counter("telemetry.log.suppressed").get();
        let site_before = crate::registry().counter("telemetry.log.suppressed.test.bucket").get();
        let site = LogSite::new();
        let (mut admitted, mut suppressed) = (0u64, 0u64);
        for _ in 0..10_000 {
            match site.admit(Level::Warn, "test.bucket") {
                Some(_) => admitted += 1,
                None => suppressed += 1,
            }
        }
        // The burst plus whatever refills during the loop; even a slow
        // machine spends well under a second here.
        assert!(admitted >= SITE_BURST, "the burst must pass: {admitted}");
        assert!(admitted <= SITE_BURST + 2 * SITE_REFILL_PER_SEC, "flood leaked: {admitted}");
        assert_eq!(admitted + suppressed, 10_000);
        let counter_after = crate::registry().counter("telemetry.log.suppressed").get();
        assert!(
            counter_after - counter_before >= suppressed,
            "every suppression must be counted (delta={})",
            counter_after - counter_before
        );
        let site_after = crate::registry().counter("telemetry.log.suppressed.test.bucket").get();
        assert_eq!(
            site_after - site_before,
            suppressed,
            "the per-site counter tallies exactly this site's suppressions"
        );
        // Errors bypass the limiter and drain the gap report.
        let gap = site.admit(Level::Error, "test.bucket").expect("errors always pass");
        assert_eq!(gap, suppressed, "the next admitted line learns the gap size");
        // The gap was drained: an immediately following admission
        // (error again, bucket is empty) reports zero.
        assert_eq!(site.admit(Level::Error, "test.bucket"), Some(0));
    }

    #[test]
    fn token_bucket_refills_after_quiet_period() {
        let _g = crate::testutil::serial();
        let site = LogSite::new();
        while site.admit(Level::Warn, "test.refill").is_some() {}
        assert!(site.admit(Level::Warn, "test.refill").is_none(), "bucket is dry");
        // One refill quantum at SITE_REFILL_PER_SEC lines/s.
        std::thread::sleep(std::time::Duration::from_millis(1_000 / SITE_REFILL_PER_SEC + 50));
        assert!(site.admit(Level::Warn, "test.refill").is_some(), "a token refilled while quiet");
    }

    #[test]
    fn macro_call_sites_are_limited_independently() {
        let _g = crate::testutil::serial();
        crate::enable();
        set_max_log_level(Some(Level::Info));
        let emitted_before = crate::registry().counter("log.warn").get();
        for i in 0..5_000 {
            crate::warn!("test.flood", "storm line {i}");
        }
        let emitted = crate::registry().counter("log.warn").get() - emitted_before;
        // This site may burst, refill a little, and prepend gap
        // summaries; other tests also log warns concurrently, so the
        // bound is generous — without limiting it would be ≥ 5000.
        assert!(emitted <= 500, "flooding site emitted {emitted} lines");
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
    }
}
