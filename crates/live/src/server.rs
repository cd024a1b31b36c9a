//! A minimal std-only HTTP/1.1 scrape endpoint.
//!
//! This is deliberately not a web framework: one accept loop, one
//! request per connection (`Connection: close`), eight GET routes.
//! It exists so an operator (or a Prometheus scraper, or `stats
//! --watch`) can look inside a long-running sensor process without
//! adding a single external dependency:
//!
//! | route            | body                                     |
//! |------------------|------------------------------------------|
//! | `/metrics`       | Prometheus text format (global registry) |
//! | `/snapshot`      | JSON: registry + derived windowed rates  |
//! | `/health`        | JSON watchdog status; **503** when critical |
//! | `/trace/summary` | JSON conservation-ledger summary         |
//! | `/buildinfo`     | JSON build provenance + uptime           |
//! | `/profile/flame` | folded collapsed stacks (inferno format) |
//! | `/profile/top`   | JSON ranked per-stage sample counts      |
//! | `/profile/alloc` | JSON per-stage allocation count/bytes    |
//!
//! The listener runs nonblocking with a short poll sleep so shutdown
//! (a shared stop flag) is observed within ~25 ms. Connections are
//! handled inline on the accept thread, so each one is bounded in size
//! (the request head is capped) and in time: every read and write has
//! a timeout, and the whole head — and then the whole response — must
//! move within one deadline, however the client spaces its bytes. A
//! client that stalls or drips is answered `408` and closed; it holds
//! the endpoint for at most two deadlines, never until it has dripped
//! the size cap.

use crate::{Health, LiveLoop};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest request head we accept (method line + headers).
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Accept-loop poll interval while idle.
const POLL_SLEEP: Duration = Duration::from_millis(25);
/// Longest a single read or write may block.
const IO_TIMEOUT: Duration = Duration::from_millis(500);
/// Longest a connection may take to deliver its whole request head,
/// and then to take its whole response.
const DEADLINE: Duration = Duration::from_secs(1);

/// The timeout for the next read or write: [`IO_TIMEOUT`], or what is
/// left until `deadline` if that is less; `TimedOut` once it has passed.
fn io_budget(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(left.min(IO_TIMEOUT))
}

/// A running scrape server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and joins the
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0: the OS picks the port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and wait for the server thread to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9100`, or `:0` for an ephemeral port)
/// and serve scrapes of `live` on a background thread.
pub fn spawn(addr: &str, live: Arc<Mutex<LiveLoop>>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("bs-live-http".into())
        .spawn(move || accept_loop(listener, live, stop_flag))?;
    Ok(ServerHandle { addr: bound, stop, thread: Some(thread) })
}

fn accept_loop(listener: TcpListener, live: Arc<Mutex<LiveLoop>>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // One short-lived request; handle it inline. A slow
                // client costs at most two DEADLINEs, not a wedged server.
                let _ = handle_connection(stream, &live);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_SLEEP);
            }
            Err(_) => std::thread::sleep(POLL_SLEEP),
        }
    }
}

fn handle_connection(mut stream: TcpStream, live: &Arc<Mutex<LiveLoop>>) -> std::io::Result<()> {
    let deadline = Instant::now() + DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the end of the request head; the routes are all GET,
    // so the body (if any) is ignored.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 431, "Request Header Fields Too Large", "text/plain", "");
        }
        let read = io_budget(deadline).and_then(|budget| {
            stream.set_read_timeout(Some(budget))?;
            stream.read(&mut buf)
        });
        match read {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            // Out of time, or silent for a whole read's budget.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return respond(&mut stream, 408, "Request Timeout", "text/plain", "");
            }
            Err(e) => return Err(e),
        }
    }

    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, 405, "Method Not Allowed", "text/plain", "GET only\n");
    }
    // Strip any query string; the routes take no parameters.
    let route = path.split('?').next().unwrap_or(path);

    match route {
        "/metrics" => {
            let body = bs_telemetry::snapshot_prometheus();
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/snapshot" => {
            let body = lock_live(live).snapshot_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/health" => {
            let guard = lock_live(live);
            let (status, reason) = match guard.health() {
                Health::Critical => (503, "Service Unavailable"),
                _ => (200, "OK"),
            };
            let body = guard.watchdog().health_json();
            drop(guard);
            respond(&mut stream, status, reason, "application/json", &body)
        }
        "/trace/summary" => {
            let body = trace_summary_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/buildinfo" => {
            let body = crate::buildinfo_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/profile/flame" => {
            // Empty until a profiled stage has closed (--profile); an
            // empty 200 keeps scrapers simple.
            let body = bs_telemetry::prof::folded();
            respond(&mut stream, 200, "OK", "text/plain", &body)
        }
        "/profile/top" => {
            let body = bs_telemetry::prof::top_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/profile/alloc" => {
            let body = bs_telemetry::prof::alloc_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn lock_live(live: &Arc<Mutex<LiveLoop>>) -> std::sync::MutexGuard<'_, LiveLoop> {
    // A poisoned lock means a panic elsewhere; serving the last
    // consistent view beats taking the scrape endpoint down with it.
    live.lock().unwrap_or_else(|p| p.into_inner())
}

/// The `/trace/summary` body: conservation-ledger totals plus the
/// human-readable table (escaped into one JSON string).
fn trace_summary_json() -> String {
    let imbalances = bs_telemetry::ledger::verify();
    let cells = bs_telemetry::ledger::snapshot();
    format!(
        "{{\n  \"tracing_enabled\": {},\n  \"profiling_enabled\": {},\n  \"ledger_cells\": {},\n  \"imbalances\": {},\n  \"dropped_events\": {},\n  \"table\": \"{}\"\n}}",
        bs_telemetry::trace::is_enabled(),
        bs_telemetry::prof::is_enabled(),
        cells.len(),
        imbalances.len(),
        bs_telemetry::trace::dropped(),
        bs_telemetry::json::escape(&bs_telemetry::ledger::render())
    )
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    // `write_all` would let a client that drains one segment per
    // timeout hold the accept thread for as long as it likes.
    let deadline = Instant::now() + DEADLINE;
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        stream.set_write_timeout(Some(io_budget(deadline)?))?;
        match stream.write(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A tiny blocking HTTP GET client for tests and `stats --watch`:
/// returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_loop() -> Arc<Mutex<LiveLoop>> {
        Arc::new(Mutex::new(LiveLoop::new()))
    }

    #[test]
    fn serves_all_routes_and_404s_unknown_paths() {
        let live = live_loop();
        {
            let mut l = live.lock().unwrap();
            let mk = |records: u64| {
                let r = bs_telemetry::Registry::new();
                r.counter("sensor.stream.records").add(records);
                r.snapshot()
            };
            l.tick(0, mk(0));
            l.tick(1_000, mk(500));
        }
        bs_telemetry::prof::enable();
        drop(bs_telemetry::stage("live.test.profiled"));
        bs_telemetry::prof::disable();
        let server = spawn("127.0.0.1:0", Arc::clone(&live)).expect("bind ephemeral");
        let addr = server.addr();

        let (code, metrics) = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(code, 200);
        // The registry is global; this process has other tests writing
        // to it, so just require well-formed Prometheus text.
        for line in metrics.lines().filter(|l| !l.is_empty()) {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "bad exposition line: {line:?}"
            );
        }

        let (code, snap) = http_get(addr, "/snapshot").expect("scrape /snapshot");
        assert_eq!(code, 200);
        let v = bs_telemetry::json::parse(&snap).expect("snapshot is valid JSON");
        assert!(v.get("rates").is_some(), "derived rates present:\n{snap}");

        let (code, health) = http_get(addr, "/health").expect("scrape /health");
        assert_eq!(code, 200, "healthy process answers 200");
        let v = bs_telemetry::json::parse(&health).expect("health is valid JSON");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));

        let (code, trace) = http_get(addr, "/trace/summary").expect("scrape /trace/summary");
        assert_eq!(code, 200);
        let v = bs_telemetry::json::parse(&trace).expect("trace summary is valid JSON");
        assert!(v.get("imbalances").is_some());
        assert!(v.get("profiling_enabled").is_some());

        let (code, bi) = http_get(addr, "/buildinfo").expect("scrape /buildinfo");
        assert_eq!(code, 200);
        let v = bs_telemetry::json::parse(&bi).expect("buildinfo is valid JSON");
        assert!(v.get("git_hash").and_then(|g| g.as_str()).is_some());
        assert!(v.get("uptime_secs").and_then(|u| u.as_f64()).is_some());

        let (code, top) = http_get(addr, "/profile/top").expect("scrape /profile/top");
        assert_eq!(code, 200);
        let v = bs_telemetry::json::parse(&top).expect("profile top is valid JSON");
        let stages = v.get("stages").and_then(|s| s.as_array()).expect("stages");
        let row = stages
            .iter()
            .find(|s| s.get("stage").and_then(|n| n.as_str()) == Some("live.test.profiled"))
            .expect("the closed stage is ranked");
        assert_eq!(row.get("calls").and_then(|c| c.as_f64()), Some(1.0));
        assert!(row.get("self_ns").is_some() && row.get("total_ns").is_some());

        let (code, alloc) = http_get(addr, "/profile/alloc").expect("scrape /profile/alloc");
        assert_eq!(code, 200);
        let v = bs_telemetry::json::parse(&alloc).expect("profile alloc is valid JSON");
        assert!(v.get("stages").is_some());

        // /profile/flame is folded text, there as soon as one profiled
        // stage has closed: every line is `frame[;frame...] <ns>`.
        let (code, flame) = http_get(addr, "/profile/flame").expect("scrape /profile/flame");
        assert_eq!(code, 200);
        assert!(flame.lines().any(|l| l.starts_with("live.test.profiled ")), "got: {flame:?}");
        for line in flame.lines() {
            let (path, ns) = line.rsplit_once(' ').expect("folded line");
            assert!(!path.is_empty());
            assert!(ns.parse::<u64>().is_ok(), "bad folded weight in {line:?}");
        }

        let (code, _) = http_get(addr, "/nope").expect("scrape unknown");
        assert_eq!(code, 404);

        server.shutdown();
        // The port is released: a fresh bind to the same addr works.
        let relisten = TcpListener::bind(addr);
        assert!(relisten.is_ok(), "server thread did not release the port");
    }

    #[test]
    fn critical_health_answers_503() {
        let live = live_loop();
        {
            let mut l = live.lock().unwrap();
            let mk = |imbalances: i64| {
                let r = bs_telemetry::Registry::new();
                r.gauge("live.ledger.imbalances").set(imbalances);
                r.snapshot()
            };
            l.tick(0, mk(0));
            l.tick(1_000, mk(3));
        }
        assert_eq!(live.lock().unwrap().health(), Health::Critical);
        let server = spawn("127.0.0.1:0", Arc::clone(&live)).expect("bind");
        let (code, body) = http_get(server.addr(), "/health").expect("scrape");
        assert_eq!(code, 503, "critical process answers 503:\n{body}");
        let v = bs_telemetry::json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("critical"));
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let live = live_loop();
        let server = spawn("127.0.0.1:0", live).expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");
    }
}
