//! Hostile clients against the scrape endpoint. The server handles
//! connections inline on one accept thread, so the contract is: every
//! client gets a well-formed `4xx`/`200` or a closed socket — never a
//! hang or a panic — and whatever it did, the next `/health` scrape is
//! answered within the deadline. Random cases derive from their seed
//! alone, so a failure replays from the seed in its message.

use bs_live::{http_get, spawn_server, LiveLoop, ServerHandle};
use bs_par::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a scrape may take behind any hostile client.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(2);

fn server() -> ServerHandle {
    let live = Arc::new(Mutex::new(LiveLoop::new()));
    spawn_server("127.0.0.1:0", live).expect("bind ephemeral")
}

fn assert_still_serving(addr: SocketAddr, after: &str) {
    let asked = Instant::now();
    let (code, _) = http_get(addr, "/health")
        .unwrap_or_else(|e| panic!("after {after}: /health scrape failed: {e}"));
    assert_eq!(code, 200, "after {after}");
    assert!(asked.elapsed() < SCRAPE_DEADLINE, "after {after}: took {:?}", asked.elapsed());
}

/// What the client does once its bytes are sent.
#[derive(Clone, Copy, Debug)]
enum Then {
    /// Shut down the write half: the server sees end of input.
    HalfClose,
    /// Keep the socket open and silent: the server must time out.
    Wait,
}

/// The status code of a well-formed response, `None` for a socket the
/// server closed without one. Panics on anything else.
fn status_of(raw: &[u8], case: &str) -> Option<u16> {
    if raw.is_empty() {
        return None;
    }
    let text = std::str::from_utf8(raw).unwrap_or_else(|_| panic!("{case}: response not UTF-8"));
    let (head, body) =
        text.split_once("\r\n\r\n").unwrap_or_else(|| panic!("{case}: no head end in {text:?}"));
    let mut lines = head.split("\r\n");
    let mut status = lines.next().expect("status line").splitn(3, ' ');
    assert_eq!(status.next(), Some("HTTP/1.1"), "{case}: {text:?}");
    let code: u16 = status.next().and_then(|c| c.parse().ok()).expect("numeric status");
    let length = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("{case}: no Content-Length in {head:?}"));
    assert_eq!(length, body.len(), "{case}: Content-Length matches the body");
    assert!(head.contains("\r\nConnection: close"), "{case}: {head:?}");
    Some(code)
}

/// Send `bytes`, then read until the server closes. A reset counts as
/// closed; a server that neither answers nor closes is a hang.
fn exchange(addr: SocketAddr, bytes: &[u8], then: Then, case: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(3))).expect("read timeout");
    // The server may answer and close before everything is written.
    let _ = stream.write_all(bytes);
    if let Then::HalfClose = then {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut raw = Vec::new();
    match stream.read_to_end(&mut raw) {
        Ok(_) => status_of(&raw, case),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("{case}: server neither answered nor closed within 3 s")
        }
        Err(_) => None,
    }
}

/// A well-formed client error, `200`, or a closed socket.
fn assert_tolerated(got: Option<u16>, case: &str) {
    assert!(matches!(got, None | Some(200 | 400..=499)), "{case}: answered {got:?}");
}

/// The slow-loris: one byte every 200 ms, never a blank line. It must
/// not hold the endpoint until it has dripped the 8 KiB cap — a scrape
/// arriving behind it is answered within the deadline, and the dripper
/// itself is timed out.
#[test]
fn dripping_client_cannot_hold_the_endpoint() {
    let server = server();
    let addr = server.addr();
    let (connected, wait_connected) = mpsc::channel();
    let dripper = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // The pause between drips doubles as the wait for an answer.
        stream.set_read_timeout(Some(Duration::from_millis(200))).expect("read timeout");
        let head = b"GET /health HTTP/1.1\r\nX-Drip: ";
        let mut raw = Vec::new();
        for i in 0..40 {
            stream.write_all(&[head.get(i).copied().unwrap_or(b'a')]).expect("drip");
            if i == 0 {
                connected.send(()).expect("main is waiting");
            }
            match stream.read_to_end(&mut raw) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                _ => break,
            }
        }
        raw
    });
    wait_connected.recv().expect("dripper connected");
    assert_still_serving(addr, "a dripping client connected first");
    let raw = dripper.join().expect("dripper");
    assert_eq!(status_of(&raw, "drip"), Some(408), "the dripper is timed out, not served");
    assert_still_serving(addr, "the dripper was dropped");
}

#[test]
fn malformed_requests_get_client_errors() {
    let server = server();
    let addr = server.addr();
    let mut oversized = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.resize(8 * 1024 + 1, b'a');
    let cases: [(&str, &[u8], Then, u16); 11] = [
        ("head of 8 KiB + 1", &oversized, Then::Wait, 431),
        ("non-UTF-8 path", b"GET /\xff\xfe\xc0 HTTP/1.1\r\n\r\n", Then::Wait, 404),
        ("NUL in the path", b"GET /hea\0lth HTTP/1.1\r\n\r\n", Then::Wait, 404),
        ("NUL in the method", b"G\0T /health HTTP/1.1\r\n\r\n", Then::Wait, 405),
        ("empty request line", b"\r\n\r\n", Then::Wait, 405),
        ("method without path", b"GET\r\n\r\n", Then::Wait, 404),
        ("lower-case method", b"get /health HTTP/1.1\r\n\r\n", Then::Wait, 405),
        ("unknown method", b"BREW /health HTTP/1.1\r\n\r\n", Then::Wait, 405),
        ("nothing sent", b"", Then::Wait, 408),
        ("stalled mid-head", b"GET /health HTTP/1.1\r\nHost", Then::Wait, 408),
        ("closed mid-head", b"GET /hea", Then::HalfClose, 404),
    ];
    for (case, bytes, then, expect) in cases {
        assert_eq!(exchange(addr, bytes, then, case), Some(expect), "{case}");
        assert_still_serving(addr, case);
    }
    // A client that vanishes outright leaves nothing to answer.
    drop(TcpStream::connect(addr).expect("connect"));
    assert_still_serving(addr, "connect and drop");
}

/// Whatever follows a complete head is never read, so the close may
/// reach the client as a reset before the answer does.
#[test]
fn pipelined_garbage_after_a_valid_head_is_ignored() {
    let server = server();
    let addr = server.addr();
    for seed in 0..16u64 {
        let mut rng = Rng::new(seed);
        let mut bytes = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        bytes.extend((0..rng.range(1..4096)).map(|_| rng.next_u64() as u8));
        let case = format!("pipelined garbage, seed {seed}");
        let got = exchange(addr, &bytes, Then::Wait, &case);
        assert!(matches!(got, None | Some(200)), "{case}: answered {got:?}");
        assert_still_serving(addr, &case);
    }
}

#[test]
fn random_byte_soup_never_hangs_or_kills_the_server() {
    let server = server();
    let addr = server.addr();
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed);
        let len = rng.range(0..3 * 1024) * rng.range(1..5);
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Mostly end of input; now and then a silent open socket, which
        // costs the server a read timeout.
        let then = if rng.below(8) == 0 { Then::Wait } else { Then::HalfClose };
        let case = format!("byte soup, seed {seed}: {len} bytes, {then:?}");
        assert_tolerated(exchange(addr, &soup, then, &case), &case);
        assert_still_serving(addr, &case);
    }
}
