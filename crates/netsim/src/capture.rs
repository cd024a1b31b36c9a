//! Packet-level captures: query logs as real DNS messages.
//!
//! The paper's data arrives as packet captures or `dnstap` logs
//! (§III-A: "DNS packet capture techniques are widely used"). This
//! module round-trips a [`QueryLog`] through that representation: every
//! record becomes an actual wire-format query/response exchange,
//! encoded with the RFC 1035 codec from `bs-dns`, and ingestion decodes
//! the packets and re-applies the paper's collection filter (PTR over
//! `in-addr.arpa` only). Corrupted frames are skipped and counted, the
//! way a capture pipeline tolerates packet damage.
//!
//! # Format
//!
//! ```text
//! magic  "BSCAP1\n"
//! frame* direction:u8 (0 = query to authority, 1 = response)
//!        peer:u32     (the querier's IPv4 address, big-endian)
//!        time:u64     (seconds since scenario epoch, big-endian)
//!        len:u16      (message length, big-endian)
//!        message      (RFC 1035 wire format)
//! ```

use crate::log::{QueryLog, QueryLogRecord};
use bs_dns::message::{Message, QType, RecordData, ResourceRecord};
use bs_dns::reverse::{parse_reverse_v4, reverse_name};
use bs_dns::{DomainName, Rcode, SimTime};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Magic bytes opening a capture stream.
pub const MAGIC: &[u8; 7] = b"BSCAP1\n";

/// Errors from reading a capture stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// A frame header was truncated.
    TruncatedFrame {
        /// Byte offset of the broken frame.
        offset: usize,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::BadMagic => write!(f, "missing BSCAP1 magic"),
            CaptureError::TruncatedFrame { offset } => {
                write!(f, "truncated frame at byte {offset}")
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// Statistics from reading a capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Frames read.
    pub frames: u64,
    /// Frames whose DNS payload failed to decode (skipped).
    pub undecodable: u64,
    /// Decoded messages that were not reverse-DNS responses (filtered,
    /// like the paper's collection step).
    pub filtered: u64,
    /// Records recovered.
    pub records: u64,
}

fn put_frame(out: &mut Vec<u8>, direction: u8, peer: Ipv4Addr, time: SimTime, body: &[u8]) {
    out.push(direction);
    out.extend_from_slice(&u32::from(peer).to_be_bytes());
    out.extend_from_slice(&time.secs().to_be_bytes());
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(body);
}

/// Serialize a query log as a capture: one query/response exchange per
/// record, with transaction IDs derived from the record sequence.
pub fn write_capture(log: &QueryLog) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + log.len() * 96);
    out.extend_from_slice(MAGIC);
    for (seq, r) in log.records().iter().enumerate() {
        let id = (seq as u16).wrapping_mul(31).wrapping_add(7);
        let query = Message::query(id, reverse_name(r.originator), QType::Ptr);
        let mut response = Message::response(&query, r.rcode, Vec::new());
        if r.rcode == Rcode::NoError {
            // A nominal PTR answer (the sensor never reads it; the
            // paper explicitly ignores the originator's own name).
            response.answers.push(ResourceRecord {
                name: query.questions[0].qname.clone(),
                ttl: 3600,
                data: RecordData::Ptr(DomainName::parse("host.invalid").expect("static name")),
            });
        }
        put_frame(&mut out, 0, r.querier, r.time, &query.encode());
        put_frame(&mut out, 1, r.querier, r.time, &response.encode());
    }
    bs_telemetry::counter_add("dns.wire.encoded", 2 * log.len() as u64);
    out
}

/// direction(1) + peer(4) + time(8) + len(2)
const HEADER_LEN: usize = 15;

/// Bytes of whole frames one decode task takes. Small enough that the
/// last task to finish holds a 40 MB capture back by a millisecond or
/// two, large enough that handing a task out costs nothing beside
/// decoding it. A constant, so where the stream is cut — and with it
/// every intermediate result — depends on the bytes alone, never on
/// the pool width.
const CHUNK_BYTES: usize = 256 * 1024;

/// A run of whole frames, `bytes[start..end]`, holding `responses`
/// response frames.
struct Chunk {
    start: usize,
    end: usize,
    responses: usize,
}

/// Hop from header to header over the whole stream: reject broken
/// framing before anything is decoded, count the response frames, and
/// close a chunk at the first frame boundary at or past `chunk_bytes`.
fn scan(bytes: &[u8], chunk_bytes: usize) -> Result<Vec<Chunk>, CaptureError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CaptureError::BadMagic);
    }
    let mut chunks = Vec::new();
    let mut pos = MAGIC.len();
    let mut open = Chunk { start: pos, end: pos, responses: 0 };
    while pos < bytes.len() {
        let truncated = CaptureError::TruncatedFrame { offset: pos };
        let Some(header) = bytes.get(pos..pos + HEADER_LEN) else {
            return Err(truncated);
        };
        let len = usize::from(u16::from_be_bytes([header[13], header[14]]));
        pos += HEADER_LEN + len;
        if pos > bytes.len() {
            return Err(truncated);
        }
        // Only responses carry the rcode; query frames are redundant.
        open.responses += usize::from(header[0] == 1);
        open.end = pos;
        if open.end - open.start >= chunk_bytes {
            chunks.push(open);
            open = Chunk { start: pos, end: pos, responses: 0 };
        }
    }
    if open.end > open.start {
        chunks.push(open);
    }
    Ok(chunks)
}

/// Decode one chunk's response frames into the front of `out`, which
/// has room for every one of them. The framing was checked by [`scan`].
fn decode_chunk(frames: &[u8], out: &mut [QueryLogRecord]) -> CaptureStats {
    let mut stats = CaptureStats::default();
    let mut rest = frames;
    while !rest.is_empty() {
        let (header, tail) = rest.split_at(HEADER_LEN);
        let len = usize::from(u16::from_be_bytes([header[13], header[14]]));
        let (body, tail) = tail.split_at(len);
        rest = tail;
        stats.frames += 1;
        if header[0] != 1 {
            continue;
        }
        let Ok(msg) = Message::decode(body) else {
            stats.undecodable += 1;
            continue;
        };
        // The paper's collection filter: PTR over `in-addr.arpa` only.
        let Some(originator) = msg
            .question()
            .filter(|q| msg.is_response && q.qtype == QType::Ptr)
            .and_then(|q| parse_reverse_v4(&q.qname))
        else {
            stats.filtered += 1;
            continue;
        };
        out[stats.records as usize] = QueryLogRecord {
            time: SimTime(u64::from_be_bytes(header[5..13].try_into().expect("8 bytes"))),
            querier: Ipv4Addr::from(u32::from_be_bytes(header[1..5].try_into().expect("4 bytes"))),
            originator,
            rcode: msg.rcode,
        };
        stats.records += 1;
    }
    stats
}

/// Parse a capture back into a query log, recovering records from the
/// *response* frames (they carry both the question and the rcode).
/// Returns the log plus read statistics.
///
/// Two phases. A scan over the frame headers settles whether the
/// framing is intact — so [`CaptureError`] is returned before any
/// message is decoded — and cuts the stream into chunks of whole
/// frames. The chunks are then decoded on the `bs-par` pool, each into
/// its own range of one output buffer sized from the scan's response
/// count; the ranges are closed up in capture order and the buffer is
/// shrunk to the records recovered. The result is the same at every
/// pool width; a capture of one chunk, a one-thread pool and a call
/// from inside a pool worker decode on the calling thread.
pub fn read_capture(bytes: &[u8]) -> Result<(QueryLog, CaptureStats), CaptureError> {
    read_capture_chunked(bytes, CHUNK_BYTES)
}

fn read_capture_chunked(
    bytes: &[u8],
    chunk_bytes: usize,
) -> Result<(QueryLog, CaptureStats), CaptureError> {
    let (records, stats) = read_records(bytes, chunk_bytes)?;
    Ok((QueryLog::from_records(records), stats))
}

/// The records a capture holds, in capture order, in a buffer no larger
/// than they are.
fn read_records(
    bytes: &[u8],
    chunk_bytes: usize,
) -> Result<(Vec<QueryLogRecord>, CaptureStats), CaptureError> {
    let chunks = scan(bytes, chunk_bytes)?;
    let responses: usize = chunks.iter().map(|c| c.responses).sum();
    // One allocation, at most 24 B for each 15 B header of input. Every
    // slot past a chunk's recovered records is closed up below.
    let unfilled = QueryLogRecord {
        time: SimTime(0),
        querier: Ipv4Addr::UNSPECIFIED,
        originator: Ipv4Addr::UNSPECIFIED,
        rcode: Rcode::NoError,
    };
    let mut records = vec![unfilled; responses];

    // Each task takes its chunk's range of the buffer out of its slot.
    let mut rest = records.as_mut_slice();
    let ranges: Vec<Mutex<Option<&mut [QueryLogRecord]>>> = chunks
        .iter()
        .map(|c| {
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(c.responses);
            rest = tail;
            Mutex::new(Some(range))
        })
        .collect();
    let per_chunk = bs_par::par_map_range(chunks.len(), |i| {
        let out = ranges[i]
            .lock()
            .expect("a range is only taken, never held across a panic")
            .take()
            .expect("each chunk is decoded once");
        decode_chunk(&bytes[chunks[i].start..chunks[i].end], out)
    });
    drop(ranges);

    // Close the gaps undecodable and filtered responses left, in
    // capture order; a clean capture moves nothing.
    let mut stats = CaptureStats::default();
    let mut range_start = 0;
    for (chunk, decoded) in chunks.iter().zip(&per_chunk) {
        let kept = stats.records as usize;
        if range_start != kept {
            records.copy_within(range_start..range_start + decoded.records as usize, kept);
        }
        range_start += chunk.responses;
        stats.frames += decoded.frames;
        stats.undecodable += decoded.undecodable;
        stats.filtered += decoded.filtered;
        stats.records += decoded.records;
    }
    // The log lives as long as the capture's windows: keep only the
    // records recovered, not a slot per response frame.
    records.truncate(stats.records as usize);
    records.shrink_to_fit();

    // Once per call, never per frame.
    bs_telemetry::counter_add("dns.wire.decoded", stats.records + stats.filtered);
    bs_telemetry::counter_add("dns.wire.decode_errors", stats.undecodable);
    bs_telemetry::counter_add("netsim.capture.frames", stats.frames);
    bs_telemetry::counter_add("netsim.capture.records", stats.records);
    bs_telemetry::counter_add("netsim.capture.filtered", stats.filtered);
    bs_telemetry::counter_add("netsim.capture.undecodable", stats.undecodable);
    // The scan counted the responses, the decode where each one went.
    bs_telemetry::ledger::record(
        "netsim.capture",
        stats.frames,
        &[
            ("query_frames", stats.frames - responses as u64),
            ("records", stats.records),
            ("filtered", stats.filtered),
            ("undecodable", stats.undecodable),
        ],
    );
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::{bounded, hash2};
    use std::sync::MutexGuard;

    /// One test at a time: they set the process-wide pool width, and
    /// every read or write publishes into the process-wide counters one
    /// of them reads back.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_log() -> QueryLog {
        let mut log = QueryLog::new();
        for (t, q, o, rc) in [
            (0u64, "192.0.2.1", "203.0.113.9", Rcode::NoError),
            (30, "192.0.2.53", "203.0.113.9", Rcode::NxDomain),
            (65, "198.51.100.7", "203.0.113.10", Rcode::ServFail),
        ] {
            log.push(QueryLogRecord {
                time: SimTime(t),
                querier: q.parse().unwrap(),
                originator: o.parse().unwrap(),
                rcode: rc,
            });
        }
        log
    }

    #[test]
    fn capture_round_trips() {
        let _serial = serial();
        let log = sample_log();
        let bytes = write_capture(&log);
        let (back, stats) = read_capture(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.undecodable, 0);
    }

    #[test]
    fn empty_log_round_trips() {
        let _serial = serial();
        let log = QueryLog::new();
        let (back, stats) = read_capture(&write_capture(&log)).unwrap();
        assert!(back.is_empty());
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_capture(b"NOTCAP!"), Err(CaptureError::BadMagic));
        assert_eq!(read_capture(b""), Err(CaptureError::BadMagic));
    }

    #[test]
    fn truncation_is_detected_with_offset() {
        let _serial = serial();
        let bytes = write_capture(&sample_log());
        let cut = &bytes[..bytes.len() - 3];
        match read_capture(cut) {
            Err(CaptureError::TruncatedFrame { offset }) => assert!(offset > MAGIC.len()),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_is_skipped_not_fatal() {
        let _serial = serial();
        let mut bytes = write_capture(&sample_log());
        // Smash the middle of the first response's DNS payload in a way
        // that breaks name parsing (0xFF is an invalid label type).
        let start = MAGIC.len() + 15;
        // First frame is the query; find the second frame.
        let qlen = u16::from_be_bytes(bytes[start - 2..start].try_into().unwrap()) as usize;
        let resp_header = start + qlen;
        let resp_body = resp_header + 15;
        for b in &mut bytes[resp_body + 12..resp_body + 16] {
            *b = 0xFF;
        }
        let (log, stats) = read_capture(&bytes).unwrap();
        assert_eq!(stats.undecodable, 1);
        assert_eq!(log.len(), 2, "remaining records recovered");
    }

    #[test]
    fn non_reverse_responses_are_filtered() {
        let _serial = serial();
        // Hand-build a capture with a forward A response: it must be
        // dropped by the collection filter, like the paper's step one.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let fwd_q = Message::query(1, DomainName::parse("www.example.com").unwrap(), QType::A);
        let fwd_r = Message::response(&fwd_q, Rcode::NoError, vec![]);
        put_frame(&mut out, 1, "192.0.2.1".parse().unwrap(), SimTime(5), &fwd_r.encode());
        let (log, stats) = read_capture(&out).unwrap();
        assert!(log.is_empty());
        assert_eq!(stats.filtered, 1);
    }

    #[test]
    fn a_mostly_filtered_capture_keeps_only_its_records() {
        let _serial = serial();
        let mut out = MAGIC.to_vec();
        let fwd_q = Message::query(1, DomainName::parse("www.example.com").unwrap(), QType::A);
        let fwd_r = Message::response(&fwd_q, Rcode::NoError, vec![]).encode();
        for i in 0..64 {
            put_frame(&mut out, 1, "192.0.2.1".parse().unwrap(), SimTime(i), &fwd_r);
        }
        out.extend_from_slice(&write_capture(&sample_log())[MAGIC.len()..]);
        for chunk_bytes in [97, CHUNK_BYTES] {
            let (records, stats) = read_records(&out, chunk_bytes).unwrap();
            assert_eq!((stats.filtered, stats.records), (64, 3));
            assert_eq!(records, sample_log().records());
            assert_eq!(records.capacity(), records.len(), "chunks of {chunk_bytes} B");
        }
    }

    /// The one-pass, one-thread reader `read_capture` used to be, kept
    /// as the oracle for the two-phase one.
    fn one_pass(bytes: &[u8]) -> Result<(QueryLog, CaptureStats), CaptureError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CaptureError::BadMagic);
        }
        let mut log = QueryLog::new();
        let mut stats = CaptureStats::default();
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            if pos + 15 > bytes.len() {
                return Err(CaptureError::TruncatedFrame { offset: pos });
            }
            let direction = bytes[pos];
            let peer = u32::from_be_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
            let time = u64::from_be_bytes(bytes[pos + 5..pos + 13].try_into().unwrap());
            let len = u16::from_be_bytes(bytes[pos + 13..pos + 15].try_into().unwrap()) as usize;
            let body_start = pos + 15;
            if body_start + len > bytes.len() {
                return Err(CaptureError::TruncatedFrame { offset: pos });
            }
            let body = &bytes[body_start..body_start + len];
            pos = body_start + len;
            stats.frames += 1;
            if direction != 1 {
                continue;
            }
            let Ok(msg) = Message::decode(body) else {
                stats.undecodable += 1;
                continue;
            };
            let reverse = msg.is_response
                && msg
                    .question()
                    .map(|q| q.qtype == QType::Ptr && parse_reverse_v4(&q.qname).is_some())
                    .unwrap_or(false);
            if !reverse {
                stats.filtered += 1;
                continue;
            }
            log.push(QueryLogRecord {
                time: SimTime(time),
                querier: Ipv4Addr::from(peer),
                originator: parse_reverse_v4(&msg.question().unwrap().qname).unwrap(),
                rcode: msg.rcode,
            });
            stats.records += 1;
        }
        Ok((log, stats))
    }

    /// A capture of `exchanges` exchanges in which every way a frame
    /// can fail to yield a record turns up: damaged, cut short and
    /// empty response bodies, forward lookups, PTR lookups outside
    /// `in-addr.arpa`, a query echoed in a response frame, exchanges
    /// whose response never arrived, and bare frames of other
    /// directions. Returns the bytes and where each frame ends.
    fn hostile_capture(seed: u64, exchanges: u64) -> (Vec<u8>, Vec<usize>) {
        let mut out = MAGIC.to_vec();
        let mut ends = Vec::new();
        for i in 0..exchanges {
            let draw = |k: u64, n: u64| bounded(hash2(seed, i, k), n);
            let peer = Ipv4Addr::from(draw(0, 1 << 32) as u32);
            let time = SimTime(i * 7 + draw(1, 7));
            let originator = Ipv4Addr::from(draw(2, 1 << 32) as u32);
            let rcode = [Rcode::NoError, Rcode::NxDomain, Rcode::ServFail][draw(3, 3) as usize];
            let kind = draw(4, 16);
            let query = match kind {
                0 => Message::query(
                    i as u16,
                    DomainName::parse("www.example.com").unwrap(),
                    QType::A,
                ),
                1 => Message::query(
                    i as u16,
                    DomainName::parse("mail.example.net").unwrap(),
                    QType::Ptr,
                ),
                2 => {
                    // A PTR lookup under `ip6.arpa`: 32 nibble labels,
                    // least significant first.
                    let nibbles = format!("{:032x}", draw(5, 1 << 62));
                    let labels: String = nibbles.chars().rev().map(|c| format!("{c}.")).collect();
                    let qname = DomainName::parse(&format!("{labels}ip6.arpa")).unwrap();
                    Message::query(i as u16, qname, QType::Ptr)
                }
                _ => Message::query(i as u16, reverse_name(originator), QType::Ptr),
            };
            let mut response = Message::response(&query, rcode, Vec::new()).encode();
            match kind {
                3 => {
                    let at = draw(5, response.len() as u64) as usize;
                    response[at] ^= 1 << draw(6, 8);
                }
                4 => response[12] = 0xFF,
                5 => response.truncate(draw(5, response.len() as u64) as usize),
                6 => response.clear(),
                7 => response = query.encode(),
                _ => {}
            }
            if kind != 8 {
                put_frame(&mut out, 0, peer, time, &query.encode());
                ends.push(out.len());
            }
            if kind != 9 {
                put_frame(&mut out, if kind == 10 { 2 } else { 1 }, peer, time, &response);
                ends.push(out.len());
            }
        }
        (out, ends)
    }

    const WIDTHS: [usize; 3] = [1, 2, 8];

    /// `read_capture_chunked` at every width in [`WIDTHS`] against the
    /// one-pass reader.
    fn assert_matches_one_pass(bytes: &[u8], chunk_bytes: usize, what: &str) {
        let expect = one_pass(bytes);
        for width in WIDTHS {
            bs_par::set_threads(width);
            let got = read_capture_chunked(bytes, chunk_bytes);
            bs_par::set_threads(0);
            assert_eq!(got, expect, "{what}, chunks of {chunk_bytes} B, {width} threads");
        }
    }

    #[test]
    fn hostile_captures_decode_alike_at_every_width_and_chunk_size() {
        let _serial = serial();
        let mut seen = CaptureStats::default();
        for seed in 0..24u64 {
            let (bytes, _) = hostile_capture(seed, 20 + seed * 9);
            for chunk_bytes in [1, 97, 600, 4096, CHUNK_BYTES] {
                assert_matches_one_pass(&bytes, chunk_bytes, &format!("seed {seed}"));
            }
            let (log, stats) = one_pass(&bytes).unwrap();
            assert_eq!(log.len() as u64, stats.records, "seed {seed}");
            seen.undecodable += stats.undecodable;
            seen.filtered += stats.filtered;
            seen.records += stats.records;
        }
        // The generator reaches every outcome, in numbers that differ,
        // so a reader that files one under another cannot pass.
        assert!(seen.undecodable > 50 && seen.filtered > 50 && seen.records > 500, "{seen:?}");
        assert_ne!(seen.undecodable, seen.filtered);
    }

    #[test]
    fn captures_without_a_record_decode_alike() {
        let _serial = serial();
        let mut queries_only = MAGIC.to_vec();
        let mut empty_bodies = MAGIC.to_vec();
        for i in 0..50u32 {
            let query = Message::query(i as u16, reverse_name(Ipv4Addr::from(i)), QType::Ptr);
            let (peer, time) = (Ipv4Addr::from(i), SimTime(i as u64));
            put_frame(&mut queries_only, 0, peer, time, &query.encode());
            put_frame(&mut empty_bodies, 1, peer, time, &[]);
        }
        for (what, bytes) in [
            ("no frames", MAGIC.to_vec()),
            ("queries only", queries_only),
            ("empty bodies", empty_bodies),
        ] {
            for chunk_bytes in [1, 100, CHUNK_BYTES] {
                assert_matches_one_pass(&bytes, chunk_bytes, what);
            }
            let (log, _) = read_capture(&bytes).unwrap();
            assert!(log.is_empty(), "{what}");
        }
    }

    #[test]
    fn a_cut_on_or_beside_any_frame_end_changes_nothing() {
        let _serial = serial();
        let (bytes, ends) = hostile_capture(0xC07, 40);
        for end in ends {
            // A chunk closes at the first frame end at or past the
            // target: one byte short closes on this frame, exact closes
            // on it too, one byte more runs on into the next frame.
            let exact = end - MAGIC.len();
            for chunk_bytes in [exact - 1, exact, exact + 1] {
                assert_matches_one_pass(&bytes, chunk_bytes, "seed 0xC07");
            }
        }
    }

    #[test]
    fn every_truncation_point_reports_what_the_one_pass_reader_did() {
        let _serial = serial();
        let (bytes, ends) = hostile_capture(0x7C, 30);
        let chunk_bytes = 256;
        assert!(scan(&bytes, chunk_bytes).unwrap().len() > 4, "the capture spans several chunks");
        bs_par::set_threads(2);
        let mut truncated = 0;
        for cut in 0..=bytes.len() {
            let got = read_capture_chunked(&bytes[..cut], chunk_bytes);
            assert_eq!(got, one_pass(&bytes[..cut]), "cut at byte {cut}");
            match got {
                Ok(_) => assert!(cut == MAGIC.len() || ends.contains(&cut), "cut at byte {cut}"),
                Err(CaptureError::TruncatedFrame { .. }) => truncated += 1,
                Err(CaptureError::BadMagic) => assert!(cut < MAGIC.len()),
            }
        }
        bs_par::set_threads(0);
        assert_eq!(truncated, bytes.len() - MAGIC.len() - ends.len());
    }

    #[test]
    fn chunks_are_cut_by_bytes_alone_and_cover_every_frame() {
        let (bytes, ends) = hostile_capture(0x5CA, 60);
        let chunks = scan(&bytes, 300).unwrap();
        assert_eq!(chunks[0].start, MAGIC.len());
        assert_eq!(chunks.last().unwrap().end, bytes.len());
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "chunks tile the stream");
        }
        for chunk in &chunks[..chunks.len() - 1] {
            assert!(ends.contains(&chunk.end), "a chunk ends where a frame does");
            let len = chunk.end - chunk.start;
            assert!((300..300 + 15 + 0xFFFF).contains(&len), "{len} B");
        }
    }

    #[test]
    fn totals_are_published_once_per_call_and_the_ledger_balances() {
        let _serial = serial();
        let (bytes, ends) = hostile_capture(0x1ED, 200);
        let expect = one_pass(&bytes).unwrap().1;
        let counters = |names: &[&str]| -> Vec<u64> {
            let snapshot = bs_telemetry::snapshot();
            names.iter().map(|n| snapshot.counters.get(*n).copied().unwrap_or(0)).collect()
        };
        let names = [
            "netsim.capture.frames",
            "netsim.capture.records",
            "netsim.capture.filtered",
            "netsim.capture.undecodable",
            "dns.wire.decoded",
            "dns.wire.decode_errors",
            "dns.wire.encoded",
        ];
        bs_telemetry::enable();
        bs_telemetry::prof::enable();
        let before = counters(&names);
        // A window of this test's own: other tests' rows file elsewhere.
        let window = 0xCA97;
        {
            let _w = bs_telemetry::ledger::window_scope(window);
            bs_par::set_threads(2);
            read_capture_chunked(&bytes, 512).unwrap();
            bs_par::set_threads(0);
        }
        write_capture(&sample_log());
        let after = counters(&names);
        bs_telemetry::prof::disable();
        bs_telemetry::disable();

        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            [
                expect.frames,
                expect.records,
                expect.filtered,
                expect.undecodable,
                expect.records + expect.filtered,
                expect.undecodable,
                6,
            ]
        );
        let flow = &bs_telemetry::ledger::snapshot()[&("netsim.capture".to_string(), window)];
        assert_eq!(flow.records_in, ends.len() as u64);
        assert_eq!(flow.accounted(), flow.records_in, "{flow:?}");
        assert_eq!(flow.out["records"], expect.records);
        assert_eq!(flow.out["filtered"], expect.filtered);
        assert_eq!(flow.out["undecodable"], expect.undecodable);
        assert!(flow.out["query_frames"] > 0);
    }
}
