//! Query logs: what instrumented authorities record.
//!
//! Each record is the paper's `(originator, querier, authority)` tuple
//! plus a timestamp and response code — exactly the fields §III-A
//! extracts from packet captures. Logs serialize to a simple
//! tab-separated text format (one record per line) so datasets can be
//! written to disk, inspected, and re-read, like a minimal `dnstap`.

use crate::hierarchy::AuthorityId;
use bs_dns::{Rcode, SimTime};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// One reverse query as seen by one authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLogRecord {
    /// Arrival time at the authority.
    pub time: SimTime,
    /// The source address of the DNS packet: the recursive resolver (or
    /// self-resolving host) asking on a target's behalf.
    pub querier: Ipv4Addr,
    /// The originator, recovered from the reverse QNAME.
    pub originator: Ipv4Addr,
    /// The response the authority gave.
    pub rcode: Rcode,
}

/// An append-only query log for one authority.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryLog {
    records: Vec<QueryLogRecord>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        QueryLog::default()
    }

    /// A log of `records`, taken as they are, in arrival order.
    pub fn from_records(records: Vec<QueryLogRecord>) -> Self {
        QueryLog { records }
    }

    /// Append a record.
    pub fn push(&mut self, r: QueryLogRecord) {
        self.records.push(r);
    }

    /// All records in arrival order, or in time order after [`QueryLog::sort_by_time`].
    pub fn records(&self) -> &[QueryLogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Put the records in time order; stable, so equal times keep arrival order.
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// Serialize to the TSV text format, one record per line:
    /// `time\tquerier\toriginator\trcode`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48);
        for r in &self.records {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                r.time.secs(),
                r.querier,
                r.originator,
                rcode_str(r.rcode)
            ));
        }
        out
    }

    /// Parse the TSV text format. Blank lines and `#` comments are
    /// skipped; malformed lines produce an error naming the line number.
    pub fn from_tsv(text: &str) -> Result<Self, LogParseError> {
        let mut log = QueryLog::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split('\t');
            fn parse<'a>(
                s: Option<&'a str>,
                line: usize,
                what: &'static str,
            ) -> Result<&'a str, LogParseError> {
                s.ok_or(LogParseError { line, what })
            }
            let time: u64 = parse(f.next(), i + 1, "time")?
                .parse()
                .map_err(|_| LogParseError { line: i + 1, what: "time" })?;
            let querier: Ipv4Addr = parse(f.next(), i + 1, "querier")?
                .parse()
                .map_err(|_| LogParseError { line: i + 1, what: "querier" })?;
            let originator: Ipv4Addr = parse(f.next(), i + 1, "originator")?
                .parse()
                .map_err(|_| LogParseError { line: i + 1, what: "originator" })?;
            let rcode = rcode_from_str(parse(f.next(), i + 1, "rcode")?)
                .ok_or(LogParseError { line: i + 1, what: "rcode" })?;
            if f.next().is_some() {
                return Err(LogParseError { line: i + 1, what: "trailing fields" });
            }
            log.push(QueryLogRecord { time: SimTime(time), querier, originator, rcode });
        }
        bs_telemetry::counter_add("netsim.log.parsed_records", log.len() as u64);
        Ok(log)
    }
}

fn rcode_str(rc: Rcode) -> &'static str {
    match rc {
        Rcode::NoError => "NOERROR",
        Rcode::FormErr => "FORMERR",
        Rcode::ServFail => "SERVFAIL",
        Rcode::NxDomain => "NXDOMAIN",
        Rcode::NotImp => "NOTIMP",
        Rcode::Refused => "REFUSED",
    }
}

fn rcode_from_str(s: &str) -> Option<Rcode> {
    Some(match s {
        "NOERROR" => Rcode::NoError,
        "FORMERR" => Rcode::FormErr,
        "SERVFAIL" => Rcode::ServFail,
        "NXDOMAIN" => Rcode::NxDomain,
        "NOTIMP" => Rcode::NotImp,
        "REFUSED" => Rcode::Refused,
        _ => return None,
    })
}

/// A malformed line in the TSV format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogParseError {
    /// 1-based line number.
    pub line: usize,
    /// Which field failed.
    pub what: &'static str,
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: bad {}", self.line, self.what)
    }
}

impl std::error::Error for LogParseError {}

/// Labeled logs for a set of authorities, as produced by one simulation.
pub type AuthorityLogs = std::collections::BTreeMap<AuthorityId, QueryLog>;

impl FromStr for QueryLog {
    type Err = LogParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QueryLog::from_tsv(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, q: &str, o: &str, rc: Rcode) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: q.parse().unwrap(),
            originator: o.parse().unwrap(),
            rcode: rc,
        }
    }

    #[test]
    fn tsv_round_trip() {
        let mut log = QueryLog::new();
        log.push(rec(0, "192.0.2.1", "203.0.113.9", Rcode::NoError));
        log.push(rec(30, "192.0.2.53", "203.0.113.9", Rcode::NxDomain));
        log.push(rec(65, "198.51.100.7", "203.0.113.10", Rcode::ServFail));
        let text = log.to_tsv();
        assert_eq!(QueryLog::from_tsv(&text).unwrap(), log);
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let text = "# header\n\n0\t192.0.2.1\t203.0.113.9\tNOERROR\n";
        let log = QueryLog::from_tsv(text).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn tsv_reports_bad_lines() {
        let cases = [
            ("banana\t192.0.2.1\t203.0.113.9\tNOERROR", "time"),
            ("0\tnot-an-ip\t203.0.113.9\tNOERROR", "querier"),
            ("0\t192.0.2.1\tnope\tNOERROR", "originator"),
            ("0\t192.0.2.1\t203.0.113.9\tWHAT", "rcode"),
            ("0\t192.0.2.1\t203.0.113.9", "rcode"),
            ("0\t192.0.2.1\t203.0.113.9\tNOERROR\textra", "trailing fields"),
        ];
        for (line, what) in cases {
            let err = QueryLog::from_tsv(line).unwrap_err();
            assert_eq!(err.what, what, "for {line:?}");
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn empty_log_round_trips() {
        let log = QueryLog::new();
        assert!(log.is_empty());
        assert_eq!(QueryLog::from_tsv(&log.to_tsv()).unwrap(), log);
    }
}
