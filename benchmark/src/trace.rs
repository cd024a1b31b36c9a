//! Spans recorded from the benchmark's side of each public call.
//!
//! A span is `(name, start, end, id, parent, pass)` plus the allocator
//! deltas read at the same boundaries. Spans stay in memory and are
//! written out once, at exit. Self time is a span's duration minus the
//! part its children cover. With [`Off`] every call compiles to
//! nothing, which is how the end-to-end passes run.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub trait Spans {
    fn enter(&mut self, name: &'static str);
    fn exit(&mut self);
}

/// Tracing off.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation events and bytes requested between start and end;
    /// zero in a pass that ran with the allocator's counting off.
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    /// Per span, its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = (s.parent - 1) as usize;
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Per pass: span name → (total ns, total self ns, allocs, bytes, count).
    pub fn by_pass(&self) -> BTreeMap<u32, BTreeMap<&'static str, Rollup>> {
        let own = self.self_ns();
        let mut out: BTreeMap<u32, BTreeMap<&'static str, Rollup>> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let r = out.entry(s.pass).or_default().entry(s.name).or_default();
            r.ns += s.ns();
            r.self_ns += self_ns;
            r.allocs += s.allocs;
            r.bytes += s.bytes;
            r.count += 1;
        }
        out
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 140);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"pass\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"allocs\":{},\"bytes\":{}}}",
                s.id, s.parent, s.pass, s.name, s.start_ns, s.end_ns, s.allocs, s.bytes
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Rollup {
    pub ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub count: u64,
}

impl Spans for Recorder {
    fn enter(&mut self, name: &'static str) {
        let (allocs, bytes) = alloc::counters();
        let parent = self.open.last().map_or(0, |i| self.spans[*i].id);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            pass: self.pass,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs,
            bytes,
        });
    }

    fn exit(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::counters();
        let i = self.open.pop().expect("exit without enter");
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_self_time_and_json() {
        let mut r = Recorder::new();
        r.pass = 3;
        r.enter("root");
        r.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.enter("child");
        r.exit();
        r.exit();
        assert_eq!(r.spans.len(), 3);
        assert_eq!((r.spans[0].id, r.spans[0].parent), (1, 0));
        assert_eq!((r.spans[1].parent, r.spans[2].parent), (1, 1));
        let own = r.self_ns();
        assert_eq!(own[0], r.spans[0].ns() - r.spans[1].ns() - r.spans[2].ns());
        assert!(r.spans[1].ns() >= 2_000_000);
        let roll = &r.by_pass()[&3];
        assert_eq!(roll["child"].count, 2);
        assert_eq!(roll["root"].self_ns, own[0]);
        let json = r.to_json("w", 1);
        assert!(json.contains("\"parent\":1,\"pass\":3,\"name\":\"child\""));
    }
}
