//! Spans for the traced run, recorded from the benchmark's own code
//! around each call into a library layer.
//!
//! A span has a name (the layer and call), a start and an end on one
//! shared clock, an id shared by every span of one request (an operation
//! or a message sequence id), and the name of its parent span. Each
//! thread records into its own bounded buffer; the buffers are merged and
//! written out after the run. A parent's self time is its duration minus
//! the part of it that its children cover.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

/// The shared clock: nanoseconds since the run started.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub id: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A bounded span buffer: spans past the capacity are counted, not kept.
pub struct Spans {
    buf: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn with_capacity(cap: usize) -> Spans {
        Spans {
            buf: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start: u64,
        end: u64,
    ) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(Span {
                name,
                parent,
                id,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Moves `other`'s spans in, growing past this buffer's capacity.
    pub fn absorb(&mut self, other: Spans) {
        self.buf.extend(other.buf);
        self.dropped += other.dropped;
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations of the spans called `name`.
    pub fn durations(&self, name: &str) -> Histogram {
        let mut h = Histogram::new();
        for s in self.buf.iter().filter(|s| s.name == name) {
            h.record(s.ns());
        }
        h
    }

    /// Self times of the spans called `name`: each one's duration minus
    /// the union of its children's intervals, clipped to it.
    pub fn self_times(&self, name: &str) -> Histogram {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in self.buf.iter().filter(|s| s.parent == Some(name)) {
            children.entry(s.id).or_default().push((s.start, s.end));
        }
        let mut h = Histogram::new();
        for s in self.buf.iter().filter(|s| s.name == name) {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            h.record(s.ns().saturating_sub(covered));
        }
        h
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.buf {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.id,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::with_capacity(8);
        s.push("msg", None, 7, 100, 200);
        s.push("send", Some("msg"), 7, 100, 130);
        s.push("recv", Some("msg"), 7, 120, 150); // overlaps send by 10
        s.push("recv", Some("msg"), 8, 150, 200); // another message
        s.push("msg", None, 8, 140, 210);
        let h = s.self_times("msg");
        assert_eq!(h.len(), 2);
        // msg 7: 100 - 50 covered = 50; msg 8: 70 - 50 = 20.
        assert_eq!(h.max(), 50);
        assert!(h.quantile(0.01) < 21.0);
    }

    #[test]
    fn buffer_is_bounded() {
        let mut s = Spans::with_capacity(2);
        for i in 0..5 {
            s.push("x", None, i, 0, 1);
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
    }
}
