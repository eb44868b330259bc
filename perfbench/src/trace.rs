//! The harness's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the program's public
//! calls (day → `Workload::jobs_for_day` → per-job `build_view_row` →
//! `ProductionSim::finish_day`; `Fleet::advance_day`; `restore`). Each has a
//! name, start, end, the span that caused it, and the day it belongs to; they
//! are kept in memory and written as JSONL when the run ends. Spans *inside*
//! the program are a later change (ROADMAP item 2).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub const DAY: &str = "day";
pub const JOBS_FOR_DAY: &str = "scope-workload.jobs_for_day";
pub const VIEW_BUILD: &str = "core.view_build";
pub const BUILD_ROW: &str = "core.build_view_row";
pub const FINISH_DAY: &str = "core.finish_day";
pub const FLEET_DAY: &str = "core.fleet.advance_day";
pub const RESTORE: &str = "core.restore";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub day: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, day: u32) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            day,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: `(name, spans, total ns, self ns)`, where self time is
    /// a span's duration minus what its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut by_name: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns().saturating_sub(child_ns[i]);
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.ns();
                    e.3 += own;
                }
                None => by_name.push((s.name, 1, s.ns(), own)),
            }
        }
        by_name
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"day\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.day, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let d = r.enter(DAY, 0);
        let c = r.enter(FINISH_DAY, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(c);
        r.exit(d);
        assert_eq!(r.spans()[c].parent, Some(d));
        let t = r.self_times();
        let day = t.iter().find(|e| e.0 == DAY).unwrap();
        let child = t.iter().find(|e| e.0 == FINISH_DAY).unwrap();
        assert_eq!(day.2, day.3 + child.2);
    }
}
