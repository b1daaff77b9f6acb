//! The traced run's spans: recorded in memory from the benchmark's own
//! call sites, summarized as self times, reconciled against the root,
//! written out when the run ends.
//!
//! A span is `{name, start, end, parent, request}`; spans of one
//! operation share `request`. A span's self time is its duration minus
//! the part of it that its children cover (children may overlap each
//! other and overhang the parent).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span, and the id [`Tracer::begin`] returns when
/// recording is off.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span, or [`NONE`].
    pub parent: u32,
    pub request: u64,
}

/// Span recorder. With recording off, `begin`/`end` are one predictable
/// branch each, so workloads call them unconditionally and the untraced
/// run executes the same code.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Recording stops by itself at this many spans, so a long traced
    /// run cannot exhaust memory; the summary says how many were kept.
    cap: usize,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer { recording: false, epoch: Instant::now(), spans: Vec::new(), cap }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on && self.spans.len() < self.cap;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.recording {
            return NONE;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write `header` then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many, total duration, total self time (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals by span name.
pub type SpanTotals = BTreeMap<&'static str, NameTotals>;

/// Self time per span name: duration minus the union of the children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> SpanTotals {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut totals = SpanTotals::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(s.end));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let duration = s.end - s.start;
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    totals
}

/// `Σ stages + residual = root`, per operation, in nanoseconds. The
/// residual is whatever the named stages do not explain; it is printed,
/// never dropped, and may be negative when stages overlap in time.
#[derive(Clone, Debug, PartialEq)]
pub struct Reconciliation {
    pub root_ns: f64,
    pub stages: Vec<(String, f64)>,
}

impl Reconciliation {
    pub fn explained_ns(&self) -> f64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }

    pub fn residual_ns(&self) -> f64 {
        self.root_ns - self.explained_ns()
    }

    pub fn residual_share(&self) -> f64 {
        self.residual_ns() / self.root_ns
    }

    /// Share of the root that the stages whose name starts with one of
    /// `prefixes` account for.
    pub fn share_of(&self, prefixes: &[&str]) -> f64 {
        let ns: f64 = self
            .stages
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| ns)
            .sum();
        ns / self.root_ns
    }

    pub fn line(&self, workload: &str, unit_of_root: &str) -> String {
        let mut line = format!("reconcile {workload}:");
        for (i, (name, ns)) in self.stages.iter().enumerate() {
            line += &format!("{} {name} {ns:.0}", if i == 0 { "" } else { " +" });
        }
        line += &format!(
            " + residual {:.0} = root {:.0} ns per {unit_of_root} (residual share {:.3})",
            self.residual_ns(),
            self.root_ns,
            self.residual_share()
        );
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root 0..100; a 10..40 with its own child 20..30; b 50..70.
        let spans = [
            span("root", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("leaf", 20, 30, 1),
            span("b", 50, 70, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["a"], NameTotals { count: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(t["leaf"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 20);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_with_overlapping_and_overhanging_children() {
        // Children 10..50 and 30..70 overlap (union 60); 90..120
        // overhangs the parent's end (10 counted); 0..0 is empty.
        let spans = [
            span("root", 0, 100, NONE),
            span("x", 10, 50, 0),
            span("x", 30, 70, 0),
            span("x", 90, 120, 0),
            span("x", 0, 0, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 60 - 10);
        assert_eq!(t["x"].count, 4);
        assert_eq!(t["x"].total_ns, 40 + 40 + 30);
    }

    #[test]
    fn tracer_records_only_while_recording_and_under_its_cap() {
        let mut t = Tracer::new(3);
        assert_eq!(t.begin("off", NONE, 1), NONE);
        t.end(NONE);
        assert!(t.spans().is_empty());
        t.set_recording(true);
        let root = t.begin("root", NONE, 7);
        let child = t.begin("child", root, 7);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end >= t.spans()[1].end);
        let _ = t.begin("third", NONE, 8);
        // At the cap: asking to record again is refused.
        t.set_recording(true);
        assert!(!t.recording());
    }

    #[test]
    fn reconciliation_arithmetic() {
        let r = Reconciliation {
            root_ns: 14_000.0,
            stages: vec![
                ("client.write".into(), 2_000.0),
                ("core.forward".into(), 3_000.0),
                ("core.featurize".into(), 1_000.0),
            ],
        };
        assert_eq!(r.explained_ns(), 6_000.0);
        assert_eq!(r.residual_ns(), 8_000.0);
        assert!((r.residual_share() - 8.0 / 14.0).abs() < 1e-12);
        assert!((r.share_of(&["core."]) - 4.0 / 14.0).abs() < 1e-12);
        let line = r.line("probe", "round trip");
        assert!(line.starts_with("reconcile probe: client.write 2000 + core.forward 3000"));
        assert!(
            line.ends_with("+ residual 8000 = root 14000 ns per round trip (residual share 0.571)")
        );
        // Overlapping stages can explain more than the root: the
        // residual goes negative instead of being clamped away.
        let over = Reconciliation { root_ns: 10.0, stages: vec![("a".into(), 12.0)] };
        assert_eq!(over.residual_ns(), -2.0);
    }
}
