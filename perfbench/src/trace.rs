//! Spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the id of the span that caused it, and for the service the
//! id of the request it belongs to. Spans are kept in memory and
//! written out once, when the run ends. A disabled tracer records
//! nothing: [`Tracer::span`] then just calls its closure.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No parent" / "no request".
pub const NONE: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            NONE
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so its callees can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.span_req(name, parent, NONE, f)
    }

    /// [`Tracer::span`] for one request of the service.
    pub fn span_req<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(NONE);
        }
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            req,
            start: self.ns(start),
            end: self.ns(end),
        });
        out
    }

    pub fn push(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span lock").push(span);
        }
    }

    /// Adds spans a worker collected locally.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans.lock().expect("span lock").extend(spans);
        }
    }

    /// Moves `other`'s spans into this tracer.
    pub fn absorb(&self, other: Tracer) {
        let spans = other.spans.into_inner().expect("span lock");
        self.extend(spans);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Per-name count, total duration and self time. A span's self time
    /// is its duration minus the part of it that its children cover.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != NONE) {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in spans.iter() {
            let duration = s.end.saturating_sub(s.start);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered(kids, s.start, s.end));
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += duration;
            agg.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent name req start_ns end_ns`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered(&mut kids, 0, 100), 20 + 10 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.push(Span {
            id: 1,
            parent: NONE,
            name: "a",
            req: 0,
            start: 0,
            end: 100,
        });
        t.push(Span {
            id: 2,
            parent: 1,
            name: "b",
            req: 0,
            start: 10,
            end: 40,
        });
        t.push(Span {
            id: 3,
            parent: 1,
            name: "b",
            req: 0,
            start: 30,
            end: 60,
        });
        let agg = t.aggregate();
        assert_eq!(agg["a"].self_ns, 50);
        assert_eq!(agg["b"].count, 2);
        assert_eq!(agg["b"].total_ns, 60);
    }
}
