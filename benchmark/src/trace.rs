//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program, around the driver's calls
//! into each layer: one [`Span`] per tick-level call, and a [`Rollup`]
//! (call count + total time) for the per-job calls that are too many to
//! keep one by one. Everything stays in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One timed call. `tick` is the identifier every span and rollup of the
/// same tick-level event shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub tick: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-call timings of one kind of call, summed while `parent` was the
/// innermost open span.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    pub name: &'static str,
    pub parent: u32,
    pub tick: u32,
    pub calls: u64,
    pub total_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    rollups: Vec<Rollup>,
    open: Vec<u32>,
    tick: u32,
    /// Rollups still accumulating under the innermost open span.
    pending: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            rollups: Vec::new(),
            open: Vec::new(),
            tick: 0,
            pending: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next tick-level event; later spans carry its number.
    pub fn begin_tick(&mut self) {
        self.flush_pending();
        self.tick += 1;
    }

    /// Runs `f` inside a new span named `name`, child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.flush_pending();
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            tick: self.tick,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.flush_pending();
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Times one call of a per-job operation into the rollup `name`.
    ///
    /// # Panics
    ///
    /// Panics outside any span: a rollup needs a parent to be subtracted
    /// from.
    pub fn roll<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        assert!(!self.open.is_empty(), "rollup {name} outside any span");
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        match self.pending.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, calls, total)) => {
                *calls += 1;
                *total += ns;
            }
            None => self.pending.push((name, 1, ns)),
        }
        out
    }

    fn flush_pending(&mut self) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        for (name, calls, total_ns) in self.pending.drain(..) {
            self.rollups.push(Rollup {
                name,
                parent,
                tick: self.tick,
                calls,
                total_ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn rollups(&self) -> &[Rollup] {
        &self.rollups
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.spans, &self.rollups)
    }

    /// The whole trace as a JSON document, one span or rollup per line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("id", Value::from(u64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                    ),
                    ("tick", Value::from(u64::from(s.tick))),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                ])
                .to_line()
            })
            .collect();
        let rollups: Vec<String> = self
            .rollups
            .iter()
            .map(|r| {
                Value::obj([
                    ("name", Value::str(r.name)),
                    ("parent", Value::from(u64::from(r.parent))),
                    ("tick", Value::from(u64::from(r.tick))),
                    ("calls", Value::from(r.calls)),
                    ("total_ns", Value::from(r.total_ns)),
                ])
                .to_line()
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed},\n\"spans\": [\n{}\n],\n\"rollups\": [\n{}\n]}}\n",
            Value::str(workload).to_line(),
            spans.join(",\n"),
            rollups.join(",\n")
        )
    }
}

/// Totals of one span or rollup name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    /// Time inside calls of this name, children included.
    pub total_ns: u64,
    /// `total_ns` minus the part child spans and rollups cover.
    pub self_ns: u64,
    /// Per-call durations in milliseconds (spans only; rollups keep none).
    pub call_ms: Vec<f64>,
}

/// Per-name totals with self time separated from children's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerTotals>,
}

impl Summary {
    pub fn of(spans: &[Span], rollups: &[Rollup]) -> Summary {
        // A span's self time is its duration minus what its direct
        // children cover; children never overlap (the driver is
        // single-threaded), so covered time is a plain sum.
        let mut covered = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.duration_ns();
            }
        }
        for rollup in rollups {
            covered[rollup.parent as usize] += rollup.total_ns;
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for span in spans {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(covered[span.id as usize]);
            layer.call_ms.push(span.duration_ns() as f64 / 1e6);
        }
        for rollup in rollups {
            let layer = layers.entry(rollup.name).or_default();
            layer.calls += rollup.calls;
            layer.total_ns += rollup.total_ns;
            layer.self_ns += rollup.total_ns;
        }
        Summary { layers }
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.calls)
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / 1e9)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e9)
    }

    pub fn call_ms(&self, name: &str) -> &[f64] {
        self.layers.get(name).map_or(&[], |l| &l.call_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            tick: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_rollups() {
        let spans = [
            span("root", 0, None, 0, 1_000),
            span("tick", 1, Some(0), 100, 600),
            span("capture", 2, Some(1), 100, 300),
            span("pass", 3, Some(1), 300, 550),
            span("tick", 4, Some(0), 700, 900),
        ];
        let rollups = [
            Rollup {
                name: "submit",
                parent: 0,
                tick: 0,
                calls: 4,
                total_ns: 80,
            },
            Rollup {
                name: "schedule",
                parent: 1,
                tick: 0,
                calls: 2,
                total_ns: 30,
            },
        ];
        let summary = Summary::of(&spans, &rollups);
        // root: 1000 − (500 + 200 tick spans) − 80 submit = 220.
        assert_eq!(summary.layers["root"].self_ns, 220);
        // ticks: (500 − 200 − 250 − 30) + 200 = 220.
        assert_eq!(summary.layers["tick"].self_ns, 220);
        assert_eq!(summary.layers["tick"].total_ns, 700);
        assert_eq!(summary.layers["tick"].calls, 2);
        assert_eq!(summary.layers["capture"].self_ns, 200);
        assert_eq!(summary.layers["submit"].calls, 4);
        assert_eq!(summary.layers["submit"].self_ns, 80);
        // Self times partition the root's duration exactly.
        let total: u64 = summary.layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 1_000);
        assert_eq!(summary.call_ms("tick"), &[0.0005, 0.0002]);
        assert_eq!(summary.total_s("missing"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_attributes_rollups_to_the_innermost() {
        let mut tracer = Tracer::new();
        tracer.span("root", |t| {
            t.roll("submit", || ());
            t.roll("submit", || ());
            t.begin_tick();
            t.span("tick", |t| {
                t.roll("schedule", || ());
                t.span("pass", |_| ());
                t.roll("schedule", || ());
            });
            t.roll("submit", || ());
        });
        let names: Vec<_> = tracer
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.tick))
            .collect();
        assert_eq!(
            names,
            [
                ("root", None, 0),
                ("tick", Some(0), 1),
                ("pass", Some(1), 1)
            ]
        );
        let rolls: Vec<_> = tracer
            .rollups()
            .iter()
            .map(|r| (r.name, r.parent, r.tick, r.calls))
            .collect();
        assert_eq!(
            rolls,
            [
                ("submit", 0, 0, 2),
                ("schedule", 1, 1, 1),
                ("schedule", 1, 1, 1),
                ("submit", 0, 1, 1)
            ]
        );
        for s in tracer.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let summary = tracer.summary();
        let total: u64 = summary.layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, tracer.spans()[0].duration_ns());
        assert!(crate::json::parse(&tracer.to_json("w", 1)).is_ok());
    }
}
