//! Spans recorded by the benchmark around its own calls into each layer's
//! public entry point, and the self-time arithmetic of the top-down replay.
//!
//! Spans stay in memory while a run measures and are written out (one JSON
//! object per line) when it ends. Tracing off, [`Tracer::record`] is a
//! branch and nothing else.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: what was called, for which request, under which parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Position in the recorder (what `parent` refers to).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// Layer entry point, e.g. `router.rank`.
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Record a finished call; returns its span id (`usize::MAX` when off).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len();
        spans.push(Span { id, parent, request, name, start_us: us(start), end_us: us(end) });
        id
    }

    /// Time `f`, record it as a span, and return its result, duration and
    /// span id.
    pub fn time<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, request, parent, start, end);
        (out, end - start, id)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span recorder poisoned").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, parent, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Measured cost of recording one span, in microseconds (calibrated on a
/// private recorder so the traced run can state its own overhead).
pub fn span_cost_us() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        std::hint::black_box(t.record("calibrate", i as u64, None, now, now));
    }
    start.elapsed().as_secs_f64() * 1e6 / N as f64
}

/// One replayed request, top down: the entry points called in sequence
/// (outermost first), then — if the request fans out — one chain per branch
/// starting at the fan-out's entry point. Durations in microseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Sequential entry points, outermost first.
    pub top: Vec<(&'static str, f64)>,
    /// Per-branch chains below the fan-out (empty when there is none).
    pub branches: Vec<Vec<(&'static str, f64)>>,
}

/// Self times along a replayed request's critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimes {
    /// `(layer, self time)` along the critical path, outermost first.
    pub layers: Vec<(&'static str, f64)>,
    /// Slowest minus fastest branch at the fan-out (0 without one).
    pub skew: f64,
    /// Time an inner entry point took beyond its caller (the sum of the
    /// negative self times, as a positive number): the part of the request
    /// the replay cannot place in any layer.
    pub unaccounted: f64,
    /// The outermost entry point's duration.
    pub total: f64,
}

/// A layer's self time is its entry point's time minus the next entry
/// point's time; at a fan-out the next entry is the slowest branch, and the
/// path continues down that branch.
pub fn self_times(replay: &Replay) -> SelfTimes {
    let mut path: Vec<(&'static str, f64)> = replay.top.clone();
    let mut skew = 0.0;
    if !replay.branches.is_empty() {
        let heads: Vec<f64> =
            replay.branches.iter().map(|b| b.first().map_or(0.0, |e| e.1)).collect();
        let (slowest, _) = heads
            .iter()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |best, (i, &d)| if d > best.1 { (i, d) } else { best });
        let fastest = heads.iter().copied().fold(f64::INFINITY, f64::min);
        skew = heads[slowest] - fastest;
        path.extend_from_slice(&replay.branches[slowest]);
    }
    let layers: Vec<(&'static str, f64)> = path
        .iter()
        .enumerate()
        .map(|(i, &(name, d))| (name, d - path.get(i + 1).map_or(0.0, |next| next.1)))
        .collect();
    let unaccounted = layers.iter().map(|&(_, s)| (-s).max(0.0)).sum();
    SelfTimes { layers, skew, unaccounted, total: path.first().map_or(0.0, |e| e.1) }
}

/// Self times accumulated over many replayed requests, layers in path order.
#[derive(Clone, Debug, Default)]
pub struct SelfTable {
    layers: Vec<(&'static str, Vec<f64>)>,
    skews: Vec<f64>,
    unaccounted: f64,
    total: f64,
}

impl SelfTable {
    /// Fold in one replayed request.
    pub fn add(&mut self, replay: &Replay) {
        let st = self_times(replay);
        for (name, s) in st.layers {
            match self.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(s),
                None => self.layers.push((name, vec![s])),
            }
        }
        if !replay.branches.is_empty() {
            self.skews.push(st.skew);
        }
        self.unaccounted += st.unaccounted;
        self.total += st.total;
    }

    /// Fan-out skews seen so far.
    pub fn skews(&self) -> &[f64] {
        &self.skews
    }

    /// Unaccounted time as a share of all replayed requests' total time.
    pub fn unaccounted_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.unaccounted / self.total
        }
    }

    /// Print each layer's median self time and its share of the summed
    /// self times.
    pub fn print(&self) {
        let medians: Vec<(&str, f64)> =
            self.layers.iter().map(|(n, v)| (*n, crate::stats::median(v))).collect();
        let sum: f64 = medians.iter().map(|m| m.1).sum();
        println!("  self time per layer (median over replayed requests):");
        for (name, m) in medians {
            println!(
                "    {name:<22} {m:>12.1} us  {:>5.1}%",
                100.0 * m / sum.max(f64::MIN_POSITIVE)
            );
        }
        println!("    unaccounted share     {:>12.4}", self.unaccounted_share());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accumulates_in_path_order() {
        let mut t = SelfTable::default();
        for full in [10.0, 14.0] {
            t.add(&Replay {
                top: vec![("client", full), ("engine", 12.0), ("leaf", 5.0)],
                branches: vec![],
            });
        }
        assert_eq!(
            t.layers.iter().map(|l| l.0).collect::<Vec<_>>(),
            vec!["client", "engine", "leaf"]
        );
        assert_eq!(t.layers[0].1, vec![-2.0, 2.0]);
        assert_eq!(t.unaccounted_share(), 2.0 / 24.0);
        assert!(t.skews().is_empty());
    }

    #[test]
    fn self_time_follows_the_slowest_branch() {
        let replay = Replay {
            top: vec![("client", 100.0), ("router", 90.0)],
            branches: vec![
                vec![("shard", 60.0), ("engine", 50.0), ("leaf", 45.0)],
                vec![("shard", 80.0), ("engine", 70.0), ("leaf", 40.0)],
            ],
        };
        let st = self_times(&replay);
        assert_eq!(
            st.layers,
            vec![
                ("client", 10.0),
                ("router", 10.0),
                ("shard", 10.0),
                ("engine", 30.0),
                ("leaf", 40.0)
            ]
        );
        assert_eq!(st.skew, 20.0);
        assert_eq!(st.unaccounted, 0.0);
        assert_eq!(st.total, 100.0);
        // self times add up to the outermost time
        assert_eq!(st.layers.iter().map(|l| l.1).sum::<f64>(), st.total);
    }

    #[test]
    fn an_inner_call_slower_than_its_caller_is_unaccounted() {
        let replay = Replay {
            top: vec![("client", 10.0), ("engine", 12.0), ("leaf", 5.0)],
            branches: vec![],
        };
        let st = self_times(&replay);
        assert_eq!(st.layers, vec![("client", -2.0), ("engine", 7.0), ("leaf", 5.0)]);
        assert_eq!(st.unaccounted, 2.0);
        assert_eq!(st.skew, 0.0);
    }

    #[test]
    fn recorder_keeps_spans_in_memory_and_is_silent_when_off() {
        let off = Tracer::new(false);
        let (v, _, id) = off.time("x", 1, None, || 7);
        assert_eq!((v, id), (7, usize::MAX));
        assert!(off.is_empty());

        let on = Tracer::new(true);
        let (_, _, root) = on.time("root", 3, None, || ());
        let (_, _, child) = on.time("child", 3, Some(root), || ());
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].end_us >= spans[root].start_us);
        assert!(span_cost_us() > 0.0);
    }
}
