//! Spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Probe::call`]. With tracing on, it records a [`Span`] (name, start,
//! end, parent and run id) in memory; the spans are written out when the
//! run ends. With tracing off it records nothing. Either way it can insert
//! a fixed busy delay before calls into one chosen layer, which is how the
//! sensitivity check shows that a slower layer moves the end-to-end
//! metric mapped to it.

use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `sim.run.paper16.gcc`.
    pub name: String,
    /// The setup repetition or timed pass the span belongs to.
    pub run: u32,
    /// Index of the enclosing span in the same [`Probe`], if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the probe was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the probe was created.
    pub end_ns: u64,
    /// Counts recorded at the same boundary (store counter deltas).
    pub counts: Vec<(String, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A busy delay inserted before every call into one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Delay {
    /// The layer tag, as passed to [`Probe::call`]: `sim`, `harness.load`
    /// or `obs`.
    pub layer: String,
    /// Delay per call.
    pub per_call: Duration,
}

impl Delay {
    /// Layers a delay may target.
    pub const LAYERS: [&'static str; 3] = ["sim", "harness.load", "obs"];

    /// Parses `<layer>:<microseconds>`.
    ///
    /// # Errors
    ///
    /// A message naming what is wrong with `spec`.
    pub fn parse(spec: &str) -> Result<Delay, String> {
        let (layer, us) = spec
            .split_once(':')
            .ok_or_else(|| format!("--delay wants <layer>:<microseconds>, got `{spec}`"))?;
        if !Delay::LAYERS.contains(&layer) {
            return Err(format!("--delay layer must be one of {:?}", Delay::LAYERS));
        }
        let us: u64 = us
            .parse()
            .map_err(|_| format!("--delay microseconds must be a whole number, got `{us}`"))?;
        Ok(Delay {
            layer: layer.to_owned(),
            per_call: Duration::from_micros(us),
        })
    }
}

/// Records spans and applies the optional delay.
#[derive(Debug)]
pub struct Probe {
    tracing: bool,
    delay: Option<Delay>,
    epoch: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Probe {
    /// A probe with tracing off.
    pub fn new(delay: Option<Delay>) -> Probe {
        Probe {
            tracing: false,
            delay,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next run (a setup repetition or a timed pass), traced or
    /// not, and returns its id.
    pub fn begin_run(&mut self, traced: bool) -> u32 {
        self.tracing = traced;
        self.run += 1;
        self.stack.clear();
        self.run
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: impl FnOnce() -> String) -> Option<usize> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name(),
            run: self.run,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Probe::open`], attaching `counts`.
    pub fn close(&mut self, id: Option<usize>, counts: Vec<(String, u64)>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counts = counts;
    }

    /// Calls `f`, a call into `layer`, inside a span named by `name`,
    /// after the configured delay if it targets `layer`.
    pub fn call<T>(
        &mut self,
        layer: &str,
        name: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name);
        if let Some(d) = &self.delay {
            if d.layer == layer {
                crate::host::spin(d.per_call);
            }
        }
        let out = f();
        self.close(id, Vec::new());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of each span, in seconds: its duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if p < spans.len() {
                children[p].push(i);
            }
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.clamp(lo, hi),
                        spans[k].end_ns.clamp(lo, hi),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = lo;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (hi - lo - covered) as f64 * 1e-9
        })
        .collect()
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span], self_s: &[f64]) -> serde_json::Value {
    serde_json::Value::Array(
        spans
            .iter()
            .zip(self_s)
            .map(|(s, &self_time)| {
                let counts = serde_json::Value::Object(
                    s.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), serde_json::Value::UInt(*v)))
                        .collect(),
                );
                serde_json::json!({
                    "name": s.name,
                    "run": s.run,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_s": self_time,
                    "counts": counts,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_owned(),
            run: 1,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("workload", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a` and runs past the parent's end.
            span("b", Some(0), 30, 120),
            span("c", Some(1), 15, 20),
        ];
        let s = self_times(&spans);
        assert!((s[0] - 10e-9).abs() < 1e-15, "{s:?}");
        assert!((s[1] - 25e-9).abs() < 1e-15, "{s:?}");
        assert!((s[2] - 90e-9).abs() < 1e-15, "{s:?}");
        assert!((s[3] - 5e-9).abs() < 1e-15, "{s:?}");
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let mut p = Probe::new(None);
        p.begin_run(false);
        assert_eq!(p.call("sim", || "x".to_owned(), || 7), 7);
        assert!(p.spans().is_empty());
    }

    #[test]
    fn delay_parses_and_rejects() {
        let d = Delay::parse("sim:250").unwrap();
        assert_eq!(d.per_call, Duration::from_micros(250));
        assert!(Delay::parse("store:1").is_err());
        assert!(Delay::parse("sim").is_err());
        assert!(Delay::parse("sim:x").is_err());
    }
}
