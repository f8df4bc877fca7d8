//! Named counters and histograms aggregated from the event stream.

use std::collections::BTreeMap;

use crate::{Event, EventSink, FaultKind};

/// Running state of one histogram: count/sum/min/max plus power-of-two
/// buckets (`buckets[i]` counts observations in `[2^i, 2^(i+1))`, with 0
/// clamped into bucket 0 — the same bucketing `SimResult` uses for thread
/// sizes).
#[derive(Debug, Clone, Default, PartialEq)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let bucket = (63 - value.max(1).leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }
}

/// A registry of named counters and histograms that doubles as an
/// [`EventSink`]: feed it the engine's event stream (directly, or by
/// setting `SimConfig::observe`) and it aggregates the standard metric set
/// — thread lifecycle counts, squash reasons, fault counts, cache hit/miss,
/// threads-in-flight peak, and thread-size / spawn-to-commit-latency
/// histograms.
///
/// Counter and histogram names are `&'static str` so the hot recording
/// path never allocates; [`snapshot`](MetricsRegistry::snapshot) converts
/// to owned, serialisable [`Metrics`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    in_flight: u64,
    in_flight_peak: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the named counter, creating it at zero.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Increment the named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Freeze the registry into an owned, serialisable snapshot.
    ///
    /// Two bookkeeping counters are materialised at snapshot time:
    /// `threads_in_flight` (threads spawned but not yet retired — zero for
    /// any run that drained) and `threads_in_flight_peak`.
    pub fn snapshot(&self) -> Metrics {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .map(|(name, value)| CounterSnapshot {
                name: (*name).to_string(),
                value: *value,
            })
            .collect();
        counters.push(CounterSnapshot {
            name: "threads_in_flight".to_string(),
            value: self.in_flight,
        });
        counters.push(CounterSnapshot {
            name: "threads_in_flight_peak".to_string(),
            value: self.in_flight_peak,
        });
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: (*name).to_string(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                buckets: h.buckets.clone(),
            })
            .collect();
        Metrics {
            counters,
            histograms,
        }
    }
}

impl EventSink for MetricsRegistry {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::ThreadSpawned { speculative, .. } => {
                self.inc("threads_spawned");
                if speculative {
                    self.inc("speculative_spawns");
                }
                self.in_flight += 1;
                self.in_flight_peak = self.in_flight_peak.max(self.in_flight);
            }
            Event::ThreadSquashed { reason, .. } => {
                self.inc("threads_squashed");
                self.inc(reason.counter());
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            Event::ThreadCommitted {
                cycle,
                spawn_cycle,
                size,
                ..
            } => {
                self.inc("threads_committed");
                self.observe("thread_size", size);
                self.observe("spawn_to_commit_cycles", cycle.saturating_sub(spawn_cycle));
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            Event::ViolationDetected { .. } => self.inc("violations"),
            Event::CacheAccess { hit, .. } => {
                self.inc(if hit { "cache_hits" } else { "cache_misses" });
            }
            Event::SpawnGated { reason, .. } => {
                self.inc("spawns_gated");
                self.inc(reason.counter());
            }
            Event::PairDemoted { .. } => self.inc("pairs_demoted"),
            Event::FaultInjected { kind, .. } => {
                self.inc("faults_injected");
                self.inc(kind.counter());
                if let FaultKind::CacheJitter { cycles } = kind {
                    self.add("fault_jitter_cycles", cycles);
                }
            }
        }
    }
}

/// One counter in a [`Metrics`] snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Counter name (snake_case, stable across versions).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

serde::impl_serde_struct!(CounterSnapshot { name, value });

/// One histogram in a [`Metrics`] snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name (snake_case, stable across versions).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (zero when empty).
    pub min: u64,
    /// Largest observed value (zero when empty).
    pub max: u64,
    /// Power-of-two buckets: `buckets[i]` counts values in
    /// `[2^i, 2^(i+1))`, with 0 clamped into bucket 0.
    pub buckets: Vec<u64>,
}

serde::impl_serde_struct!(HistogramSnapshot {
    name,
    count,
    sum,
    min,
    max,
    buckets
});

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen, serialisable snapshot of a [`MetricsRegistry`]. Carried on
/// `SimResult::metrics` when `SimConfig::observe` is set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

serde::impl_serde_struct!(Metrics {
    counters,
    histograms
});

impl Metrics {
    /// Value of a counter (zero if absent from the snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateReason, SquashReason};

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1049);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 and 1 -> bucket 0; 2,3 -> bucket 1; 4,7 -> bucket 2; 8 -> 3; 1024 -> 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn registry_folds_lifecycle_events() {
        let mut reg = MetricsRegistry::new();
        reg.record(&Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        });
        reg.record(&Event::ThreadSpawned {
            thread: 1,
            unit: 1,
            cycle: 4,
            speculative: true,
        });
        reg.record(&Event::ThreadSpawned {
            thread: 2,
            unit: 2,
            cycle: 6,
            speculative: true,
        });
        reg.record(&Event::ThreadSquashed {
            thread: 2,
            unit: 2,
            cycle: 9,
            reason: SquashReason::ControlMisspeculation,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 0,
            unit: 0,
            cycle: 20,
            spawn_cycle: 0,
            size: 32,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 1,
            unit: 1,
            cycle: 30,
            spawn_cycle: 4,
            size: 16,
        });
        reg.record(&Event::CacheAccess {
            thread: 0,
            unit: 0,
            cycle: 3,
            hit: true,
        });
        reg.record(&Event::CacheAccess {
            thread: 0,
            unit: 0,
            cycle: 5,
            hit: false,
        });
        reg.record(&Event::FaultInjected {
            thread: 1,
            unit: 1,
            cycle: 5,
            kind: FaultKind::CacheJitter { cycles: 4 },
        });
        reg.record(&Event::SpawnGated {
            thread: 0,
            unit: 0,
            cycle: 7,
            reason: GateReason::LowConfidence,
        });
        reg.record(&Event::SpawnGated {
            thread: 0,
            unit: 0,
            cycle: 8,
            reason: GateReason::Demoted,
        });
        reg.record(&Event::PairDemoted {
            thread: 2,
            unit: 2,
            cycle: 9,
            sp: 3,
            cqip: 8,
        });

        let m = reg.snapshot();
        assert_eq!(m.counter("threads_spawned"), 3);
        assert_eq!(m.counter("speculative_spawns"), 2);
        assert_eq!(m.counter("threads_committed"), 2);
        assert_eq!(m.counter("threads_squashed"), 1);
        assert_eq!(m.counter("squashed_control_misspeculation"), 1);
        assert_eq!(m.counter("cache_hits"), 1);
        assert_eq!(m.counter("cache_misses"), 1);
        assert_eq!(m.counter("faults_injected"), 1);
        assert_eq!(m.counter("fault_cache_jitters"), 1);
        assert_eq!(m.counter("fault_jitter_cycles"), 4);
        assert_eq!(m.counter("spawns_gated"), 2);
        assert_eq!(m.counter("gated_low_confidence"), 1);
        assert_eq!(m.counter("gated_demoted"), 1);
        assert_eq!(m.counter("pairs_demoted"), 1);
        assert_eq!(m.counter("threads_in_flight"), 0);
        assert_eq!(m.counter("threads_in_flight_peak"), 3);
        let sizes = m.histogram("thread_size").expect("histogram");
        assert_eq!(sizes.count, 2);
        assert_eq!(sizes.sum, 48);
        let lat = m.histogram("spawn_to_commit_cycles").expect("histogram");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 46); // 20 + 26
        assert!((lat.mean() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut reg = MetricsRegistry::new();
        reg.record(&Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 0,
            unit: 0,
            cycle: 11,
            spawn_cycle: 0,
            size: 5,
        });
        let m = reg.snapshot();
        let s = serde_json::to_string(&m).expect("serialize");
        let back: Metrics = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(m, back);
    }
}
