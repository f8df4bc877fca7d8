//! The structured lifecycle events the simulator emits.

/// Why a speculative thread was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashReason {
    /// The spawn was a control misspeculation: the thread's CQIP never
    /// recurred before its spawner's window ended, so the work it did was
    /// off the committed path.
    ControlMisspeculation,
    /// The fault injector spontaneously killed the thread at spawn time
    /// (`FaultPlan::squash_rate`).
    InjectedFault,
}

impl SquashReason {
    /// Every reason, in a stable order (used to check the partition law).
    pub const ALL: [SquashReason; 2] = [
        SquashReason::ControlMisspeculation,
        SquashReason::InjectedFault,
    ];

    /// The counter name a [`MetricsRegistry`](crate::MetricsRegistry) files
    /// this reason under.
    pub fn counter(self) -> &'static str {
        match self {
            SquashReason::ControlMisspeculation => "squashed_control_misspeculation",
            SquashReason::InjectedFault => "squashed_injected_fault",
        }
    }
}

serde::impl_serde_enum!(SquashReason {
    ControlMisspeculation,
    InjectedFault
});

/// Why an adaptive gate declined a spawn attempt (see
/// `specmt_spawn::AdaptivePolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateReason {
    /// The spawning unit's branch-predictor confidence level was below the
    /// policy's `confidence_threshold`.
    LowConfidence,
    /// Every viable candidate pair at the spawn point had been demoted by
    /// the runtime scoreboard.
    Demoted,
}

impl GateReason {
    /// Every reason, in a stable order.
    pub const ALL: [GateReason; 2] = [GateReason::LowConfidence, GateReason::Demoted];

    /// The counter name a [`MetricsRegistry`](crate::MetricsRegistry) files
    /// this reason under.
    pub fn counter(self) -> &'static str {
        match self {
            GateReason::LowConfidence => "gated_low_confidence",
            GateReason::Demoted => "gated_demoted",
        }
    }
}

serde::impl_serde_enum!(GateReason {
    LowConfidence,
    Demoted
});

/// Which fault the injector fired (see `specmt_sim::FaultPlan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A spawn-point activation was silently ignored.
    DroppedSpawn,
    /// A just-spawned thread was marked for a spontaneous squash.
    ForcedSquash,
    /// A predicted live-in value was corrupted before use.
    CorruptedValue,
    /// A cache access was slowed by the given number of extra cycles.
    CacheJitter {
        /// Extra latency added to the access.
        cycles: u64,
    },
    /// A spawning pair was force-removed from the dynamic pair table.
    ForcedRemoval,
}

impl FaultKind {
    /// The counter name a [`MetricsRegistry`](crate::MetricsRegistry) files
    /// this fault under. Matches the `fault_*` fields of `SimResult`.
    pub fn counter(self) -> &'static str {
        match self {
            FaultKind::DroppedSpawn => "fault_dropped_spawns",
            FaultKind::ForcedSquash => "fault_forced_squashes",
            FaultKind::CorruptedValue => "fault_corrupted_values",
            FaultKind::CacheJitter { .. } => "fault_cache_jitters",
            FaultKind::ForcedRemoval => "fault_forced_removals",
        }
    }
}

serde::impl_serde_enum!(FaultKind {
    DroppedSpawn,
    ForcedSquash,
    CorruptedValue,
    CacheJitter { cycles },
    ForcedRemoval,
});

/// One structured simulator lifecycle event.
///
/// Thread ids are per-run sequence numbers: the root (non-speculative)
/// thread is id 0 and every successful spawn — including ones later
/// squashed — gets the next id. `unit` is the thread-unit index the thread
/// ran on; `cycle` is the simulated cycle the event happened at.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A thread claimed a thread unit and began (speculative) execution.
    ThreadSpawned {
        /// Per-run thread id (root = 0).
        thread: u64,
        /// Thread-unit index the thread was assigned.
        unit: u32,
        /// Cycle the spawn happened at.
        cycle: u64,
        /// `false` only for the root thread.
        speculative: bool,
    },
    /// A speculative thread was discarded without committing.
    ThreadSquashed {
        /// Per-run thread id.
        thread: u64,
        /// Thread-unit index freed by the squash.
        unit: u32,
        /// Cycle the unit was released.
        cycle: u64,
        /// Why the thread died.
        reason: SquashReason,
    },
    /// A thread became the oldest and retired its window into the
    /// committed sequential order.
    ThreadCommitted {
        /// Per-run thread id.
        thread: u64,
        /// Thread-unit index freed by the commit.
        unit: u32,
        /// Commit cycle.
        cycle: u64,
        /// Cycle the thread was spawned at (so `cycle - spawn_cycle` is the
        /// spawn-to-commit latency).
        spawn_cycle: u64,
        /// Instructions in the committed window.
        size: u64,
    },
    /// A cross-thread load-store ordering violation restarted a load.
    ViolationDetected {
        /// Per-run thread id of the violating (restarted) thread.
        thread: u64,
        /// Thread-unit index it ran on.
        unit: u32,
        /// Cycle the violation was detected.
        cycle: u64,
    },
    /// A load probed the thread unit's L1 data cache.
    CacheAccess {
        /// Per-run thread id issuing the load.
        thread: u64,
        /// Thread-unit index whose cache was probed.
        unit: u32,
        /// Cycle the access completed.
        cycle: u64,
        /// Whether the block was resident.
        hit: bool,
    },
    /// An adaptive gate declined a spawn attempt. Emitted only when the
    /// gate was the sole decider — every `SpawnGated` event corresponds to
    /// exactly one declined spawn (`SimResult::spawns_gated`, a subset of
    /// `SimResult::spawns_declined`).
    SpawnGated {
        /// Per-run thread id of the thread whose spawn attempt was gated
        /// (the would-be spawner, which stays live).
        thread: u64,
        /// Thread-unit index the spawner runs on.
        unit: u32,
        /// Fetch cycle of the gated spawn point.
        cycle: u64,
        /// Which gate declined.
        reason: GateReason,
    },
    /// The runtime scoreboard permanently demoted a spawning pair. At most
    /// one per `(sp, cqip)` pair per run.
    PairDemoted {
        /// Per-run thread id of the squashed thread whose squash crossed
        /// the demotion threshold (already retired when this fires, like
        /// the forced-squash fault's reference).
        thread: u64,
        /// Thread-unit index that squashed thread ran on.
        unit: u32,
        /// Cycle of the demoting squash.
        cycle: u64,
        /// The demoted pair's spawning point (static pc).
        sp: u32,
        /// The demoted pair's control quasi-independent point (static pc).
        cqip: u32,
    },
    /// The deterministic fault injector fired.
    FaultInjected {
        /// Per-run thread id the fault hit (for [`FaultKind::DroppedSpawn`]
        /// and [`FaultKind::ForcedRemoval`], the thread that *would have
        /// spawned* / was running when the pair was removed).
        thread: u64,
        /// Thread-unit index involved.
        unit: u32,
        /// Cycle the fault fired at.
        cycle: u64,
        /// What the injector did.
        kind: FaultKind,
    },
}

impl Event {
    /// The per-run thread id the event concerns.
    pub fn thread(&self) -> u64 {
        match *self {
            Event::ThreadSpawned { thread, .. }
            | Event::ThreadSquashed { thread, .. }
            | Event::ThreadCommitted { thread, .. }
            | Event::ViolationDetected { thread, .. }
            | Event::CacheAccess { thread, .. }
            | Event::SpawnGated { thread, .. }
            | Event::PairDemoted { thread, .. }
            | Event::FaultInjected { thread, .. } => thread,
        }
    }

    /// The thread-unit index the event happened on.
    pub fn unit(&self) -> u32 {
        match *self {
            Event::ThreadSpawned { unit, .. }
            | Event::ThreadSquashed { unit, .. }
            | Event::ThreadCommitted { unit, .. }
            | Event::ViolationDetected { unit, .. }
            | Event::CacheAccess { unit, .. }
            | Event::SpawnGated { unit, .. }
            | Event::PairDemoted { unit, .. }
            | Event::FaultInjected { unit, .. } => unit,
        }
    }

    /// The simulated cycle the event happened at.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::ThreadSpawned { cycle, .. }
            | Event::ThreadSquashed { cycle, .. }
            | Event::ThreadCommitted { cycle, .. }
            | Event::ViolationDetected { cycle, .. }
            | Event::CacheAccess { cycle, .. }
            | Event::SpawnGated { cycle, .. }
            | Event::PairDemoted { cycle, .. }
            | Event::FaultInjected { cycle, .. } => cycle,
        }
    }

    /// The event's variant name (the key its JSON form is tagged with).
    pub fn name(&self) -> &'static str {
        match self {
            Event::ThreadSpawned { .. } => "ThreadSpawned",
            Event::ThreadSquashed { .. } => "ThreadSquashed",
            Event::ThreadCommitted { .. } => "ThreadCommitted",
            Event::ViolationDetected { .. } => "ViolationDetected",
            Event::CacheAccess { .. } => "CacheAccess",
            Event::SpawnGated { .. } => "SpawnGated",
            Event::PairDemoted { .. } => "PairDemoted",
            Event::FaultInjected { .. } => "FaultInjected",
        }
    }
}

serde::impl_serde_enum!(Event {
    ThreadSpawned { thread, unit, cycle, speculative },
    ThreadSquashed { thread, unit, cycle, reason },
    ThreadCommitted { thread, unit, cycle, spawn_cycle, size },
    ViolationDetected { thread, unit, cycle },
    CacheAccess { thread, unit, cycle, hit },
    SpawnGated { thread, unit, cycle, reason },
    PairDemoted { thread, unit, cycle, sp, cqip },
    FaultInjected { thread, unit, cycle, kind },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_serde() {
        let events = vec![
            Event::ThreadSpawned {
                thread: 0,
                unit: 0,
                cycle: 0,
                speculative: false,
            },
            Event::ThreadSquashed {
                thread: 3,
                unit: 2,
                cycle: 41,
                reason: SquashReason::ControlMisspeculation,
            },
            Event::ThreadCommitted {
                thread: 1,
                unit: 1,
                cycle: 99,
                spawn_cycle: 10,
                size: 64,
            },
            Event::ViolationDetected {
                thread: 1,
                unit: 1,
                cycle: 55,
            },
            Event::CacheAccess {
                thread: 0,
                unit: 0,
                cycle: 7,
                hit: true,
            },
            Event::SpawnGated {
                thread: 1,
                unit: 1,
                cycle: 60,
                reason: GateReason::LowConfidence,
            },
            Event::SpawnGated {
                thread: 0,
                unit: 0,
                cycle: 61,
                reason: GateReason::Demoted,
            },
            Event::PairDemoted {
                thread: 3,
                unit: 2,
                cycle: 44,
                sp: 12,
                cqip: 30,
            },
            Event::FaultInjected {
                thread: 2,
                unit: 3,
                cycle: 12,
                kind: FaultKind::CacheJitter { cycles: 5 },
            },
        ];
        let s = serde_json::to_string(&events).expect("serialize");
        let back: Vec<Event> = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(events, back);
    }

    #[test]
    fn accessors_pull_the_common_fields() {
        let e = Event::ThreadCommitted {
            thread: 7,
            unit: 3,
            cycle: 120,
            spawn_cycle: 80,
            size: 9,
        };
        assert_eq!(e.thread(), 7);
        assert_eq!(e.unit(), 3);
        assert_eq!(e.cycle(), 120);
        assert_eq!(e.name(), "ThreadCommitted");
    }

    #[test]
    fn squash_reasons_enumerate_every_counter() {
        let mut names: Vec<&str> = SquashReason::ALL.iter().map(|r| r.counter()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SquashReason::ALL.len());
    }

    #[test]
    fn gate_reasons_enumerate_every_counter() {
        let mut names: Vec<&str> = GateReason::ALL.iter().map(|r| r.counter()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GateReason::ALL.len());
    }
}
