//! Executor tuning knobs and the deterministic executor-level chaos plan.

use std::time::Duration;

/// Longest single backoff pause the executor will take before a retry.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Tuning knobs for one batch run.
///
/// The default configuration supervises but never degrades on its own: no
/// deadline, no budget, no chaos, and a small retry allowance that only
/// matters once faults are injected (a deterministic cell that panicked
/// once panics on every retry too, so retries are cheap insurance, not a
/// correctness mechanism).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker seats. `0` means one per available CPU.
    pub jobs: usize,
    /// Per-cell watchdog deadline; attempts running longer are abandoned
    /// and the cell is retried or timed out. `None` disables the watchdog
    /// deadline (the batch budget still applies if set).
    pub deadline: Option<Duration>,
    /// Whole-batch budget; when it expires, queued cells are skipped and
    /// running cells are abandoned. `None` means unbounded.
    pub budget: Option<Duration>,
    /// Re-queues allowed per cell after a fault before it degrades.
    pub max_retries: u32,
    /// First retry's backoff pause; attempt `n` waits `base * 2^(n-1)`,
    /// capped at 200 ms. Purely deterministic — no jitter.
    pub backoff_base: Duration,
    /// Executor-level fault injection, for chaos tests. `None` in normal
    /// operation.
    pub chaos: Option<ExecChaosPlan>,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            jobs: 0,
            deadline: None,
            budget: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            chaos: None,
        }
    }
}

impl ExecConfig {
    /// The actual number of worker seats: `jobs`, or the machine's
    /// available parallelism when `jobs` is 0.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// The deterministic pause before the given (1-based) retry attempt:
    /// `backoff_base * 2^(attempt-1)`, capped at 200 ms.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        self.backoff_base.saturating_mul(factor).min(BACKOFF_CAP)
    }
}

/// Executor-level chaos: which (cell, attempt) pairs panic or wedge, and
/// which attempts take their worker down with them.
///
/// Every draw is a pure function of `(seed, cell, attempt)` — never of the
/// worker seat or wall-clock — so a storm unfolds identically at any
/// `--jobs` count and any schedule, mirroring the simulator-level
/// `FaultPlan` discipline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecChaosPlan {
    /// Master seed decorrelating all draws.
    pub seed: u64,
    /// Probability an attempt panics inside the task.
    pub poison_rate: f64,
    /// Probability an attempt wedges (sleeps past any deadline).
    pub wedge_rate: f64,
    /// Probability a finished attempt kills its worker thread on the way
    /// out (the seat is replaced; the attempt's result still lands).
    pub kill_worker_rate: f64,
    /// Cells that panic on *every* attempt — guaranteed retry exhaustion.
    pub poison_cells: Vec<u64>,
    /// Cells that wedge on every attempt — guaranteed deadline exhaustion
    /// when a deadline is set.
    pub wedge_cells: Vec<u64>,
}

serde::impl_serde_struct!(ExecChaosPlan {
    seed,
    poison_rate,
    wedge_rate,
    kill_worker_rate,
    poison_cells,
    wedge_cells,
});

/// One splitmix64 scramble step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ExecChaosPlan {
    /// A unit-interval draw for one (salt, cell, attempt) triple.
    fn draw(&self, salt: u64, cell: u64, attempt: u32) -> f64 {
        let z = mix(mix(mix(self.seed ^ salt) ^ cell) ^ u64::from(attempt));
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether this attempt of this cell panics.
    pub fn poisons(&self, cell: u64, attempt: u32) -> bool {
        self.poison_cells.contains(&cell)
            || self.draw(0xa5a5_0001, cell, attempt) < self.poison_rate
    }

    /// Whether this attempt of this cell wedges past any deadline.
    pub fn wedges(&self, cell: u64, attempt: u32) -> bool {
        self.wedge_cells.contains(&cell) || self.draw(0xa5a5_0002, cell, attempt) < self.wedge_rate
    }

    /// Whether the worker that ran this attempt dies after resolving it.
    /// Keyed on the attempt, not the seat, so the kill schedule is
    /// independent of which worker happened to pick the cell up.
    pub fn kills_worker(&self, cell: u64, attempt: u32) -> bool {
        self.draw(0xa5a5_0003, cell, attempt) < self.kill_worker_rate
    }

    /// Whether the plan can do anything at all.
    pub fn is_active(&self) -> bool {
        self.poison_rate > 0.0
            || self.wedge_rate > 0.0
            || self.kill_worker_rate > 0.0
            || !self.poison_cells.is_empty()
            || !self.wedge_cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ExecConfig {
            backoff_base: Duration::from_millis(10),
            ..ExecConfig::default()
        };
        assert_eq!(cfg.backoff(0), Duration::ZERO);
        assert_eq!(cfg.backoff(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff(2), Duration::from_millis(20));
        assert_eq!(cfg.backoff(3), Duration::from_millis(40));
        assert_eq!(cfg.backoff(10), Duration::from_millis(200));
        assert_eq!(cfg.backoff(u32::MAX), Duration::from_millis(200));
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(
            ExecConfig {
                jobs: 0,
                ..ExecConfig::default()
            }
            .effective_jobs()
                >= 1
        );
        assert_eq!(
            ExecConfig {
                jobs: 3,
                ..ExecConfig::default()
            }
            .effective_jobs(),
            3
        );
    }

    #[test]
    fn draws_are_deterministic_and_decorrelated() {
        let plan = ExecChaosPlan {
            seed: 7,
            poison_rate: 0.5,
            wedge_rate: 0.5,
            kill_worker_rate: 0.5,
            ..ExecChaosPlan::default()
        };
        for cell in 0..64u64 {
            for attempt in 0..4u32 {
                assert_eq!(plan.poisons(cell, attempt), plan.poisons(cell, attempt));
            }
        }
        // At rate 0.5 over 256 draws, poison and wedge decisions must not be
        // the mirror of each other (distinct salts decorrelate them).
        let agree = (0..256u64)
            .filter(|&c| plan.poisons(c, 0) == plan.wedges(c, 0))
            .count();
        assert!(
            agree > 64 && agree < 192,
            "poison/wedge draws correlated: {agree}/256"
        );
    }

    #[test]
    fn pinned_cells_always_fault() {
        let plan = ExecChaosPlan {
            poison_cells: vec![3],
            wedge_cells: vec![5],
            ..ExecChaosPlan::default()
        };
        for attempt in 0..8 {
            assert!(plan.poisons(3, attempt));
            assert!(plan.wedges(5, attempt));
        }
        assert!(!plan.poisons(4, 0));
        assert!(!plan.wedges(4, 0));
        assert!(plan.is_active());
        assert!(!ExecChaosPlan::default().is_active());
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = ExecChaosPlan {
            seed: 99,
            poison_rate: 0.25,
            wedge_rate: 0.1,
            kill_worker_rate: 0.05,
            poison_cells: vec![1, 2],
            wedge_cells: vec![7],
        };
        let s = serde_json::to_string(&plan).expect("serialize");
        let back: ExecChaosPlan = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(plan, back);
    }
}
