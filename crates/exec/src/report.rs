//! Structured outcomes: per-cell results, task errors, and the batch
//! report callers always get back — degraded, never aborted.

use specmt_obs::BatchTotals;

/// Why a cell was skipped without ever being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SkipReason {
    /// The whole-batch budget expired while the cell was still queued.
    BudgetExhausted,
}

serde::impl_serde_enum!(SkipReason { BudgetExhausted });

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::BudgetExhausted => write!(f, "batch budget exhausted"),
        }
    }
}

/// The terminal outcome of one batch cell.
///
/// The first two variants carry a value in the batch result; the last
/// three are degradations — the cell's slot is `None` but the batch still
/// returns, with the outcome on record.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after the given number of retries.
    Retried {
        /// Retries consumed before the successful attempt.
        retries: u32,
    },
    /// Every attempt overran the watchdog deadline (or the batch budget
    /// expired mid-attempt).
    TimedOut {
        /// Total attempts made.
        attempts: u32,
    },
    /// Every retry was consumed and the final attempt panicked.
    Panicked {
        /// Total attempts made.
        attempts: u32,
        /// The final panic's message.
        message: String,
    },
    /// Never attempted.
    Skipped {
        /// Why the cell was passed over.
        reason: SkipReason,
    },
}

serde::impl_serde_enum!(CellOutcome {
    Ok,
    Retried { retries },
    TimedOut { attempts },
    Panicked { attempts, message },
    Skipped { reason },
});

impl CellOutcome {
    /// Whether the cell produced a value (first try or after retries).
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok | CellOutcome::Retried { .. })
    }

    /// Whether the cell degraded (no value).
    pub fn is_degraded(&self) -> bool {
        !self.is_ok()
    }
}

impl std::fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellOutcome::Ok => write!(f, "ok"),
            CellOutcome::Retried { retries } => write!(f, "ok after {retries} retries"),
            CellOutcome::TimedOut { attempts } => {
                write!(f, "timed out ({attempts} attempts)")
            }
            CellOutcome::Panicked { attempts, message } => {
                write!(f, "panicked ({attempts} attempts): {message}")
            }
            CellOutcome::Skipped { reason } => write!(f, "skipped: {reason}"),
        }
    }
}

/// What one failed attempt did.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskErrorKind {
    /// The attempt panicked; the payload's message was captured at the
    /// `catch_unwind` isolation boundary.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The attempt overran the per-cell watchdog deadline.
    DeadlineExceeded {
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
}

serde::impl_serde_enum!(TaskErrorKind {
    Panicked { message },
    DeadlineExceeded { deadline_ms },
});

/// A structured record of one failed attempt (retried-over failures
/// included), as collected in [`BatchReport::errors`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskError {
    /// Batch index of the cell.
    pub cell: u64,
    /// The cell's label.
    pub label: String,
    /// 0-based attempt number that failed.
    pub attempt: u32,
    /// How it failed.
    pub kind: TaskErrorKind,
}

serde::impl_serde_struct!(TaskError {
    cell,
    label,
    attempt,
    kind,
});

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} `{}` attempt {}: ",
            self.cell, self.label, self.attempt
        )?;
        match &self.kind {
            TaskErrorKind::Panicked { message } => write!(f, "panicked: {message}"),
            TaskErrorKind::DeadlineExceeded { deadline_ms } => {
                write!(f, "exceeded the {deadline_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// Whether every cell of a batch completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every cell produced a value.
    Complete,
    /// At least one cell timed out, panicked out, or was skipped; the
    /// batch still returned with partial results.
    Degraded,
}

serde::impl_serde_enum!(BatchStatus { Complete, Degraded });

/// One cell's entry in the [`BatchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The task's label.
    pub label: String,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

serde::impl_serde_struct!(CellReport { label, outcome });

/// The executor's account of one batch: a per-cell outcome for every
/// submitted task — callers always get partial results plus this record
/// instead of an abort.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// [`BatchStatus::Degraded`] iff any cell failed to produce a value.
    pub status: BatchStatus,
    /// Worker seats the batch ran on.
    pub jobs: u64,
    /// One entry per submitted cell, in submission order.
    pub cells: Vec<CellReport>,
    /// Total re-queues across the batch (including cells that degraded
    /// anyway).
    pub retries: u64,
    /// Worker threads lost (abandoned past a deadline or killed by chaos)
    /// and replaced.
    pub workers_lost: u64,
    /// Every failed attempt, in resolution order.
    pub errors: Vec<TaskError>,
    /// Wall-clock duration of the batch, in milliseconds.
    pub elapsed_ms: u64,
}

serde::impl_serde_struct!(BatchReport {
    status,
    jobs,
    cells,
    retries,
    workers_lost,
    errors,
    elapsed_ms,
});

impl BatchReport {
    /// Cells that produced a value.
    pub fn completed(&self) -> u64 {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count() as u64
    }

    /// Cells that degraded.
    pub fn degraded(&self) -> u64 {
        self.cells.len() as u64 - self.completed()
    }

    /// Whether any cell degraded.
    pub fn is_degraded(&self) -> bool {
        self.status == BatchStatus::Degraded
    }

    /// The first degraded cell, if any — the structured error a caller
    /// that needs a *complete* batch reports instead of unwinding.
    pub fn first_degraded(&self) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.outcome.is_degraded())
    }

    /// The totals the task-event conservation auditor
    /// ([`specmt_obs::audit_batch`]) must reproduce from the event stream
    /// alone.
    pub fn totals(&self) -> BatchTotals {
        let mut t = BatchTotals {
            submitted: self.cells.len() as u64,
            retries: self.retries,
            ..BatchTotals::default()
        };
        for c in &self.cells {
            match c.outcome {
                CellOutcome::Ok | CellOutcome::Retried { .. } => t.completed += 1,
                CellOutcome::TimedOut { .. } => t.timed_out += 1,
                CellOutcome::Panicked { .. } => t.panicked += 1,
                CellOutcome::Skipped { .. } => t.skipped += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BatchReport {
        BatchReport {
            status: BatchStatus::Degraded,
            jobs: 4,
            cells: vec![
                CellReport {
                    label: "a".into(),
                    outcome: CellOutcome::Ok,
                },
                CellReport {
                    label: "b".into(),
                    outcome: CellOutcome::Retried { retries: 2 },
                },
                CellReport {
                    label: "c".into(),
                    outcome: CellOutcome::TimedOut { attempts: 3 },
                },
                CellReport {
                    label: "d".into(),
                    outcome: CellOutcome::Panicked {
                        attempts: 1,
                        message: "boom".into(),
                    },
                },
                CellReport {
                    label: "e".into(),
                    outcome: CellOutcome::Skipped {
                        reason: SkipReason::BudgetExhausted,
                    },
                },
            ],
            retries: 4,
            workers_lost: 2,
            errors: vec![
                TaskError {
                    cell: 3,
                    label: "d".into(),
                    attempt: 0,
                    kind: TaskErrorKind::Panicked {
                        message: "boom".into(),
                    },
                },
                TaskError {
                    cell: 2,
                    label: "c".into(),
                    attempt: 2,
                    kind: TaskErrorKind::DeadlineExceeded { deadline_ms: 50 },
                },
            ],
            elapsed_ms: 123,
        }
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = sample_report();
        let s = serde_json::to_string(&report).expect("serialize");
        let back: BatchReport = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(report, back);
    }

    #[test]
    fn totals_partition_the_batch() {
        let report = sample_report();
        let t = report.totals();
        assert_eq!(t.submitted, 5);
        assert_eq!(t.completed, 2);
        assert_eq!(t.timed_out, 1);
        assert_eq!(t.panicked, 1);
        assert_eq!(t.skipped, 1);
        assert_eq!(
            t.completed + t.timed_out + t.panicked + t.skipped,
            t.submitted
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.degraded(), 3);
        assert_eq!(report.first_degraded().map(|c| c.label.as_str()), Some("c"));
    }

    #[test]
    fn outcomes_classify() {
        assert!(CellOutcome::Ok.is_ok());
        assert!(CellOutcome::Retried { retries: 1 }.is_ok());
        assert!(CellOutcome::TimedOut { attempts: 1 }.is_degraded());
        assert!(CellOutcome::Panicked {
            attempts: 1,
            message: String::new()
        }
        .is_degraded());
        assert!(CellOutcome::Skipped {
            reason: SkipReason::BudgetExhausted
        }
        .is_degraded());
    }

    #[test]
    fn errors_render_their_kind() {
        let report = sample_report();
        let shown: Vec<String> = report.errors.iter().map(|e| e.to_string()).collect();
        assert!(shown[0].contains("panicked: boom"));
        assert!(shown[1].contains("50 ms deadline"));
    }
}
