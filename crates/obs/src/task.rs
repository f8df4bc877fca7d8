//! Task-lifecycle events and the batch conservation auditor.
//!
//! The simulator-level [`Event`](crate::Event) stream answers *what one
//! run's threads did*; this module does the same one level up, for the
//! supervised batch executor (`specmt-exec`) that runs many simulations as
//! one batch. Every cell of a batch emits a small lifecycle: it is
//! submitted once, attempted one or more times, and ends in exactly one
//! terminal state (completed, exhausted after faults, or skipped). The
//! [`audit_batch`] replay checks that lifecycle per cell and the partition
//! law across the batch — completed + exhausted + skipped cells must
//! exactly account for every submitted cell — and
//! [`TaskAuditReport::verify`] cross-checks the stream against the
//! executor's own `BatchReport` totals, exactly as the simulator auditor
//! cross-checks `SimResult`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::AuditError;

/// Why one attempt of a supervised task died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// The attempt panicked and was caught at the isolation boundary.
    Panic,
    /// The attempt overran its watchdog deadline and was abandoned.
    Deadline,
}

serde::impl_serde_enum!(TaskFault { Panic, Deadline });

/// One structured executor lifecycle event.
///
/// `cell` is the task's index in its batch; `attempt` is 0-based (the
/// first try is attempt 0); `worker` is the worker-seat index the attempt
/// ran on.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskEvent {
    /// A cell entered the batch.
    Submitted {
        /// Batch index of the cell.
        cell: u64,
    },
    /// An attempt began executing on a worker.
    Started {
        /// Batch index of the cell.
        cell: u64,
        /// 0-based attempt number.
        attempt: u32,
        /// Worker seat the attempt runs on.
        worker: u32,
    },
    /// An attempt finished successfully — terminal for the cell.
    Completed {
        /// Batch index of the cell.
        cell: u64,
        /// The attempt that succeeded (its value equals the cell's retry
        /// count).
        attempt: u32,
        /// Worker seat that produced the value.
        worker: u32,
    },
    /// An attempt died (panicked or missed its deadline).
    Faulted {
        /// Batch index of the cell.
        cell: u64,
        /// The attempt that died.
        attempt: u32,
        /// Worker seat the attempt was running on.
        worker: u32,
        /// How it died.
        fault: TaskFault,
    },
    /// A faulted cell was re-queued for another attempt.
    Retried {
        /// Batch index of the cell.
        cell: u64,
        /// The upcoming attempt number (previous attempt + 1).
        attempt: u32,
    },
    /// Retries were exhausted (or the batch budget expired mid-attempt) —
    /// terminal for the cell, which degrades instead of aborting the batch.
    Exhausted {
        /// Batch index of the cell.
        cell: u64,
        /// Total attempts made.
        attempts: u32,
        /// The final attempt's fault.
        fault: TaskFault,
    },
    /// The cell was never attempted (batch budget expired while it was
    /// queued) — terminal.
    Skipped {
        /// Batch index of the cell.
        cell: u64,
    },
    /// A worker seat's thread was lost (abandoned past a deadline, or
    /// killed by chaos) and replaced.
    WorkerLost {
        /// The lost worker seat.
        worker: u32,
    },
}

impl TaskEvent {
    /// The event's variant name (the key its JSON form is tagged with).
    pub fn name(&self) -> &'static str {
        match self {
            TaskEvent::Submitted { .. } => "Submitted",
            TaskEvent::Started { .. } => "Started",
            TaskEvent::Completed { .. } => "Completed",
            TaskEvent::Faulted { .. } => "Faulted",
            TaskEvent::Retried { .. } => "Retried",
            TaskEvent::Exhausted { .. } => "Exhausted",
            TaskEvent::Skipped { .. } => "Skipped",
            TaskEvent::WorkerLost { .. } => "WorkerLost",
        }
    }
}

serde::impl_serde_enum!(TaskEvent {
    Submitted { cell },
    Started { cell, attempt, worker },
    Completed { cell, attempt, worker },
    Faulted { cell, attempt, worker, fault },
    Retried { cell, attempt },
    Exhausted { cell, attempts, fault },
    Skipped { cell },
    WorkerLost { worker },
});

/// A thread-safe task-event collector: executor workers, the watchdog and
/// the submitting thread all push into one linearized stream.
///
/// The executor holds per-cell locks across each state transition *and*
/// its event emission, so within one cell the recorded order is always a
/// valid lifecycle; events of different cells interleave freely.
#[derive(Debug, Default)]
pub struct TaskLog {
    events: Mutex<Vec<TaskEvent>>,
}

impl TaskLog {
    /// An empty log.
    pub fn new() -> TaskLog {
        TaskLog::default()
    }

    /// Appends one event.
    pub fn push(&self, ev: TaskEvent) {
        self.events.lock().expect("task log lock").push(ev);
    }

    /// A snapshot of everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<TaskEvent> {
        self.events.lock().expect("task log lock").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("task log lock").len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// End-of-batch totals (from the executor's `BatchReport`) that a task
/// stream audit must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Cells submitted to the batch.
    pub submitted: u64,
    /// Cells that produced a value (first try or after retries).
    pub completed: u64,
    /// Cells whose final attempt missed its deadline.
    pub timed_out: u64,
    /// Cells whose final attempt panicked.
    pub panicked: u64,
    /// Cells never attempted (budget expired while queued).
    pub skipped: u64,
    /// Total re-queues across the batch (including cells that later
    /// degraded anyway).
    pub retries: u64,
}

/// What an [`audit_batch`] of a well-formed task stream found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskAuditReport {
    /// Cells submitted.
    pub submitted: u64,
    /// Cells that completed (terminal `Completed`).
    pub completed: u64,
    /// Cells that exhausted on a deadline fault.
    pub exhausted_deadline: u64,
    /// Cells that exhausted on a panic fault.
    pub exhausted_panic: u64,
    /// Cells skipped without an attempt.
    pub skipped: u64,
    /// Attempts started across the batch.
    pub attempts_started: u64,
    /// Attempts that faulted.
    pub faults: u64,
    /// Re-queues observed.
    pub retries: u64,
    /// Worker threads lost and replaced.
    pub workers_lost: u64,
    /// Cells with no terminal event by the end of the stream. Always zero
    /// for a completed batch.
    pub unresolved_at_end: u64,
}

impl TaskAuditReport {
    /// Cells that ended degraded rather than completed.
    pub fn degraded(&self) -> u64 {
        self.exhausted_deadline + self.exhausted_panic + self.skipped
    }

    /// Check the cross-source conservation laws: every submitted cell must
    /// have resolved exactly once, completed + degraded must partition the
    /// batch, and the stream's totals must equal the executor's own report.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Conservation`] naming the first failed law.
    pub fn verify(&self, expected: &BatchTotals) -> Result<(), AuditError> {
        let law = |name: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(AuditError::Conservation {
                    detail: format!("{name}: event stream says {got}, totals say {want}"),
                })
            }
        };
        if self.unresolved_at_end != 0 {
            return Err(AuditError::Conservation {
                detail: format!(
                    "{} cells still unresolved at end of a completed batch",
                    self.unresolved_at_end
                ),
            });
        }
        if self.completed + self.degraded() != self.submitted {
            return Err(AuditError::Conservation {
                detail: format!(
                    "outcomes do not partition the batch: completed {} + degraded {} != \
                     submitted {}",
                    self.completed,
                    self.degraded(),
                    self.submitted
                ),
            });
        }
        law("submitted cells", self.submitted, expected.submitted)?;
        law("completed cells", self.completed, expected.completed)?;
        law(
            "timed-out cells",
            self.exhausted_deadline,
            expected.timed_out,
        )?;
        law("panicked cells", self.exhausted_panic, expected.panicked)?;
        law("skipped cells", self.skipped, expected.skipped)?;
        law("retries", self.retries, expected.retries)
    }
}

enum CellState {
    /// Queued, waiting for the given attempt to start.
    Pending { next_attempt: u32 },
    /// The given attempt is executing.
    Running { attempt: u32 },
    /// The given attempt faulted; a retry or exhaustion must follow.
    Faulted { attempt: u32 },
    /// Terminal.
    Done,
}

fn stream_err(detail: String) -> AuditError {
    AuditError::Stream { detail }
}

/// Replay a task-event stream through a per-cell state machine.
///
/// Checks, per cell: exactly one submission, attempts start in order from
/// 0, every fault is followed by exactly one retry or exhaustion, skips
/// only hit queued cells, and exactly one terminal event. Checks, across
/// the stream: completed + exhausted + skipped + unresolved equals
/// submitted (this holds by construction of the state machine, but is
/// asserted anyway as a defence against future editing of this function).
///
/// # Errors
///
/// Returns [`AuditError::Stream`] on the first malformed transition.
pub fn audit_batch(events: &[TaskEvent]) -> Result<TaskAuditReport, AuditError> {
    let mut cells: BTreeMap<u64, CellState> = BTreeMap::new();
    let mut report = TaskAuditReport::default();

    for ev in events {
        match *ev {
            TaskEvent::Submitted { cell } => {
                if cells
                    .insert(cell, CellState::Pending { next_attempt: 0 })
                    .is_some()
                {
                    return Err(stream_err(format!("cell {cell} submitted twice")));
                }
                report.submitted += 1;
            }
            TaskEvent::Started { cell, attempt, .. } => {
                match cells.get(&cell) {
                    Some(CellState::Pending { next_attempt }) if *next_attempt == attempt => {}
                    Some(CellState::Pending { next_attempt }) => {
                        return Err(stream_err(format!(
                            "cell {cell} started attempt {attempt}, expected {next_attempt}"
                        )));
                    }
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} started attempt {attempt} while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(cell, CellState::Running { attempt });
                report.attempts_started += 1;
            }
            TaskEvent::Completed { cell, attempt, .. } => {
                match cells.get(&cell) {
                    Some(CellState::Running { attempt: a }) if *a == attempt => {}
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} completed attempt {attempt} while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(cell, CellState::Done);
                report.completed += 1;
            }
            TaskEvent::Faulted { cell, attempt, .. } => {
                match cells.get(&cell) {
                    Some(CellState::Running { attempt: a }) if *a == attempt => {}
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} faulted on attempt {attempt} while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(cell, CellState::Faulted { attempt });
                report.faults += 1;
            }
            TaskEvent::Retried { cell, attempt } => {
                match cells.get(&cell) {
                    Some(CellState::Faulted { attempt: a }) if a + 1 == attempt => {}
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} retried as attempt {attempt} while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(
                    cell,
                    CellState::Pending {
                        next_attempt: attempt,
                    },
                );
                report.retries += 1;
            }
            TaskEvent::Exhausted {
                cell,
                attempts,
                fault,
            } => {
                match cells.get(&cell) {
                    Some(CellState::Faulted { attempt }) if attempt + 1 == attempts => {}
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} exhausted after {attempts} attempts while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(cell, CellState::Done);
                match fault {
                    TaskFault::Deadline => report.exhausted_deadline += 1,
                    TaskFault::Panic => report.exhausted_panic += 1,
                }
            }
            TaskEvent::Skipped { cell } => {
                match cells.get(&cell) {
                    Some(CellState::Pending { .. }) => {}
                    other => {
                        return Err(stream_err(format!(
                            "cell {cell} skipped while {}",
                            state_name(other)
                        )));
                    }
                }
                cells.insert(cell, CellState::Done);
                report.skipped += 1;
            }
            TaskEvent::WorkerLost { .. } => {
                report.workers_lost += 1;
            }
        }
    }

    report.unresolved_at_end = cells
        .values()
        .filter(|s| !matches!(s, CellState::Done))
        .count() as u64;
    if report.completed
        + report.exhausted_deadline
        + report.exhausted_panic
        + report.skipped
        + report.unresolved_at_end
        != report.submitted
    {
        return Err(AuditError::Conservation {
            detail: format!(
                "completed {} + exhausted {} + skipped {} + unresolved {} != submitted {}",
                report.completed,
                report.exhausted_deadline + report.exhausted_panic,
                report.skipped,
                report.unresolved_at_end,
                report.submitted
            ),
        });
    }
    Ok(report)
}

fn state_name(s: Option<&CellState>) -> &'static str {
    match s {
        None => "never submitted",
        Some(CellState::Pending { .. }) => "pending",
        Some(CellState::Running { .. }) => "running",
        Some(CellState::Faulted { .. }) => "faulted",
        Some(CellState::Done) => "already resolved",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_batch_partitions() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Submitted { cell: 1 },
            TaskEvent::Submitted { cell: 2 },
            TaskEvent::Submitted { cell: 3 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Started {
                cell: 1,
                attempt: 0,
                worker: 1,
            },
            TaskEvent::Completed {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Faulted {
                cell: 1,
                attempt: 0,
                worker: 1,
                fault: TaskFault::Panic,
            },
            TaskEvent::Retried {
                cell: 1,
                attempt: 1,
            },
            TaskEvent::Started {
                cell: 2,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Faulted {
                cell: 2,
                attempt: 0,
                worker: 0,
                fault: TaskFault::Deadline,
            },
            TaskEvent::WorkerLost { worker: 0 },
            TaskEvent::Exhausted {
                cell: 2,
                attempts: 1,
                fault: TaskFault::Deadline,
            },
            TaskEvent::Started {
                cell: 1,
                attempt: 1,
                worker: 1,
            },
            TaskEvent::Completed {
                cell: 1,
                attempt: 1,
                worker: 1,
            },
            TaskEvent::Skipped { cell: 3 },
        ];
        let report = audit_batch(&events).expect("audit");
        assert_eq!(report.submitted, 4);
        assert_eq!(report.completed, 2);
        assert_eq!(report.exhausted_deadline, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.faults, 2);
        assert_eq!(report.workers_lost, 1);
        assert_eq!(report.degraded(), 2);
        report
            .verify(&BatchTotals {
                submitted: 4,
                completed: 2,
                timed_out: 1,
                panicked: 0,
                skipped: 1,
                retries: 1,
            })
            .expect("laws hold");
    }

    #[test]
    fn double_submission_rejected() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Submitted { cell: 0 },
        ];
        assert!(matches!(
            audit_batch(&events),
            Err(AuditError::Stream { .. })
        ));
    }

    #[test]
    fn completion_without_start_rejected() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Completed {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
        ];
        assert!(matches!(
            audit_batch(&events),
            Err(AuditError::Stream { .. })
        ));
    }

    #[test]
    fn out_of_order_attempt_rejected() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 1,
                worker: 0,
            },
        ];
        assert!(matches!(
            audit_batch(&events),
            Err(AuditError::Stream { .. })
        ));
    }

    #[test]
    fn retry_without_fault_rejected() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Retried {
                cell: 0,
                attempt: 1,
            },
        ];
        assert!(matches!(
            audit_batch(&events),
            Err(AuditError::Stream { .. })
        ));
    }

    #[test]
    fn skip_of_running_cell_rejected() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Skipped { cell: 0 },
        ];
        assert!(matches!(
            audit_batch(&events),
            Err(AuditError::Stream { .. })
        ));
    }

    #[test]
    fn unresolved_cell_fails_verification() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
        ];
        let report = audit_batch(&events).expect("stream is well-formed");
        assert_eq!(report.unresolved_at_end, 1);
        let err = report
            .verify(&BatchTotals::default())
            .expect_err("must fail");
        assert!(matches!(err, AuditError::Conservation { .. }));
    }

    #[test]
    fn mismatched_totals_fail_verification() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
            TaskEvent::Completed {
                cell: 0,
                attempt: 0,
                worker: 0,
            },
        ];
        let report = audit_batch(&events).expect("audit");
        let err = report
            .verify(&BatchTotals {
                submitted: 1,
                completed: 0,
                timed_out: 1,
                ..BatchTotals::default()
            })
            .expect_err("totals disagree");
        assert!(matches!(err, AuditError::Conservation { .. }));
    }

    #[test]
    fn task_events_round_trip_through_serde() {
        let events = vec![
            TaskEvent::Submitted { cell: 0 },
            TaskEvent::Started {
                cell: 0,
                attempt: 0,
                worker: 3,
            },
            TaskEvent::Faulted {
                cell: 0,
                attempt: 0,
                worker: 3,
                fault: TaskFault::Deadline,
            },
            TaskEvent::Retried {
                cell: 0,
                attempt: 1,
            },
            TaskEvent::Exhausted {
                cell: 0,
                attempts: 2,
                fault: TaskFault::Panic,
            },
            TaskEvent::Skipped { cell: 9 },
            TaskEvent::WorkerLost { worker: 1 },
            TaskEvent::Completed {
                cell: 2,
                attempt: 1,
                worker: 0,
            },
        ];
        let s = serde_json::to_string(&events).expect("serialize");
        let back: Vec<TaskEvent> = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(events, back);
    }

    #[test]
    fn task_log_collects_in_order() {
        let log = TaskLog::new();
        assert!(log.is_empty());
        log.push(TaskEvent::Submitted { cell: 0 });
        log.push(TaskEvent::Skipped { cell: 0 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[1], TaskEvent::Skipped { cell: 0 });
    }
}
