//! The supervised batch executor: a bounded work-stealing pool with
//! per-attempt panic isolation, a watchdog thread enforcing per-cell
//! deadlines and the whole-batch budget, deterministic retries, and
//! graceful degradation into a [`BatchReport`].
//!
//! # Determinism
//!
//! Tasks are pure closures over shared immutable artifacts and every
//! value lands in its cell's slot by index, so batch *results* are
//! bit-identical at any `jobs` count and under any steal schedule. Only
//! wall-clock-dependent facts (which seat ran what, how long the batch
//! took) vary between runs.
//!
//! # Supervision model
//!
//! Each cell's slot carries a tiny state machine (`Queued` → `Running` →
//! `Resolved`) behind a mutex. Whoever locks the slot first — the worker
//! finishing the attempt, or the watchdog declaring it over-deadline —
//! claims the transition; the loser observes the state changed and
//! discards its side silently. Rust threads cannot be killed, so a
//! wedged worker is *abandoned*: its seat's abandon flag is set, a
//! replacement worker is spawned on the same seat, and the stuck thread
//! is left detached to finish (or sleep) harmlessly — it can no longer
//! resolve anything.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use specmt_obs::{TaskEvent, TaskFault, TaskLog};

use crate::config::ExecConfig;
use crate::report::{
    BatchReport, BatchStatus, CellOutcome, CellReport, SkipReason, TaskError, TaskErrorKind,
};

/// Thread-name prefix for pool workers; the quiet panic hook keys on it.
const WORKER_PREFIX: &str = "specmt-exec-w";

/// One unit of batch work: a label for reports plus a re-runnable
/// closure. `Fn` (not `FnOnce`) because a faulted attempt must be
/// re-executable from scratch on retry.
pub struct Task<T> {
    label: String,
    run: Arc<dyn Fn() -> T + Send + Sync>,
}

impl<T> Task<T> {
    /// A task from its report label and closure.
    pub fn new(label: impl Into<String>, run: impl Fn() -> T + Send + Sync + 'static) -> Task<T> {
        Task {
            label: label.into(),
            run: Arc::new(run),
        }
    }

    /// The task's report label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> std::fmt::Debug for Task<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// What a batch run hands back: one value slot per cell (in submission
/// order, `None` where the cell degraded) plus the full [`BatchReport`].
pub struct BatchResult<T> {
    /// Per-cell values; `values[i]` is `Some` iff `report.cells[i]`
    /// completed.
    pub values: Vec<Option<T>>,
    /// The per-cell outcome record.
    pub report: BatchReport,
}

impl<T> std::fmt::Debug for BatchResult<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchResult")
            .field("values", &format_args!("[{} cells]", self.values.len()))
            .field("report", &self.report)
            .finish()
    }
}

/// The executor: owns a configuration and an optional task-event log,
/// and runs batches with [`Executor::run_batch`]. Stateless between
/// batches — the pool is built per batch and torn down with it.
#[derive(Debug, Default)]
pub struct Executor {
    cfg: ExecConfig,
    log: Option<Arc<TaskLog>>,
}

impl Executor {
    /// An executor with the given configuration and no event log.
    pub fn new(cfg: ExecConfig) -> Executor {
        Executor { cfg, log: None }
    }

    /// Attach a task-event log; every lifecycle event of subsequent
    /// batches is recorded into it.
    pub fn with_log(mut self, log: Arc<TaskLog>) -> Executor {
        self.log = Some(log);
        self
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Run one batch to completion (or degradation) and report every
    /// cell's outcome. Never panics on task failure and never aborts the
    /// batch: panicking, wedged, and over-budget cells degrade into
    /// `None` values with their outcome on record.
    pub fn run_batch<T: Send + 'static>(&self, tasks: Vec<Task<T>>) -> BatchResult<T> {
        let n = tasks.len();
        let jobs = self.cfg.effective_jobs().min(n).max(1);
        let started = Instant::now();
        if n == 0 {
            return BatchResult {
                values: Vec::new(),
                report: BatchReport {
                    status: BatchStatus::Complete,
                    jobs: jobs as u64,
                    cells: Vec::new(),
                    retries: 0,
                    workers_lost: 0,
                    errors: Vec::new(),
                    elapsed_ms: 0,
                },
            };
        }
        install_quiet_hook();

        let shared = Arc::new(Shared {
            tasks,
            slots: (0..n).map(|_| Slot::new()).collect(),
            seats: (0..jobs).map(|_| Seat::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            resolved: AtomicUsize::new(0),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
            budget_hit: AtomicBool::new(false),
            started,
            cfg: self.cfg.clone(),
            log: self.log.clone(),
            errors: Mutex::new(Vec::new()),
            retries: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
        });

        for cell in 0..n {
            emit(&shared, TaskEvent::Submitted { cell: cell as u64 });
            shared.seats[cell % jobs]
                .queue
                .lock()
                .expect("seat queue lock")
                .push_back(Attempt {
                    cell,
                    attempt: 0,
                    delay: Duration::ZERO,
                });
        }
        for seat in 0..jobs {
            spawn_worker(&shared, seat);
        }
        let watchdog = if shared.cfg.deadline.is_some() || shared.cfg.budget.is_some() {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("specmt-exec-dog".into())
                    .spawn(move || watchdog(&sh))
                    .expect("spawn watchdog"),
            )
        } else {
            None
        };

        let mut guard = shared.done_mx.lock().expect("done lock");
        while shared.resolved.load(Ordering::Acquire) < n {
            let (g, _) = shared
                .done_cv
                .wait_timeout(guard, Duration::from_millis(20))
                .expect("done wait");
            guard = g;
        }
        drop(guard);
        if let Some(dog) = watchdog {
            dog.join().expect("watchdog never panics");
        }

        let mut values = Vec::with_capacity(n);
        let mut cells = Vec::with_capacity(n);
        let mut degraded = false;
        for (i, slot) in shared.slots.iter().enumerate() {
            let outcome = match &*slot.state.lock().expect("slot state lock") {
                CellState::Resolved { outcome } => outcome.clone(),
                _ => unreachable!("cell {i} unresolved after batch completion"),
            };
            degraded |= outcome.is_degraded();
            values.push(slot.value.lock().expect("slot value lock").take());
            cells.push(CellReport {
                label: shared.tasks[i].label.clone(),
                outcome,
            });
        }
        let errors = std::mem::take(&mut *shared.errors.lock().expect("errors lock"));
        BatchResult {
            values,
            report: BatchReport {
                status: if degraded {
                    BatchStatus::Degraded
                } else {
                    BatchStatus::Complete
                },
                jobs: jobs as u64,
                cells,
                retries: shared.retries.load(Ordering::Acquire),
                workers_lost: shared.workers_lost.load(Ordering::Acquire),
                errors,
                elapsed_ms: started.elapsed().as_millis() as u64,
            },
        }
    }
}

/// A queued execution of one cell's next attempt. `delay` is the
/// deterministic backoff the claiming worker sleeps before starting.
struct Attempt {
    cell: usize,
    attempt: u32,
    delay: Duration,
}

/// Lifecycle of one cell's slot. Transitions happen under the slot's
/// state mutex, paired with their event emission, so each cell's
/// recorded event order is a valid lifecycle.
enum CellState {
    /// Waiting for the given attempt to be picked up.
    Queued { attempt: u32 },
    /// The given attempt is executing on a seat since an instant.
    Running {
        attempt: u32,
        seat: usize,
        since: Instant,
    },
    /// Terminal.
    Resolved { outcome: CellOutcome },
}

struct Slot<T> {
    state: Mutex<CellState>,
    value: Mutex<Option<T>>,
}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot {
            state: Mutex::new(CellState::Queued { attempt: 0 }),
            value: Mutex::new(None),
        }
    }
}

/// One worker seat: its local deque and the abandon flag of whichever
/// thread currently holds the seat (replaced when the seat is re-staffed).
struct Seat {
    queue: Mutex<VecDeque<Attempt>>,
    abandon: Mutex<Arc<AtomicBool>>,
}

impl Seat {
    fn new() -> Seat {
        Seat {
            queue: Mutex::new(VecDeque::new()),
            abandon: Mutex::new(Arc::new(AtomicBool::new(false))),
        }
    }
}

struct Shared<T> {
    tasks: Vec<Task<T>>,
    slots: Vec<Slot<T>>,
    seats: Vec<Seat>,
    injector: Mutex<VecDeque<Attempt>>,
    resolved: AtomicUsize,
    done_mx: Mutex<()>,
    done_cv: Condvar,
    budget_hit: AtomicBool,
    started: Instant,
    cfg: ExecConfig,
    log: Option<Arc<TaskLog>>,
    errors: Mutex<Vec<TaskError>>,
    retries: AtomicU64,
    workers_lost: AtomicU64,
}

fn emit<T>(shared: &Shared<T>, ev: TaskEvent) {
    if let Some(log) = &shared.log {
        log.push(ev);
    }
}

/// Count one terminal resolution; wake the submitter on the last one.
fn mark_resolved<T>(shared: &Shared<T>) {
    let done = shared.resolved.fetch_add(1, Ordering::AcqRel) + 1;
    if done == shared.slots.len() {
        let _g = shared.done_mx.lock().expect("done lock");
        shared.done_cv.notify_all();
    }
}

/// Install (once per process) a panic hook that silences the default
/// "thread panicked" banner for pool worker threads — their panics are
/// caught at the isolation boundary and reported structurally through
/// `TaskError`, so the banner is pure noise during chaos storms. All
/// other threads keep the previous hook's behaviour.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let from_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !from_worker {
                prev(info);
            }
        }));
    });
}

/// Put a fresh worker thread on a seat, installing its abandon flag.
fn spawn_worker<T: Send + 'static>(shared: &Arc<Shared<T>>, seat: usize) {
    let flag = Arc::new(AtomicBool::new(false));
    *shared.seats[seat]
        .abandon
        .lock()
        .expect("seat abandon lock") = Arc::clone(&flag);
    let sh = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("{WORKER_PREFIX}{seat}"))
        .spawn(move || worker(&sh, seat, &flag))
        .expect("spawn worker");
}

/// Replace a seat's worker after a loss (deadline abandonment or chaos
/// kill), keeping the pool at full strength.
fn replace_worker<T: Send + 'static>(shared: &Arc<Shared<T>>, seat: usize) {
    shared.workers_lost.fetch_add(1, Ordering::AcqRel);
    emit(
        shared,
        TaskEvent::WorkerLost {
            worker: seat as u32,
        },
    );
    if shared.resolved.load(Ordering::Acquire) < shared.slots.len() {
        spawn_worker(shared, seat);
    }
}

/// Pop the next attempt: own queue front, then the injector (retries),
/// then steal from siblings' backs.
fn next_attempt<T>(shared: &Shared<T>, seat: usize) -> Option<Attempt> {
    if let Some(a) = shared.seats[seat]
        .queue
        .lock()
        .expect("seat queue lock")
        .pop_front()
    {
        return Some(a);
    }
    if let Some(a) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(a);
    }
    let n = shared.seats.len();
    for i in 1..n {
        let victim = (seat + i) % n;
        if let Some(a) = shared.seats[victim]
            .queue
            .lock()
            .expect("seat queue lock")
            .pop_back()
        {
            return Some(a);
        }
    }
    None
}

fn worker<T: Send + 'static>(shared: &Arc<Shared<T>>, seat: usize, abandon: &Arc<AtomicBool>) {
    while !abandon.load(Ordering::Acquire)
        && shared.resolved.load(Ordering::Acquire) < shared.slots.len()
    {
        match next_attempt(shared, seat) {
            Some(att) => {
                if run_attempt(shared, seat, abandon, &att) == WorkerFate::Die {
                    return;
                }
            }
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

#[derive(PartialEq)]
enum WorkerFate {
    Live,
    Die,
}

/// How long a chaos-wedged attempt sleeps: comfortably past any deadline
/// so the watchdog must abandon it.
fn wedge_duration(cfg: &ExecConfig) -> Duration {
    cfg.deadline.map_or(Duration::from_millis(50), |d| {
        d * 2 + Duration::from_millis(50)
    })
}

/// Best-effort extraction of a panic payload's message, as captured at a
/// `catch_unwind` boundary (the common `&str` and `String` payloads; a
/// placeholder otherwise).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_attempt<T: Send + 'static>(
    shared: &Arc<Shared<T>>,
    seat: usize,
    abandon: &Arc<AtomicBool>,
    att: &Attempt,
) -> WorkerFate {
    if !att.delay.is_zero() {
        std::thread::sleep(att.delay);
    }
    // Claim the attempt. A slot that moved on (skipped by the budget, or
    // this attempt superseded) is simply not ours to run.
    {
        let mut st = shared.slots[att.cell]
            .state
            .lock()
            .expect("slot state lock");
        match *st {
            CellState::Queued { attempt } if attempt == att.attempt => {
                if shared.budget_hit.load(Ordering::Acquire) {
                    // Past the batch budget nothing new starts, even if the
                    // watchdog's skip scan hasn't reached this cell yet.
                    *st = CellState::Resolved {
                        outcome: CellOutcome::Skipped {
                            reason: SkipReason::BudgetExhausted,
                        },
                    };
                    emit(
                        shared,
                        TaskEvent::Skipped {
                            cell: att.cell as u64,
                        },
                    );
                    mark_resolved(shared);
                    return WorkerFate::Live;
                }
                *st = CellState::Running {
                    attempt: att.attempt,
                    seat,
                    since: Instant::now(),
                };
                emit(
                    shared,
                    TaskEvent::Started {
                        cell: att.cell as u64,
                        attempt: att.attempt,
                        worker: seat as u32,
                    },
                );
            }
            _ => return WorkerFate::Live,
        }
    }

    let chaos = shared.cfg.chaos.as_ref().filter(|p| p.is_active());
    // Decide a chaos kill up front and book the loss *before* resolving:
    // the moment the last cell resolves, `run_batch` may assemble the
    // report, and a loss recorded after that is silently dropped.
    let killed = chaos.is_some_and(|p| p.kills_worker(att.cell as u64, att.attempt))
        && !abandon.load(Ordering::Acquire);
    if killed {
        shared.workers_lost.fetch_add(1, Ordering::AcqRel);
        emit(
            shared,
            TaskEvent::WorkerLost {
                worker: seat as u32,
            },
        );
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = chaos {
            if plan.wedges(att.cell as u64, att.attempt) {
                std::thread::sleep(wedge_duration(&shared.cfg));
            }
            if plan.poisons(att.cell as u64, att.attempt) {
                panic!("chaos: poisoned cell {}", att.cell);
            }
        }
        (shared.tasks[att.cell].run)()
    }));

    // Resolve — but only if the watchdog hasn't claimed the attempt away
    // from us in the meantime.
    let mut requeue = None;
    {
        let mut st = shared.slots[att.cell]
            .state
            .lock()
            .expect("slot state lock");
        let ours = matches!(
            *st,
            CellState::Running { attempt, seat: s, .. } if attempt == att.attempt && s == seat
        );
        if ours {
            match result {
                Ok(value) => {
                    *shared.slots[att.cell]
                        .value
                        .lock()
                        .expect("slot value lock") = Some(value);
                    *st = CellState::Resolved {
                        outcome: if att.attempt == 0 {
                            CellOutcome::Ok
                        } else {
                            CellOutcome::Retried {
                                retries: att.attempt,
                            }
                        },
                    };
                    emit(
                        shared,
                        TaskEvent::Completed {
                            cell: att.cell as u64,
                            attempt: att.attempt,
                            worker: seat as u32,
                        },
                    );
                    mark_resolved(shared);
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    shared.errors.lock().expect("errors lock").push(TaskError {
                        cell: att.cell as u64,
                        label: shared.tasks[att.cell].label.clone(),
                        attempt: att.attempt,
                        kind: TaskErrorKind::Panicked {
                            message: message.clone(),
                        },
                    });
                    emit(
                        shared,
                        TaskEvent::Faulted {
                            cell: att.cell as u64,
                            attempt: att.attempt,
                            worker: seat as u32,
                            fault: TaskFault::Panic,
                        },
                    );
                    requeue = fault_next_step(
                        shared,
                        &mut st,
                        att,
                        TaskFault::Panic,
                        CellOutcome::Panicked {
                            attempts: att.attempt + 1,
                            message,
                        },
                    );
                }
            }
        }
    }
    if let Some(a) = requeue {
        shared.injector.lock().expect("injector lock").push_back(a);
    }

    if killed {
        if shared.resolved.load(Ordering::Acquire) < shared.slots.len() {
            spawn_worker(shared, seat);
        }
        return WorkerFate::Die;
    }
    WorkerFate::Live
}

/// After a fault was recorded: either line up the next attempt (within
/// the retry allowance and batch budget) or resolve the cell degraded.
/// Called with the slot's state lock held; returns the attempt to push
/// onto the injector *after* the lock is released (the injector is never
/// locked inside a slot lock).
fn fault_next_step<T>(
    shared: &Shared<T>,
    st: &mut CellState,
    att: &Attempt,
    fault: TaskFault,
    exhausted: CellOutcome,
) -> Option<Attempt> {
    if att.attempt < shared.cfg.max_retries && !shared.budget_hit.load(Ordering::Acquire) {
        shared.retries.fetch_add(1, Ordering::AcqRel);
        emit(
            shared,
            TaskEvent::Retried {
                cell: att.cell as u64,
                attempt: att.attempt + 1,
            },
        );
        *st = CellState::Queued {
            attempt: att.attempt + 1,
        };
        Some(Attempt {
            cell: att.cell,
            attempt: att.attempt + 1,
            delay: shared.cfg.backoff(att.attempt + 1),
        })
    } else {
        *st = CellState::Resolved { outcome: exhausted };
        emit(
            shared,
            TaskEvent::Exhausted {
                cell: att.cell as u64,
                attempts: att.attempt + 1,
                fault,
            },
        );
        mark_resolved(shared);
        None
    }
}

/// The watchdog: ticks while the batch runs, abandons attempts past the
/// per-cell deadline, and on budget expiry fails running cells and skips
/// queued ones. Only spawned when a deadline or budget is configured.
fn watchdog<T: Send + 'static>(shared: &Arc<Shared<T>>) {
    let n = shared.slots.len();
    while shared.resolved.load(Ordering::Acquire) < n {
        std::thread::sleep(Duration::from_millis(2));
        let now = Instant::now();
        let budget_expired = shared
            .cfg
            .budget
            .is_some_and(|b| now.duration_since(shared.started) > b);
        if budget_expired {
            shared.budget_hit.store(true, Ordering::Release);
        }
        for cell in 0..n {
            let mut lost_seat = None;
            let mut requeue = None;
            {
                let mut st = shared.slots[cell].state.lock().expect("slot state lock");
                match *st {
                    CellState::Running {
                        attempt,
                        seat,
                        since,
                    } => {
                        let over = shared
                            .cfg
                            .deadline
                            .is_some_and(|d| now.duration_since(since) > d);
                        if over || budget_expired {
                            let deadline_ms = shared
                                .cfg
                                .deadline
                                .or(shared.cfg.budget)
                                .map_or(0, |d| d.as_millis() as u64);
                            shared.errors.lock().expect("errors lock").push(TaskError {
                                cell: cell as u64,
                                label: shared.tasks[cell].label.clone(),
                                attempt,
                                kind: TaskErrorKind::DeadlineExceeded { deadline_ms },
                            });
                            emit(
                                shared,
                                TaskEvent::Faulted {
                                    cell: cell as u64,
                                    attempt,
                                    worker: seat as u32,
                                    fault: TaskFault::Deadline,
                                },
                            );
                            let att = Attempt {
                                cell,
                                attempt,
                                delay: Duration::ZERO,
                            };
                            requeue = fault_next_step(
                                shared,
                                &mut st,
                                &att,
                                TaskFault::Deadline,
                                CellOutcome::TimedOut {
                                    attempts: attempt + 1,
                                },
                            );
                            lost_seat = Some(seat);
                        }
                    }
                    CellState::Queued { .. } if budget_expired => {
                        *st = CellState::Resolved {
                            outcome: CellOutcome::Skipped {
                                reason: SkipReason::BudgetExhausted,
                            },
                        };
                        emit(shared, TaskEvent::Skipped { cell: cell as u64 });
                        mark_resolved(shared);
                    }
                    _ => {}
                }
            }
            if let Some(a) = requeue {
                shared.injector.lock().expect("injector lock").push_back(a);
            }
            if let Some(seat) = lost_seat {
                // The stuck thread can't be killed: flag it abandoned (it
                // will discard its result and exit when it wakes) and
                // re-staff the seat.
                shared.seats[seat]
                    .abandon
                    .lock()
                    .expect("seat abandon lock")
                    .store(true, Ordering::Release);
                replace_worker(shared, seat);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecChaosPlan;
    use specmt_obs::audit_batch;

    fn verify_log(log: &TaskLog, report: &BatchReport) {
        let audit = audit_batch(&log.events()).expect("stream well-formed");
        audit
            .verify(&report.totals())
            .expect("conservation laws hold");
    }

    fn square_tasks(n: usize) -> Vec<Task<u64>> {
        (0..n)
            .map(|i| Task::new(format!("cell-{i}"), move || (i as u64) * (i as u64)))
            .collect()
    }

    #[test]
    fn clean_batch_completes_with_values_in_order() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 4,
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let out = exec.run_batch(square_tasks(16));
        assert_eq!(out.report.status, BatchStatus::Complete);
        assert_eq!(out.report.jobs, 4);
        assert!(out.report.errors.is_empty());
        for (i, v) in out.values.iter().enumerate() {
            assert_eq!(*v, Some((i as u64) * (i as u64)));
        }
        assert_eq!(out.report.cells[3].label, "cell-3");
        assert_eq!(out.report.cells[3].outcome, CellOutcome::Ok);
        verify_log(&log, &out.report);
    }

    #[test]
    fn empty_batch_is_complete() {
        let out = Executor::default().run_batch(Vec::<Task<u8>>::new());
        assert!(out.values.is_empty());
        assert_eq!(out.report.status, BatchStatus::Complete);
    }

    #[test]
    fn first_attempt_panic_is_retried_to_success() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 2,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let mut tasks = square_tasks(3);
        tasks.push(Task::new("flaky", move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt dies");
            }
            99u64
        }));
        let out = exec.run_batch(tasks);
        assert_eq!(out.report.status, BatchStatus::Complete);
        assert_eq!(out.values[3], Some(99));
        assert_eq!(
            out.report.cells[3].outcome,
            CellOutcome::Retried { retries: 1 }
        );
        assert_eq!(out.report.retries, 1);
        assert_eq!(out.report.errors.len(), 1);
        assert!(matches!(
            out.report.errors[0].kind,
            TaskErrorKind::Panicked { .. }
        ));
        verify_log(&log, &out.report);
    }

    #[test]
    fn poisoned_cell_exhausts_retries_and_degrades() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 2,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ExecChaosPlan {
                poison_cells: vec![1],
                ..ExecChaosPlan::default()
            }),
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let out = exec.run_batch(square_tasks(4));
        assert_eq!(out.report.status, BatchStatus::Degraded);
        assert_eq!(out.values[1], None);
        assert!(matches!(
            out.report.cells[1].outcome,
            CellOutcome::Panicked { attempts: 3, .. }
        ));
        assert_eq!(out.report.retries, 2);
        assert_eq!(out.values[0], Some(0));
        assert_eq!(out.values[2], Some(4));
        verify_log(&log, &out.report);
    }

    #[test]
    fn wedged_cell_times_out_and_pool_survives() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 2,
            deadline: Some(Duration::from_millis(30)),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ExecChaosPlan {
                wedge_cells: vec![0],
                ..ExecChaosPlan::default()
            }),
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let out = exec.run_batch(square_tasks(6));
        assert_eq!(out.report.status, BatchStatus::Degraded);
        assert_eq!(out.values[0], None);
        assert_eq!(
            out.report.cells[0].outcome,
            CellOutcome::TimedOut { attempts: 2 }
        );
        assert!(
            out.report.workers_lost >= 2,
            "each abandoned attempt loses a worker"
        );
        for i in 1..6 {
            assert_eq!(out.values[i], Some((i as u64) * (i as u64)));
        }
        verify_log(&log, &out.report);
    }

    #[test]
    fn budget_expiry_skips_queued_cells() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 1,
            budget: Some(Duration::from_millis(40)),
            max_retries: 0,
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let mut tasks = vec![Task::new("slow", || {
            std::thread::sleep(Duration::from_millis(400));
            0u64
        })];
        tasks.extend(square_tasks(5));
        let out = exec.run_batch(tasks);
        assert_eq!(out.report.status, BatchStatus::Degraded);
        assert!(matches!(
            out.report.cells[0].outcome,
            CellOutcome::TimedOut { .. }
        ));
        let skipped = out
            .report
            .cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Skipped { .. }))
            .count();
        assert!(skipped >= 1, "budget expiry must skip still-queued cells");
        let t = out.report.totals();
        assert_eq!(
            t.completed + t.timed_out + t.panicked + t.skipped,
            t.submitted
        );
        verify_log(&log, &out.report);
    }

    #[test]
    fn killed_workers_are_replaced_and_batch_completes() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 3,
            chaos: Some(ExecChaosPlan {
                kill_worker_rate: 1.0,
                ..ExecChaosPlan::default()
            }),
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let out = exec.run_batch(square_tasks(12));
        assert_eq!(out.report.status, BatchStatus::Complete);
        assert_eq!(
            out.report.workers_lost, 12,
            "every attempt kills its worker"
        );
        for (i, v) in out.values.iter().enumerate() {
            assert_eq!(*v, Some((i as u64) * (i as u64)));
        }
        verify_log(&log, &out.report);
    }

    #[test]
    fn values_are_identical_at_any_parallelism() {
        let run = |jobs| {
            Executor::new(ExecConfig {
                jobs,
                ..ExecConfig::default()
            })
            .run_batch(square_tasks(32))
            .values
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn chaos_storm_never_escapes_the_pool() {
        let log = Arc::new(TaskLog::new());
        let exec = Executor::new(ExecConfig {
            jobs: 4,
            deadline: Some(Duration::from_millis(40)),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ExecChaosPlan {
                seed: 0xC0FFEE,
                poison_rate: 0.3,
                wedge_rate: 0.1,
                kill_worker_rate: 0.2,
                ..ExecChaosPlan::default()
            }),
            ..ExecConfig::default()
        })
        .with_log(Arc::clone(&log));
        let out = exec.run_batch(square_tasks(24));
        // Whatever the storm did, the batch returned with a full account.
        assert_eq!(out.report.cells.len(), 24);
        for (i, v) in out.values.iter().enumerate() {
            if out.report.cells[i].outcome.is_ok() {
                assert_eq!(*v, Some((i as u64) * (i as u64)));
            } else {
                assert_eq!(*v, None);
            }
        }
        verify_log(&log, &out.report);
    }
}
