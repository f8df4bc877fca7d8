//! Supervised-executor integration tests over the real harness.
//!
//! The acceptance bar for the executor is determinism under supervision:
//!
//! * an experiment grid run at `--jobs 1` and `--jobs 8` produces
//!   bit-identical `SimResult`s (the executor moves *scheduling*, never
//!   *results*),
//! * a cell re-run after an injected panic or timeout reproduces the
//!   unfaulted first attempt bit-for-bit (proptest over benchmarks,
//!   thread-unit counts and fault kinds),
//! * `BatchReport` round-trips through serde for arbitrary outcome mixes,
//!   and its totals always partition the batch.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use specmt::bench::{ExperimentSpec, Harness, Variant};
use specmt::exec::{
    BatchReport, BatchStatus, CellOutcome, CellReport, ExecConfig, Executor, SkipReason, Task,
};
use specmt::obs::{audit_batch, TaskLog};
use specmt::sim::{SimConfig, SimResult};
use specmt::workloads::Scale;

/// The tiny suite, loaded once for the whole test binary.
fn tiny() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| Harness::load_at(Scale::Tiny).expect("tiny suite loads"))
}

#[test]
fn grid_results_bit_identical_across_jobs() {
    let spec = ExperimentSpec::new(
        SimConfig::paper(4),
        vec![
            Variant::speedup("profile", "profile", vec![]),
            Variant::speedup("heuristics", "heuristics", vec![]),
        ],
    );
    let run_at = |jobs: usize| {
        let mut h = Harness::load_at(Scale::Tiny).expect("tiny suite loads");
        h.exec.jobs = jobs;
        spec.run(&h).expect("grid runs")
    };
    let serial = run_at(1);
    let wide = run_at(8);
    assert_eq!(
        serial.results, wide.results,
        "SimResults must not depend on --jobs"
    );
    assert_eq!(serial.values, wide.values);
    assert_eq!(serial.means, wide.means);
}

/// One simulation cell on the supervised executor, with `fault_first`
/// making the first attempt panic or wedge. Returns the batch outcome of
/// the cell plus its (possibly retried) value.
fn run_cell_with_fault(
    bench_ix: usize,
    tus: usize,
    fault_first: Option<&'static str>,
    log: &Arc<TaskLog>,
) -> (CellOutcome, Option<SimResult>) {
    let h = tiny();
    let ctx = Arc::clone(&h.benches[bench_ix % h.benches.len()]);
    let table = Arc::new(ctx.profile.table.clone());
    let cfg = SimConfig::paper(tus);
    let attempts = Arc::new(AtomicU32::new(0));
    let task = Task::new(ctx.bench.name(), move || {
        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            match fault_first {
                Some("panic") => panic!("injected first-attempt panic"),
                Some("wedge") => std::thread::sleep(Duration::from_millis(800)),
                _ => {}
            }
        }
        ctx.sim(cfg.clone(), &table).expect("tiny sim runs")
    });
    let exec = Executor::new(ExecConfig {
        jobs: 1,
        // Generous against the ~5-40ms debug-build cells: only the
        // injected wedge may time out, never the honest retry.
        deadline: Some(Duration::from_millis(400)),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        ..ExecConfig::default()
    })
    .with_log(Arc::clone(log));
    let mut batch = exec.run_batch(vec![task]);
    (
        batch.report.cells[0].outcome.clone(),
        batch.values[0].take(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A cell that faults once (panic or deadline) and is retried must
    /// reproduce the unfaulted run bit-for-bit: supervision may move
    /// *when* a cell runs, never *what* it computes.
    #[test]
    fn rerun_after_fault_is_bit_identical(
        bench_ix in 0usize..8,
        tus in 2usize..6,
        fault in prop_oneof![Just("panic"), Just("wedge")],
    ) {
        let h = tiny();
        let ctx = &h.benches[bench_ix % h.benches.len()];
        let want = ctx
            .sim(SimConfig::paper(tus), &ctx.profile.table)
            .expect("unfaulted reference run");

        let log = Arc::new(TaskLog::new());
        let (outcome, got) = run_cell_with_fault(bench_ix, tus, Some(fault), &log);

        prop_assert_eq!(outcome, CellOutcome::Retried { retries: 1 });
        prop_assert_eq!(got.as_ref(), Some(&want));
        let audit = audit_batch(&log.events()).expect("stream well-formed");
        prop_assert_eq!(audit.completed, 1);
        prop_assert_eq!(audit.retries, 1);
    }
}

fn outcome_strategy() -> impl Strategy<Value = CellOutcome> {
    prop_oneof![
        Just(CellOutcome::Ok),
        (1u32..6).prop_map(|retries| CellOutcome::Retried { retries }),
        (1u32..6).prop_map(|attempts| CellOutcome::TimedOut { attempts }),
        (1u32..6, prop::collection::vec(0x20u8..0x7f, 0..24)).prop_map(|(attempts, bytes)| {
            CellOutcome::Panicked {
                attempts,
                // Printable ASCII, so quotes and backslashes exercise the
                // JSON escaping path.
                message: bytes.into_iter().map(char::from).collect(),
            }
        }),
        Just(CellOutcome::Skipped {
            reason: SkipReason::BudgetExhausted
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BatchReport` is serde-stable for arbitrary outcome mixes (panic
    /// messages include quotes and backslashes), and its derived totals
    /// always partition the submitted batch.
    #[test]
    fn batch_report_round_trips_and_partitions(
        outcomes in prop::collection::vec(outcome_strategy(), 0..12),
        retries in 0u64..20,
        workers_lost in 0u64..8,
        elapsed_ms in 0u64..100_000,
    ) {
        let degraded = outcomes.iter().any(CellOutcome::is_degraded);
        let report = BatchReport {
            status: if degraded { BatchStatus::Degraded } else { BatchStatus::Complete },
            jobs: 4,
            cells: outcomes
                .iter()
                .enumerate()
                .map(|(i, outcome)| CellReport {
                    label: format!("cell-{i}"),
                    outcome: outcome.clone(),
                })
                .collect(),
            retries,
            workers_lost,
            errors: Vec::new(),
            elapsed_ms,
        };
        let text = serde_json::to_string(&report).expect("serialize");
        let back: BatchReport = serde_json::from_str(&text).expect("deserialize");
        prop_assert_eq!(&back, &report);

        let t = report.totals();
        prop_assert_eq!(t.submitted, outcomes.len() as u64);
        prop_assert_eq!(
            t.completed + t.timed_out + t.panicked + t.skipped,
            t.submitted,
            "outcomes must partition the batch"
        );
        prop_assert_eq!(report.completed() + report.degraded(), t.submitted);
        prop_assert_eq!(report.is_degraded(), degraded);
    }
}

#[test]
fn harness_sweeps_share_executor_supervision() {
    // Experiment grids run through the supervised executor; a jobs=1 and a
    // wide run must agree exactly, cell for cell.
    let spec = ExperimentSpec::new(
        SimConfig::paper(4),
        vec![Variant::speedup("profile", "profile", vec![])],
    );
    let run = |jobs| {
        let mut h = Harness::load_at(Scale::Tiny).expect("tiny suite loads");
        h.exec.jobs = jobs;
        spec.run(&h).expect("runs")
    };
    let (narrow, wide) = (run(1), run(8));
    assert_eq!(narrow.values, wide.values);
    assert_eq!(narrow.results, wide.results);
}
