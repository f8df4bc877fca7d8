//! Engine edge cases pinned to a committed golden.
//!
//! Each test drives the engine through a corner where timing or policy
//! state must carry exactly from one instruction, fetch group or thread
//! window into the next, and compares every [`SimResult`] with
//! `tests/golden/window_seams_tiny.json`:
//!
//! * `batches_smaller_than_fetch_width_are_bit_identical`: the tiny suite
//!   under the `profile` table on `paper(16)` at fetch widths 1–4, so
//!   partially consumed fetch cycles carry across short speculative
//!   windows;
//! * `violation_squash_on_every_batch_position_is_bit_identical`: a
//!   speculative load racing a parent store, swept over 9 machines (2/4/8
//!   units × fetch width 1/2/4) so the violating load lands at different
//!   fetch-group positions and the squash/restart state is pinned at each;
//! * `adaptive_gates_mid_window_are_bit_identical`: the `conf-gated` and
//!   `scoreboard` schemes on the tiny suite, whose gates read confidence
//!   registers and the pair scoreboard mid-window;
//! * `fault_plans_at_window_seams_are_bit_identical`: a seeded fault plan
//!   on the first three built-in schemes, pinning the per-instruction RNG
//!   draw order and every decision downstream of it;
//! * `random_programs_windowed_equals_reference`: a proptest over random
//!   programs and adversarial spawn tables. It has no golden: a run with
//!   an event sink must return the plain run's result, its stream must
//!   pass the auditor's conservation laws, and a rerun must be identical.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! SPECMT_REGEN_ENGINE_GOLDEN=1 cargo test --release --test window_seams
//! ```
//!
//! (Each golden-backed test rewrites its section of the golden and then
//! fails, so a stale golden can never be committed by accident.)

use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;

use specmt::isa::{Pc, ProgramBuilder, Reg};
use specmt::obs::{audit, EventLog};
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, RemovalPolicy, SimConfig, SimResult, Simulator};
use specmt::spawn::{
    PairOrigin, SchemeParams, SchemeRegistry, SpawnPair, SpawnTable, BUILTIN_SCHEME_NAMES,
};
use specmt::trace::Trace;
use specmt::workloads::Scale;

// Tests in this workspace run with the package dir (crates/core) as CWD.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/window_seams_tiny.json"
);
const GOLDEN: &str = include_str!("golden/window_seams_tiny.json");

fn simulate(label: &str, trace: &Trace, cfg: &SimConfig, table: &SpawnTable) -> SimResult {
    Simulator::with_table(trace, cfg.clone(), table)
        .run()
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"))
}

/// Compares `cells` with the golden entries labelled `section/...`. The
/// vendored serde has no map impls, so the golden is one sorted list of
/// (label, result) pairs shared by every test in this file.
fn pin(section: &str, mut cells: Vec<(String, SimResult)>) {
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    let prefix = format!("{section}/");
    if std::env::var_os("SPECMT_REGEN_ENGINE_GOLDEN").is_some() {
        // Tests run on parallel threads; each rewrites only its section.
        static WRITE: Mutex<()> = Mutex::new(());
        let _guard = WRITE.lock().unwrap_or_else(PoisonError::into_inner);
        let on_disk = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
        let mut all: Vec<(String, SimResult)> = serde_json::from_str(&on_disk).unwrap_or_default();
        all.retain(|(label, _)| !label.starts_with(&prefix));
        all.extend(cells);
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let json = serde_json::to_string_pretty(&all).expect("golden serialises");
        std::fs::write(GOLDEN_PATH, json + "\n").expect("golden written");
        panic!("regenerated {section} in {GOLDEN_PATH}; rerun without SPECMT_REGEN_ENGINE_GOLDEN");
    }

    let golden: Vec<(String, SimResult)> = serde_json::from_str::<Vec<(String, SimResult)>>(GOLDEN)
        .expect("golden parses")
        .into_iter()
        .filter(|(label, _)| label.starts_with(&prefix))
        .collect();
    let got_labels: Vec<&str> = cells.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = golden.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(
        got_labels, want_labels,
        "{section}: golden and run cover different cells"
    );
    for ((label, want), (_, got)) in golden.iter().zip(&cells) {
        assert_eq!(got, want, "{label}: diverged from the golden");
    }
}

/// Fetch widths 1–4 against `paper(16)`'s many short speculative windows:
/// a window often ends mid fetch group, and the next thread unit's fetch
/// cycle must start from exactly the carried state.
#[test]
fn batches_smaller_than_fetch_width_are_bit_identical() {
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let mut cells = Vec::new();
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        let table = registry
            .select("profile", &trace, &params)
            .expect("profile selects");
        for fetch_width in 1..=4u32 {
            let mut cfg = SimConfig::paper(16);
            cfg.fetch_width = fetch_width;
            let label = format!("fetch-width/{}/fw{fetch_width}", w.name);
            let r = simulate(&label, &trace, &cfg, &table);
            cells.push((label, r));
        }
    }
    pin("fetch-width", cells);
}

/// A two-thread program whose speculative thread's load races a store in
/// the parent. Sweeping the unit count and fetch width moves the violating
/// load across fetch-group positions; the squash's restart state must
/// reproduce the golden at each.
#[test]
fn violation_squash_on_every_batch_position_is_bit_identical() {
    use specmt::isa::AluOp;
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    b.li(Reg::R14, 0x10000);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, 24);
    b.bind(top);
    b.shli(Reg::R3, Reg::R1, 3);
    b.add(Reg::R3, Reg::R14, Reg::R3);
    b.ld(Reg::R4, Reg::R3, 0); // early: reads the slot the PREVIOUS iteration stores
    b.add(Reg::R5, Reg::R5, Reg::R4);
    b.alu(AluOp::Mul, Reg::R6, Reg::R6, Reg::R2); // serial mul chain delays...
    b.alu(AluOp::Mul, Reg::R6, Reg::R6, Reg::R2);
    b.alu(AluOp::Mul, Reg::R6, Reg::R6, Reg::R2);
    b.st(Reg::R6, Reg::R3, 8); // ...the store to the NEXT iteration's slot
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    let trace = Trace::generate(b.build().expect("program builds"), 10_000).expect("traces");

    // One spawn pair per loop iteration: the child starts at the next
    // iteration's top, its early load racing the parent's late store.
    let (sp, cqip) = (Pc(3), Pc(3));
    let table = SpawnTable::from_pairs(vec![SpawnPair {
        sp,
        cqip,
        prob: 1.0,
        avg_dist: 7.0,
        score: 10.0,
        origin: PairOrigin::Profile,
    }]);

    let mut cells = Vec::new();
    let mut any_violation = 0u64;
    for units in [2usize, 4, 8] {
        for fetch_width in [1u32, 2, 4] {
            let mut cfg = SimConfig::paper(units);
            cfg.fetch_width = fetch_width;
            let label = format!("violation/u{units}/fw{fetch_width}");
            let r = simulate(&label, &trace, &cfg, &table);
            any_violation += r.violations;
            cells.push((label, r));
        }
    }
    assert!(
        any_violation > 0,
        "the racing pair never violated; the sweep is vacuous"
    );
    pin("violation", cells);
}

/// Adaptive schemes gate spawns mid-window from state (confidence
/// registers, the pair scoreboard) updated by every branch and retire; the
/// gate decisions and everything downstream must reproduce the golden.
#[test]
fn adaptive_gates_mid_window_are_bit_identical() {
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let mut policies = SimConfig::paper(8).with_value_predictor(ValuePredictorKind::Stride);
    policies.min_observed_size = Some(16);
    let mut cells = Vec::new();
    let mut any_gated = 0u64;
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        for scheme in ["conf-gated", "scoreboard"] {
            let table = registry
                .select(scheme, &trace, &params)
                .expect("scheme selects");
            let label = format!("adaptive/{}/{scheme}", w.name);
            let r = simulate(&label, &trace, &policies, &table);
            any_gated += r.spawns_gated + r.pairs_demoted;
            cells.push((label, r));
        }
    }
    assert!(
        any_gated > 0,
        "no adaptive gate ever fired; mid-window coverage is vacuous"
    );
    pin("adaptive", cells);
}

/// Fault plans draw RNG per instruction, so any added, dropped or
/// reordered draw shifts every later decision; the seeded plan's results
/// must reproduce the golden exactly.
#[test]
fn fault_plans_at_window_seams_are_bit_identical() {
    let plan = FaultPlan {
        seed: 0x5ea_5ea1,
        squash_rate: 0.15,
        drop_spawn_rate: 0.10,
        corrupt_value_rate: 0.25,
        cache_jitter: 2,
        remove_pair_rate: 0.05,
    };
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let cfg = SimConfig::paper(8)
        .with_value_predictor(ValuePredictorKind::Stride)
        .with_removal(RemovalPolicy::relaxed())
        .with_faults(plan);
    let mut cells = Vec::new();
    let mut any_fault = 0u64;
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        for &scheme in BUILTIN_SCHEME_NAMES.iter().take(3) {
            let table = registry
                .select(scheme, &trace, &params)
                .expect("scheme selects");
            let label = format!("faults/{}/{scheme}", w.name);
            let r = simulate(&label, &trace, &cfg, &table);
            any_fault += r.fault_forced_squashes + r.fault_dropped_spawns;
            cells.push((label, r));
        }
    }
    assert!(
        any_fault > 0,
        "no fault ever landed; the plan coverage is vacuous"
    );
    pin("faults", cells);
}

/// Raw pair coordinates are drawn from a fixed range and wrapped onto the
/// generated program, so shrinking stays meaningful.
fn adversarial_table(raw: &[(u32, u32, f64)], len: usize) -> SpawnTable {
    SpawnTable::from_pairs(
        raw.iter()
            .map(|&(sp, cqip, score)| SpawnPair {
                sp: Pc(sp % len as u32),
                cqip: Pc(cqip % len as u32),
                prob: 1.0,
                avg_dist: 40.0,
                score,
                origin: PairOrigin::Profile,
            })
            .collect(),
    )
}

fn random_program() -> impl Strategy<Value = specmt::isa::Program> {
    prop::collection::vec(
        (
            2u8..7,
            prop::collection::vec((0u8..4, 1u8..9, 0u8..24), 1..8),
        ),
        1..4,
    )
    .prop_map(|loops| {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R26, 0x2_0000);
        for (li, (trips, body)) in loops.iter().enumerate() {
            let top = b.fresh_label(&format!("l{li}"));
            b.li(Reg::R27, 0);
            b.li(Reg::R28, i64::from(*trips));
            b.bind(top);
            for &(kind, r, slot) in body {
                let (r, slot) = (Reg::new(r).expect("in range"), i64::from(slot) * 8);
                match kind {
                    0 => b.ld(r, Reg::R26, slot),
                    1 => b.st(r, Reg::R26, slot),
                    2 => b.addi(r, r, 1),
                    _ => b.add(r, r, Reg::R27),
                };
            }
            b.addi(Reg::R27, Reg::R27, 1);
            b.blt(Reg::R27, Reg::R28, top);
        }
        b.halt();
        b.build().expect("generated program is structurally valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random straight-line/loop programs with adversarial spawn tables:
    /// observing a run must not change it, its stream must balance, and
    /// the engine must be deterministic.
    #[test]
    fn random_programs_windowed_equals_reference(
        program in random_program(),
        raw_pairs in prop::collection::vec((0u32..256, 0u32..256, 0.0f64..100.0), 0..6),
        units in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let trace = Trace::generate(program, 50_000).expect("generated trace");
        let table = adversarial_table(&raw_pairs, trace.program().len().max(1));
        let cfg = SimConfig::paper(units);

        let plain = simulate("plain", &trace, &cfg, &table);
        let mut log = EventLog::new();
        let observed = Simulator::with_table(&trace, cfg.clone(), &table)
            .run_with_sink(&mut log)
            .expect("observed run");
        prop_assert_eq!(&observed, &plain, "an event sink changed the result");
        let report = audit(log.events()).unwrap_or_else(|e| panic!("stream audit: {e}"));
        report
            .verify(&observed.observed_totals())
            .unwrap_or_else(|e| panic!("stream totals: {e}"));
        let again = simulate("rerun", &trace, &cfg, &table);
        prop_assert_eq!(&again, &plain, "a rerun diverged");
    }
}
