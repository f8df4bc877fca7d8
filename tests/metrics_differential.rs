//! Differential test: observation is free, behaviourally.
//!
//! The observability layer promises that turning metrics/event collection
//! on never changes what the simulator computes — only what it records.
//! This pins that promise two ways, next to `figure_golden.rs` in spirit:
//!
//! * the **full figure registry** (paper figures and extras) at tiny scale
//!   produces bit-identical rendered tables and JSON with observation
//!   forced on via [`Harness::set_observe`], and
//! * every suite workload's raw [`SimResult`] is bit-identical across the
//!   three run modes (plain, `observe = true` with the metrics snapshot
//!   stripped, and `run_with_sink`), including under an active fault plan
//!   whose RNG draws would expose any divergence in the instrumented
//!   paths.

use std::collections::BTreeMap;

use specmt::bench::{figures, Harness};
use specmt::obs::EventLog;
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, SimConfig, SimResult, Simulator};
use specmt::spawn::{profile_pairs, ProfileConfig};
use specmt::store::Store;
use specmt::trace::Trace;
use specmt::workloads::Scale;

/// `(id, rendered block, JSON)` for every attempted figure definition.
fn registry_output(h: &Harness) -> (Vec<String>, Vec<(String, String)>) {
    let defs: Vec<&figures::FigureDef> = figures::registry().iter().collect();
    let outcome = figures::run_defs(h, &defs, false);
    assert!(
        outcome.errors.is_empty(),
        "registry must build cleanly at tiny scale: {:?}",
        outcome
            .errors
            .iter()
            .map(|(id, e)| format!("{id}: {e}"))
            .collect::<Vec<_>>()
    );
    let summary = outcome
        .summary
        .iter()
        .map(|v| serde_json::to_string(v).expect("summary entry serialises"))
        .collect();
    let blocks = outcome
        .figures
        .iter()
        .map(|f| (f.id.clone(), f.render_block()))
        .collect();
    (summary, blocks)
}

#[test]
fn figure_registry_is_bit_identical_with_observation_on() {
    // Run against a disabled store so this test neither depends on nor
    // pollutes shared state (same discipline as figure_golden.rs).
    let h =
        Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("suite loads at tiny scale");

    let (summary_off, blocks_off) = registry_output(&h);
    h.set_observe(true);
    let (summary_on, blocks_on) = registry_output(&h);

    assert_eq!(
        blocks_off.len(),
        blocks_on.len(),
        "observation changed the number of figures built"
    );
    for ((id, off), (id_on, on)) in blocks_off.iter().zip(&blocks_on) {
        assert_eq!(id, id_on, "observation reordered the registry");
        assert_eq!(off, on, "{id}: rendered table changed with observation on");
    }
    assert_eq!(
        summary_off, summary_on,
        "figure JSON changed with observation on"
    );
}

/// Strips the metrics snapshot (the one field allowed to differ) and
/// asserts it was actually populated first.
fn stripped(label: &str, mut r: SimResult) -> SimResult {
    assert!(
        r.metrics.is_some(),
        "{label}: observe = true produced no metrics snapshot"
    );
    r.metrics = None;
    r
}

#[test]
fn sim_results_are_bit_identical_across_run_modes() {
    // An active plan with every hook hot: any extra or missing RNG draw on
    // the instrumented paths shifts the whole downstream sequence.
    let plan = FaultPlan {
        seed: 0xfeed_f00d,
        squash_rate: 0.15,
        drop_spawn_rate: 0.15,
        corrupt_value_rate: 0.25,
        cache_jitter: 4,
        remove_pair_rate: 0.05,
    };
    let configs: Vec<(&str, SimConfig)> = vec![
        ("paper16", SimConfig::paper(16)),
        (
            "paper8+faults+stride",
            SimConfig::paper(8)
                .with_faults(plan)
                .with_value_predictor(ValuePredictorKind::Stride),
        ),
    ];

    let mut per_workload: BTreeMap<&'static str, u64> = BTreeMap::new();
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        let table = profile_pairs(&trace, &ProfileConfig::default()).table;
        for (cfg_name, cfg) in &configs {
            let label = format!("{}/{cfg_name}", w.name);
            let plain = Simulator::with_table(&trace, cfg.clone(), &table)
                .run()
                .expect("plain run");

            let observed = Simulator::with_table(&trace, cfg.clone().with_observe(true), &table)
                .run()
                .expect("observed run");
            assert_eq!(
                plain,
                stripped(&label, observed),
                "{label}: observe = true changed the result"
            );

            let mut log = EventLog::new();
            let sunk = Simulator::with_table(&trace, cfg.clone(), &table)
                .run_with_sink(&mut log)
                .expect("sink run");
            assert_eq!(plain, sunk, "{label}: streaming events changed the result");
            assert!(!log.is_empty(), "{label}: sink run emitted nothing");
            per_workload.insert(w.name, plain.cycles);
        }
    }
    assert_eq!(per_workload.len(), 8, "all suite workloads covered");
}
