//! Differential suite for the arena/SoA engine core.
//!
//! The engine refactor (flat per-pair runtime tables, CSR spawn-point
//! index, hot/cold thread-unit split, batched cache model) promises
//! *bit-identical* [`SimResult`]s: only the representation of the hot
//! state changed, never what it computes. This suite pins that promise
//! against a golden capture taken from the pre-refactor
//! `BTreeMap`/`HashMap` engine:
//!
//! * every suite workload × every built-in spawning scheme × a grid of
//!   policy configurations (paper machine, removal + minimum-size +
//!   stride prediction + reassign) must reproduce the captured
//!   [`SimResult`] exactly, and
//! * the same holds under seeded fault plans, whose RNG draws would
//!   expose any added, dropped or reordered decision on the spawn and
//!   policy paths.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! SPECMT_REGEN_ENGINE_GOLDEN=1 cargo test --release --test engine_differential
//! ```
//!
//! (The regeneration run rewrites `tests/golden/engine_results_tiny.json`
//! and then fails, so a stale golden can never be committed by accident.)

use std::collections::BTreeMap;

use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, RemovalPolicy, SimConfig, SimResult, Simulator};
use specmt::spawn::{SchemeParams, SchemeRegistry, SpawnTable, BUILTIN_SCHEME_NAMES};
use specmt::trace::Trace;
use specmt::workloads::Scale;

// Tests in this workspace run with the package dir (crates/core) as CWD.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/engine_results_tiny.json"
);
const GOLDEN: &str = include_str!("golden/engine_results_tiny.json");

/// The configuration grid: each entry exercises a different set of engine
/// decision paths (spawn conflicts, removal policies, minimum-size
/// sweeps, value prediction, reassignment, fault injection).
fn config_grid() -> Vec<(&'static str, SimConfig)> {
    let fault_a = FaultPlan {
        seed: 0xdead_beef,
        squash_rate: 0.10,
        drop_spawn_rate: 0.10,
        corrupt_value_rate: 0.20,
        cache_jitter: 3,
        remove_pair_rate: 0.02,
    };
    let fault_b = FaultPlan {
        seed: 0x1234_5678,
        squash_rate: 0.02,
        drop_spawn_rate: 0.30,
        corrupt_value_rate: 0.05,
        cache_jitter: 0,
        remove_pair_rate: 0.10,
    };
    let mut policies = SimConfig::paper(8)
        .with_value_predictor(ValuePredictorKind::Stride)
        .with_removal(RemovalPolicy {
            alone_cycles: 50,
            occurrences: 2,
            reinstate_after: Some(500),
            max_companions: 1,
        });
    policies.min_observed_size = Some(16);
    policies.reassign = true;
    vec![
        ("paper16", SimConfig::paper(16)),
        ("paper8-policies", policies),
        (
            "paper8-faultA",
            SimConfig::paper(8)
                .with_value_predictor(ValuePredictorKind::Stride)
                .with_faults(fault_a),
        ),
        (
            "paper4-faultB",
            SimConfig::paper(4)
                .with_removal(RemovalPolicy::relaxed())
                .with_faults(fault_b),
        ),
    ]
}

/// Runs the full grid and returns `label -> SimResult` in a stable order.
fn run_grid() -> BTreeMap<String, SimResult> {
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let configs = config_grid();
    let mut out = BTreeMap::new();
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        let tables: Vec<(&str, SpawnTable)> = BUILTIN_SCHEME_NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    registry
                        .select(name, &trace, &params)
                        .expect("scheme selects"),
                )
            })
            .collect();
        for (scheme, table) in &tables {
            for (cfg_name, cfg) in &configs {
                let label = format!("{}/{scheme}/{cfg_name}", w.name);
                let r = Simulator::with_table(&trace, cfg.clone(), table)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                out.insert(label, r);
            }
        }
    }
    out
}

/// The online (`scoreboard` / `conf-gated`) schemes keep all their runtime
/// state — pair scoreboard, per-unit confidence registers — inside the
/// engine, so they must stay bit-identical when the experiment grid is
/// scheduled on 1 vs 8 executor workers, and when the same seeded grid is
/// simply run twice.
#[test]
fn adaptive_schemes_bit_identical_across_jobs_and_reruns() {
    use specmt::bench::{ExperimentSpec, Harness, Variant};

    let spec = ExperimentSpec::new(
        SimConfig::paper(8).with_value_predictor(ValuePredictorKind::Stride),
        vec![
            Variant::speedup("scoreboard", "scoreboard", vec![]),
            Variant::speedup("conf-gated", "conf-gated", vec![]),
        ],
    );
    let run_at = |jobs: usize| {
        let mut h = Harness::load_at(Scale::Tiny).expect("tiny suite loads");
        h.exec.jobs = jobs;
        spec.run(&h).expect("adaptive grid runs")
    };
    let serial = run_at(1);
    let wide = run_at(8);
    assert_eq!(
        serial.results, wide.results,
        "adaptive SimResults must not depend on --jobs"
    );
    assert_eq!(serial.values, wide.values);
    assert_eq!(serial.means, wide.means);

    // Two same-seed runs at the same width are the degenerate rerun case.
    let again = run_at(8);
    assert_eq!(
        wide.results, again.results,
        "same-seed adaptive rerun diverged"
    );
    assert_eq!(wide.values, again.values);

    // The determinism claim is vacuous if the gates never fired: across
    // the suite at least one spawn must have been gated or pair demoted.
    let influenced: u64 = serial
        .results
        .iter()
        .flatten()
        .map(|r| r.spawns_gated + r.pairs_demoted)
        .sum();
    assert!(
        influenced > 0,
        "adaptive grid never gated a spawn or demoted a pair"
    );
}

#[test]
fn sim_results_match_pre_refactor_golden() {
    let results = run_grid();
    assert_eq!(
        results.len(),
        8 * BUILTIN_SCHEME_NAMES.len() * config_grid().len(),
        "grid covers all workloads x schemes x configs"
    );

    // The vendored serde has no map impls, so the golden is stored as a
    // sorted list of (label, result) pairs.
    if std::env::var_os("SPECMT_REGEN_ENGINE_GOLDEN").is_some() {
        let pairs: Vec<(String, SimResult)> = results.into_iter().collect();
        let json = serde_json::to_string_pretty(&pairs).expect("golden serialises");
        std::fs::write(GOLDEN_PATH, json + "\n").expect("golden written");
        panic!("regenerated {GOLDEN_PATH}; rerun without SPECMT_REGEN_ENGINE_GOLDEN");
    }

    let golden: BTreeMap<String, SimResult> =
        serde_json::from_str::<Vec<(String, SimResult)>>(GOLDEN)
            .expect("golden parses")
            .into_iter()
            .collect();
    assert_eq!(
        golden.len(),
        results.len(),
        "golden and grid cover the same cells"
    );
    let mut diffs = Vec::new();
    for (label, want) in &golden {
        match results.get(label) {
            None => diffs.push(format!("{label}: missing from run")),
            Some(got) if got != want => diffs.push(format!(
                "{label}: diverged\n  golden: {want:?}\n  got:    {got:?}"
            )),
            Some(_) => {}
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} cells diverged from the pre-refactor engine:\n{}",
        diffs.len(),
        golden.len(),
        diffs.join("\n")
    );
}
