//! Stage keys and store plumbing for the trace → simulate pipeline.
//!
//! The pipeline is a chain of pure functions; this module names each
//! stage's *input closure* and turns it into a [`StageKey`] for the
//! content-addressed store (`specmt-store`):
//!
//! | stage      | namespace    | key components                                             |
//! |------------|--------------|------------------------------------------------------------|
//! | `trace`    | `trace`      | program JSON, step budget, checksum, trace code-rev        |
//! | `profile`  | `profile`    | trace key, `ProfileConfig`, analysis + spawn code-revs     |
//! | `table`    | `spawn-table`| trace key, scheme identity, `SchemeParams`, spawn code-rev |
//! | `baseline` | `analysis`   | trace key, single-threaded `SimConfig`, sim code-rev       |
//! | `simulate` | `simresult`  | trace key, `SpawnTable` content, `SimConfig`, sim code-rev |
//!
//! Because every downstream key *chains* the upstream stage's key, a
//! workload change invalidates everything derived from its trace, while a
//! `SimConfig` change re-keys only the simulate stage — profile results and
//! spawn tables keep hitting. Analysis parameters (`ProfileConfig`,
//! `SchemeParams`) are hashed into the keys directly, so a parameter change
//! misses without any version bump; semantic changes to a stage's code are
//! declared by bumping that crate's `CODE_REV` constant.
//!
//! The simulate key fingerprints the spawn table's *content*, not its
//! provenance, so ad-hoc tables (ablation sweeps, custom schemes, merged
//! tables) address results correctly.
//!
//! ## Trust model
//!
//! Stale entries are unreachable by construction (the key is the content
//! address of the inputs). Corrupt entries are parse-and-reject: traces must
//! embed the workload's own program and are structurally re-validated and
//! checksum-verified by [`Bench::from_cached`], JSON payloads must parse;
//! any failure counts as a miss and falls through to regeneration, which
//! overwrites the entry. A trace written in an older container version is
//! rejected the same way, so a format change needs no `CODE_REV` bump.

use std::sync::Arc;

use specmt_sim::SimConfig;
use specmt_spawn::{ProfileConfig, SchemeParams, SpawnTable};
use specmt_store::{KeyBuilder, Namespace, StageKey, Store};
use specmt_trace::Trace;
use specmt_workloads::Workload;

use crate::{Bench, BenchError};

/// The trace stage's key: everything that determines the generated trace.
/// `None` if the program cannot be serialized (the store is skipped, the
/// pipeline still runs).
pub fn trace_stage(workload: &Workload) -> Option<StageKey> {
    let program_json = serde_json::to_vec(&workload.program).ok()?;
    Some(trace_key(workload, &program_json))
}

/// [`trace_stage`] for a workload whose program serializes to
/// `program_json`.
fn trace_key(workload: &Workload, program_json: &[u8]) -> StageKey {
    KeyBuilder::new("trace")
        .component("program", program_json)
        .component("step-budget", &workload.step_budget)
        .component("checksum", &workload.expected_checksum)
        .code_rev(specmt_trace::CODE_REV)
        .finish()
}

/// The profile stage's key: the trace it read plus the `ProfileConfig`
/// subset that §3.1 selection actually consumes.
pub fn profile_stage(trace_key: &StageKey, config: &ProfileConfig) -> StageKey {
    KeyBuilder::new("profile")
        .chain("trace-key", trace_key)
        .component("profile-config", config)
        .component("analysis-code-rev", &specmt_analysis::CODE_REV)
        .component("spawn-code-rev", &specmt_spawn::CODE_REV)
        .finish()
}

/// A spawn-table entry's key: the trace, the scheme's self-declared cache
/// identity (see `SpawnScheme::cache_identity`), and the selection
/// parameters.
pub fn table_stage(trace_key: &StageKey, identity: &str, params: &SchemeParams) -> StageKey {
    KeyBuilder::new("table")
        .chain("trace-key", trace_key)
        .cell("scheme-identity", identity)
        .cell("scheme-params", params)
        .component("spawn-code-rev", &specmt_spawn::CODE_REV)
        .finish()
}

/// The single-threaded baseline's key (an `analysis`-namespace artifact).
pub fn baseline_stage(trace_key: &StageKey) -> StageKey {
    KeyBuilder::new("baseline")
        .chain("trace-key", trace_key)
        .component("sim-config", &SimConfig::single_threaded())
        .code_rev(specmt_sim::CODE_REV)
        .finish()
}

/// A simulation result's key: the trace, the spawn table's *content* and
/// the full effective configuration.
pub fn sim_stage(trace_key: &StageKey, table: &SpawnTable, config: &SimConfig) -> StageKey {
    KeyBuilder::new("simulate")
        .chain("trace-key", trace_key)
        .cell("spawn-table", table)
        .component("sim-config", config)
        .code_rev(specmt_sim::CODE_REV)
        .finish()
}

/// The baseline document stored in the `analysis` namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineDoc {
    /// Single-threaded cycles of the workload's trace.
    pub cycles: u64,
}

serde::impl_serde_struct!(BaselineDoc { cycles });

/// Builds a [`Bench`] for `workload`, consulting `store`'s trace namespace
/// under the logical name `label` before generating. Returns the bench and
/// its trace stage key (`None` when the workload is unkeyable).
///
/// A stored trace is never trusted: its embedded program must be the
/// workload's, it is structurally re-validated and must reproduce the
/// workload's checksum ([`Bench::from_cached`]); any failure counts as a
/// miss and regenerates and overwrites the entry.
///
/// # Errors
///
/// As [`Bench::from_workload`].
pub(crate) fn bench_via_store(
    store: &Store,
    workload: Workload,
    label: &str,
) -> Result<(Bench, Option<StageKey>), BenchError> {
    // One serialization serves both the key and the decoder's program check.
    let Ok(program_json) = serde_json::to_vec(&workload.program) else {
        return Ok((Bench::from_workload(workload)?, None));
    };
    let tkey = trace_key(&workload, &program_json);
    let cached = store.get_with(Namespace::Trace, label, &tkey, |bytes| {
        let program = Arc::new(workload.program.clone());
        let trace = Trace::from_bytes_with_program(&bytes, &program, &program_json).ok()?;
        Bench::from_cached(workload.clone(), trace, None).ok()
    });
    // Large programs serialize to megabytes; held across trace generation
    // the JSON would raise peak memory.
    drop(program_json);
    if let Some(bench) = cached {
        return Ok((bench, Some(tkey)));
    }
    let bench = Bench::from_workload(workload)?;
    let mut trace_bytes = Vec::new();
    if bench.trace().write_to(&mut trace_bytes).is_ok() {
        store.put_bytes(Namespace::Trace, label, &tkey, &trace_bytes);
    }
    Ok((bench, Some(tkey)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_workloads::Scale;

    fn workload() -> Workload {
        specmt_workloads::by_name("li", Scale::Tiny).expect("suite workload")
    }

    #[test]
    fn trace_key_is_stable_and_workload_sensitive() {
        let a = trace_stage(&workload()).expect("keyable");
        let b = trace_stage(&workload()).expect("keyable");
        assert_eq!(a.key, b.key);
        let other = specmt_workloads::by_name("go", Scale::Tiny).expect("suite workload");
        assert_ne!(a.key, trace_stage(&other).expect("keyable").key);
    }

    #[test]
    fn downstream_stages_chain_the_trace_key() {
        let t = trace_stage(&workload()).expect("keyable");
        let other = specmt_workloads::by_name("go", Scale::Tiny).expect("suite workload");
        let t2 = trace_stage(&other).expect("keyable");
        let cfg = ProfileConfig::default();
        assert_ne!(profile_stage(&t, &cfg).key, profile_stage(&t2, &cfg).key);
        assert_ne!(baseline_stage(&t).key, baseline_stage(&t2).key);
    }

    #[test]
    fn sim_key_separates_configs_tables_and_stage() {
        let t = trace_stage(&workload()).expect("keyable");
        let empty = SpawnTable::empty();
        let base = sim_stage(&t, &empty, &SimConfig::paper(4));
        assert_ne!(base.key, sim_stage(&t, &empty, &SimConfig::paper(8)).key);
        // The baseline stage and an equivalent simulate-stage key must not
        // collide (same inputs, different stage name).
        assert_ne!(
            baseline_stage(&t).key,
            sim_stage(&t, &empty, &SimConfig::single_threaded()).key
        );
    }
}
