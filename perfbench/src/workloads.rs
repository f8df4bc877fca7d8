//! The four workloads. Each calls the layers' public functions through the
//! session's probe, so every call can be traced and delayed, and checks
//! every output outside the timed region.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

use specmt_bench::figures::{self, FigureDef, FigureGroup, RunOutcome};
use specmt_bench::{metrics_report, Bench, Harness};
use specmt_obs::EventLog;
use specmt_predict::ValuePredictorKind;
use specmt_sim::{SimConfig, SimResult};
use specmt_spawn::{ProfileConfig, SchemeRegistry, SpawnTable, BUILTIN_SCHEME_NAMES};
use specmt_stats::harmonic_mean;
use specmt_store::{Namespace, Store, StoreConfig, StoreHandle, NAMESPACES};
use specmt_workloads::{InputSet, SUITE_NAMES};

use crate::host;
use crate::probe::Probe;
use crate::session::{Outcome, Session, Workload};

/// The engine configurations `engine_suite` runs on every benchmark.
pub const ENGINE_CONFIGS: [&str; 4] = [
    "single_threaded",
    "paper16",
    "paper16_conf_gated",
    "paper16_fcm",
];

/// Runs the workload `s` was made for.
///
/// # Errors
///
/// A set-up failure; failures inside timed passes are counted by the
/// checker instead.
pub fn run(s: &mut Session) -> Result<(), String> {
    match s.opts.workload {
        Workload::FiguresCold => figures_cold(s),
        Workload::FiguresWarm => figures_warm(s),
        Workload::EngineSuite => engine_suite(s),
        Workload::ObserveReport => observe_report(s),
    }
}

/// The store's name for a namespace in metric names.
pub fn ns_label(ns: Namespace) -> String {
    ns.dir_name().replace('-', "_")
}

/// The paper figures `specmt bench all` runs, in paper order.
pub fn paper_figures() -> Vec<&'static FigureDef> {
    figures::registry()
        .iter()
        .filter(|d| d.group == FigureGroup::Paper)
        .collect()
}

fn store_counters(store: &Store) -> Vec<(String, u64)> {
    let mut v = Vec::new();
    for ns in NAMESPACES {
        let l = ns_label(ns);
        v.push((format!("store.{l}.hits"), store.hits(ns)));
        v.push((format!("store.{l}.misses"), store.misses(ns)));
        v.push((format!("store.{l}.stores"), store.stores(ns)));
    }
    v
}

// ---------------------------------------------------------------------------
// figures_cold and figures_warm
// ---------------------------------------------------------------------------

/// What one pass over the paper figures produced.
struct FiguresOut {
    outcomes: Vec<(&'static str, RunOutcome)>,
    store: Option<StoreHandle>,
    bench_insts: Vec<(String, u64)>,
    error: Option<String>,
}

/// One `bench all` pass: a fresh store handle and harness over
/// `store_dir`, each paper figure through `figures::run_defs`, and each
/// figure rendered.
fn figures_pass(
    scale: specmt_workloads::Scale,
    store_dir: &Path,
    jobs: usize,
    probe: &mut Probe,
) -> FiguresOut {
    let loaded = probe.call(
        "harness.load",
        || "harness.load".to_owned(),
        || Harness::load_at_with(scale, Store::open(StoreConfig::at(store_dir))),
    );
    let mut h = match loaded {
        Ok(h) => h,
        Err(e) => {
            return FiguresOut {
                outcomes: Vec::new(),
                store: None,
                bench_insts: Vec::new(),
                error: Some(format!("harness load: {e}")),
            }
        }
    };
    h.exec.jobs = jobs;
    let mut outcomes = Vec::new();
    for def in paper_figures() {
        let before = store_counters(&h.store);
        let span = probe.open(|| format!("figure.{}", def.id));
        let outcome = figures::run_defs(&h, &[def], false);
        let deltas = store_counters(&h.store)
            .into_iter()
            .zip(before)
            .map(|((name, after), (_, before))| (name, after - before))
            .collect();
        probe.close(span, deltas);
        for fig in &outcome.figures {
            let text = probe.call(
                "stats",
                || format!("stats.render.{}", fig.id),
                || fig.render_block(),
            );
            std::hint::black_box(text);
        }
        outcomes.push((def.id, outcome));
    }
    let bench_insts: Vec<(String, u64)> = h
        .benches
        .iter()
        .map(|c| (c.bench.name().to_owned(), c.bench.trace().len() as u64))
        .collect();
    FiguresOut {
        outcomes,
        store: Some(Arc::clone(&h.store)),
        bench_insts,
        error: None,
    }
}

/// Checks one figures pass: every figure entry against its reference
/// digest (so a warm pass must reproduce the cold one bit for bit), and
/// records the pass's counts. Returns the simresult lookups of the pass.
fn check_figures(scale: &str, pass: FiguresOut, out: &mut Outcome) -> u64 {
    if let Some(e) = pass.error {
        out.checker.fail(e);
        return 0;
    }
    for (id, outcome) in &pass.outcomes {
        for (fid, e) in &outcome.errors {
            out.checker.fail(format!("figure {fid}: {e}"));
        }
        if outcome.figures.is_empty() && outcome.errors.is_empty() {
            out.checker.fail(format!("figure {id}: built nothing"));
        }
        for fig in &outcome.figures {
            match serde_json::to_string(&fig.json) {
                Ok(payload) => out
                    .checker
                    .digest(&format!("{scale}/figure/{}", fig.id), &payload),
                Err(e) => out.checker.fail(format!("figure {}: {e}", fig.id)),
            }
            if fig.id == "fig3" {
                if let Some(serde_json::Value::Float(hm)) = fig.json.get("hmean") {
                    out.fig3_hmean = *hm;
                }
            }
        }
    }
    let Some(store) = pass.store else { return 0 };
    let (mut hits, mut misses) = (0u64, 0u64);
    for (name, v) in store_counters(&store) {
        if name.ends_with(".hits") {
            hits += v;
        } else if name.ends_with(".misses") {
            misses += v;
        }
        out.counts.insert(name, v as f64);
    }
    let lookups = hits + misses;
    out.counts.insert(
        "store.hit_ratio".to_owned(),
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    out.counts.insert(
        "store.bytes".to_owned(),
        store.usage().iter().map(|u| u.bytes).sum::<u64>() as f64,
    );
    out.bench_insts = pass.bench_insts.into_iter().collect();
    store.hits(Namespace::SimResult) + store.misses(Namespace::SimResult)
}

/// Simulated committed instructions behind `lookups` simresult lookups.
/// Every paper figure's grid runs each variant on all eight benchmarks, so
/// each benchmark accounts for an eighth of the lookups.
fn figure_sim_insts(lookups: u64, out: &Outcome) -> u64 {
    let suite: u64 = out.bench_insts.values().sum();
    lookups / SUITE_NAMES.len() as u64 * suite
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

const FIGURES_SEED_NOTE: &str = "seed unused: the figures run the paper's fixed Train-input grid";

/// `figures_cold`: each pass runs the paper figures against a fresh,
/// empty store. Set-up is preparing that store directory.
fn figures_cold(s: &mut Session) -> Result<(), String> {
    s.out.seed_note = FIGURES_SEED_NOTE.to_owned();
    s.out.jobs = host::nproc();
    let (scale, jobs, scale_name) = (s.opts.scale, s.out.jobs, s.scale_name());
    let mut dir = s
        .opts
        .store_dir
        .clone()
        .unwrap_or_else(|| s.opts.work_dir.join("cold-store"));
    s.passes(
        &mut dir,
        true,
        |dir| fresh_dir(dir),
        |dir, probe| figures_pass(scale, dir, jobs, probe),
        |_, pass, out| {
            let lookups = check_figures(&scale_name, pass, out);
            out.sim_insts_per_pass = figure_sim_insts(lookups, out);
        },
    );
    Ok(())
}

/// `figures_warm`: set-up populates a store with one `figures_cold` pass,
/// run as a child process so this process holds only what a warm rerun
/// holds; each timed pass reruns the figures over that store. No lookup
/// may miss, and every figure must match the committed cold digests.
fn figures_warm(s: &mut Session) -> Result<(), String> {
    s.out.seed_note = FIGURES_SEED_NOTE.to_owned();
    s.out.jobs = host::nproc();
    let (scale, jobs, scale_name) = (s.opts.scale, s.out.jobs, s.scale_name());
    let work_dir = s.opts.work_dir.clone();
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut rep = 0usize;
    let mut dir = s.setup(|_| {
        rep += 1;
        let dir = work_dir.join(format!("warm-store-{rep}"));
        let status = Command::new(&exe)
            .args(["--workload", "figures_cold", "--seconds", "0"])
            .args(["--scale", &scale_name])
            .arg("--store")
            .arg(&dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("populating the store: {e}"))?;
        if !status.success() {
            return Err(format!("populating the store failed ({status})"));
        }
        // Only the last repetition's store is kept.
        let previous = work_dir.join(format!("warm-store-{}", rep - 1));
        if previous.exists() {
            std::fs::remove_dir_all(&previous)
                .map_err(|e| format!("remove {}: {e}", previous.display()))?;
        }
        Ok(dir)
    })?;
    s.passes(
        &mut dir,
        false,
        |_| Ok(()),
        |dir, probe| figures_pass(scale, dir, jobs, probe),
        |_, pass, out| {
            let misses: u64 = pass
                .store
                .as_ref()
                .map_or(0, |st| NAMESPACES.iter().map(|&ns| st.misses(ns)).sum());
            let lookups = check_figures(&scale_name, pass, out);
            out.checker
                .record(misses == 0, || format!("warm pass: {misses} store misses"));
            out.sim_insts_per_pass = figure_sim_insts(lookups, out);
        },
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// engine_suite
// ---------------------------------------------------------------------------

struct EngineBench {
    input: &'static str,
    bench: Bench,
    profile: SpawnTable,
    gated: SpawnTable,
}

/// The inputs `engine_suite` simulates every benchmark on: the training
/// input the figures use, and the held-out reference input.
const ENGINE_INPUTS: [(InputSet, &str); 2] = [(InputSet::Train, "train"), (InputSet::Ref, "ref")];

/// `engine_suite`: every benchmark on both inputs under the four
/// [`ENGINE_CONFIGS`], store off, one thread. Set-up generates the traces,
/// builds their dependence graphs and selects the tables.
fn engine_suite(s: &mut Session) -> Result<(), String> {
    s.out.seed_note =
        "seed unused: every pass runs both the train and the held-out ref input".to_owned();
    let scale = s.opts.scale;
    let registry = SchemeRegistry::builtin();
    let params = specmt_spawn::SchemeParams::default();
    let mut benches = s.setup(|s| {
        let probe = &mut s.probe;
        let mut v = Vec::new();
        for (input, input_name) in ENGINE_INPUTS {
            for name in SUITE_NAMES {
                let workload = specmt_workloads::by_name_with_input(name, scale, input)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                let bench = probe
                    .call(
                        "trace",
                        || format!("trace.generate.{name}"),
                        || Bench::from_workload(workload),
                    )
                    .map_err(|e| format!("{name}/{input_name}: {e}"))?;
                probe.call(
                    "analysis",
                    || format!("analysis.deps.{name}"),
                    || bench.deps(),
                );
                let profile = probe.call(
                    "spawn",
                    || format!("spawn.profile.{name}"),
                    || bench.profile_table(&ProfileConfig::default()).table,
                );
                let gated = probe
                    .call(
                        "spawn",
                        || "spawn.select.conf-gated".to_owned(),
                        || registry.select("conf-gated", bench.trace(), &params),
                    )
                    .map_err(|e| format!("{name}/{input_name}: {e}"))?;
                v.push(EngineBench {
                    input: input_name,
                    bench,
                    profile,
                    gated,
                });
            }
        }
        Ok(v)
    })?;
    for b in &benches {
        *s.out
            .bench_insts
            .entry(b.bench.name().to_owned())
            .or_default() += b.bench.trace().len() as u64;
    }
    let scale_name = s.scale_name();
    let empty = SpawnTable::empty();
    s.passes(
        &mut benches,
        false,
        |_| Ok(()),
        |benches, probe| {
            let mut results = Vec::new();
            for b in benches.iter() {
                let name = b.bench.name();
                for cfg in ENGINE_CONFIGS {
                    let (config, table) = match cfg {
                        "single_threaded" => (SimConfig::single_threaded(), &empty),
                        "paper16" => (SimConfig::paper(16), &b.profile),
                        "paper16_conf_gated" => (SimConfig::paper(16), &b.gated),
                        _ => (
                            SimConfig::paper(16).with_value_predictor(ValuePredictorKind::Fcm),
                            &b.profile,
                        ),
                    };
                    let r = probe.call(
                        "sim",
                        || format!("sim.run.{cfg}.{name}"),
                        || b.bench.run(config, table),
                    );
                    results.push((b.input, name, cfg, r));
                }
            }
            results
        },
        |_, results, out| {
            let mut ok: Vec<(&str, &str, &str, SimResult)> = Vec::new();
            for (input, name, cfg, r) in results {
                let key = format!("{scale_name}/{input}/sim/{name}/{cfg}");
                match r {
                    Ok(r) => {
                        match serde_json::to_string(&r) {
                            Ok(payload) => out.checker.digest(&key, &payload),
                            Err(e) => out.checker.fail(format!("{key}: {e}")),
                        }
                        ok.push((input, name, cfg, r));
                    }
                    Err(e) => out.checker.fail(format!("{key}: {e}")),
                }
            }
            let cycles = |name: &str, cfg: &str| {
                ok.iter()
                    .find(|(i, n, c, _)| *i == "train" && *n == name && *c == cfg)
                    .map(|(_, _, _, r)| r.cycles as f64)
            };
            let speedups: Vec<f64> = SUITE_NAMES
                .iter()
                .filter_map(|&n| Some(cycles(n, "single_threaded")? / cycles(n, "paper16")?))
                .collect();
            out.fig3_hmean = harmonic_mean(&speedups);
            out.sim_insts_per_pass = ok.iter().map(|(.., r)| r.committed_instructions).sum();
            let all: Vec<&SimResult> = ok.iter().map(|(.., r)| r).collect();
            let fcm: Vec<&SimResult> = ok
                .iter()
                .filter(|(_, _, c, _)| *c == "paper16_fcm")
                .map(|(.., r)| r)
                .collect();
            sim_counts(&all, &fcm, out);
        },
    );
    Ok(())
}

/// The `sim` and `predict` modelled counts over `results`; the value
/// predictor's hit ratio over `vp_results`.
fn sim_counts(results: &[&SimResult], vp_results: &[&SimResult], out: &mut Outcome) {
    let sum = |f: fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let spawned = sum(|r| r.threads_spawned);
    let squashed = sum(|r| r.threads_squashed);
    let c = &mut out.counts;
    c.insert("sim.cycles".into(), sum(|r| r.cycles) as f64);
    c.insert("sim.threads_spawned".into(), spawned as f64);
    c.insert("sim.threads_squashed".into(), squashed as f64);
    c.insert("sim.squash_ratio".into(), ratio(squashed, spawned));
    c.insert(
        "sim.spawns_declined".into(),
        sum(|r| r.spawns_declined) as f64,
    );
    c.insert("sim.spawns_gated".into(), sum(|r| r.spawns_gated) as f64);
    c.insert("sim.violations".into(), sum(|r| r.violations) as f64);
    c.insert(
        "sim.avg_active_threads".into(),
        ratio(sum(|r| r.thread_lifetime_cycles), sum(|r| r.cycles)),
    );
    c.insert(
        "predict.branch_hit_ratio".into(),
        ratio(sum(|r| r.branch_hits), sum(|r| r.branch_predictions)),
    );
    let vp_hits: u64 = vp_results.iter().map(|r| r.value_hits).sum();
    let vp_preds: u64 = vp_results.iter().map(|r| r.value_predictions).sum();
    c.insert("predict.value_hit_ratio".into(), ratio(vp_hits, vp_preds));
}

// ---------------------------------------------------------------------------
// observe_report
// ---------------------------------------------------------------------------

struct ObservedRun {
    bench: &'static str,
    result: Result<SimResult, String>,
    audit: Result<(), String>,
    events: u64,
    chrome_bytes: u64,
}

/// `observe_report`: the `--metrics json` path (`metrics_report` over all
/// built-in schemes) and, per benchmark, the `--metrics chrome` path
/// (observed run, audit, Chrome export), store off. Each pass also reruns
/// every scheme's selection. Set-up loads the harness and fills its table
/// memo.
fn observe_report(s: &mut Session) -> Result<(), String> {
    s.out.seed_note = "seed unused: the report runs the fixed Train-input suite".to_owned();
    let scale = s.opts.scale;
    let mut h = s.setup(|s| {
        let probe = &mut s.probe;
        let h = probe
            .call(
                "harness.load",
                || "harness.load".to_owned(),
                || Harness::load_at_with(scale, Store::disabled()),
            )
            .map_err(|e| format!("harness load: {e}"))?;
        for scheme in BUILTIN_SCHEME_NAMES {
            for ctx in &h.benches {
                probe
                    .call(
                        "spawn",
                        || format!("spawn.select.{scheme}"),
                        || ctx.table_for(scheme, &h.registry, &h.params),
                    )
                    .map_err(|e| format!("{}/{scheme}: {e}", ctx.bench.name()))?;
            }
        }
        Ok(h)
    })?;
    s.out.bench_insts = h
        .benches
        .iter()
        .map(|c| (c.bench.name().to_owned(), c.bench.trace().len() as u64))
        .collect();
    let scale_name = s.scale_name();
    s.passes(
        &mut h,
        false,
        |_| Ok(()),
        |h, probe| {
            let mut selections = Vec::new();
            for scheme in BUILTIN_SCHEME_NAMES {
                for ctx in &h.benches {
                    let t = probe.call(
                        "spawn",
                        || format!("spawn.select.{scheme}"),
                        || h.registry.select(scheme, ctx.bench.trace(), &h.params),
                    );
                    selections.push((ctx.bench.name(), scheme, t));
                }
            }
            let report = probe.call(
                "obs",
                || "obs.metrics_report".to_owned(),
                || metrics_report(h, &SimConfig::paper(16), &BUILTIN_SCHEME_NAMES),
            );
            let mut runs = Vec::new();
            for ctx in &h.benches {
                let name = ctx.bench.name();
                let table = match ctx.table_for("profile", &h.registry, &h.params) {
                    Ok(t) => t,
                    Err(e) => {
                        runs.push(ObservedRun {
                            bench: name,
                            result: Err(e.to_string()),
                            audit: Ok(()),
                            events: 0,
                            chrome_bytes: 0,
                        });
                        continue;
                    }
                };
                let mut log = EventLog::new();
                let result = probe
                    .call(
                        "obs",
                        || format!("obs.observed_sim.{name}"),
                        || {
                            ctx.bench
                                .run_observed(SimConfig::paper(16), &table, &mut log)
                        },
                    )
                    .map_err(|e| e.to_string());
                let audit = probe.call(
                    "obs",
                    || format!("obs.audit.{name}"),
                    || {
                        let report = specmt_obs::audit(log.events()).map_err(|e| e.to_string())?;
                        match &result {
                            Ok(r) => report
                                .verify(&r.observed_totals())
                                .map_err(|e| e.to_string()),
                            Err(_) => Ok(()),
                        }
                    },
                );
                let chrome = probe.call(
                    "obs",
                    || format!("obs.chrome_export.{name}"),
                    || specmt_obs::chrome::trace_string(log.events()).map(|s| s.len() as u64),
                );
                runs.push(ObservedRun {
                    bench: name,
                    result,
                    audit: audit.and(chrome.as_ref().map(|_| ()).map_err(|e| e.to_string())),
                    events: log.len() as u64,
                    chrome_bytes: chrome.unwrap_or(0),
                });
            }
            (selections, report, runs)
        },
        |h, (selections, report, runs), out| {
            for (bench, scheme, t) in selections {
                let memo = h
                    .benches
                    .iter()
                    .find(|c| c.bench.name() == bench)
                    .map(|c| c.table_for(scheme, &h.registry, &h.params));
                match (t, memo) {
                    (Ok(t), Some(Ok(m))) => out.checker.record(t == *m, || {
                        format!("{bench}/{scheme}: selection differs from the set-up's")
                    }),
                    (Err(e), _) => out.checker.fail(format!("{bench}/{scheme}: {e}")),
                    (_, _) => out
                        .checker
                        .fail(format!("{bench}/{scheme}: no set-up table")),
                }
            }
            match report {
                Ok(doc) => {
                    match serde_json::to_string(&doc) {
                        Ok(payload) => out
                            .checker
                            .digest(&format!("{scale_name}/observe/metrics_report"), &payload),
                        Err(e) => out.checker.fail(format!("metrics report: {e}")),
                    }
                    out.fig3_hmean = harmonic_mean(&profile_speedups(&doc));
                }
                Err(e) => out.checker.fail(format!("metrics report: {e}")),
            }
            let mut ok = Vec::new();
            for run in &runs {
                match &run.result {
                    Ok(r) => {
                        match serde_json::to_string(r) {
                            Ok(payload) => out.checker.digest(
                                &format!("{scale_name}/observe/sim/{}", run.bench),
                                &payload,
                            ),
                            Err(e) => out.checker.fail(format!("{}: {e}", run.bench)),
                        }
                        ok.push(r);
                    }
                    Err(e) => out.checker.fail(format!("{}: {e}", run.bench)),
                }
                match &run.audit {
                    Ok(()) => out.checker.record(true, String::new),
                    Err(e) => out.checker.fail(format!("{} audit: {e}", run.bench)),
                }
            }
            let suite: u64 = out.bench_insts.values().sum();
            let observed: u64 = ok.iter().map(|r| r.committed_instructions).sum();
            out.sim_insts_per_pass = suite * BUILTIN_SCHEME_NAMES.len() as u64 + observed;
            sim_counts(&ok, &[], out);
            out.counts.insert(
                "obs.events".to_owned(),
                runs.iter().map(|r| r.events).sum::<u64>() as f64,
            );
            out.counts.insert(
                "obs.chrome_bytes".to_owned(),
                runs.iter().map(|r| r.chrome_bytes).sum::<u64>() as f64,
            );
        },
    );
    Ok(())
}

/// The `profile` scheme's speed-ups in a metrics report.
fn profile_speedups(doc: &serde_json::Value) -> Vec<f64> {
    let Some(serde_json::Value::Array(rows)) = doc.get("rows") else {
        return Vec::new();
    };
    rows.iter()
        .filter(|r| matches!(r.get("scheme"), Some(serde_json::Value::Str(s)) if s == "profile"))
        .filter_map(|r| match r.get("speedup") {
            Some(serde_json::Value::Float(x)) => Some(*x),
            _ => None,
        })
        .collect()
}
