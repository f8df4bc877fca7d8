//! The metrics a run reports: end-to-end from the untraced passes,
//! per-layer from the traced ones.

use std::collections::BTreeMap;

use specmt_spawn::BUILTIN_SCHEME_NAMES;
use specmt_store::NAMESPACES;
use specmt_workloads::SUITE_NAMES;

use crate::probe::{self_times, Span};
use crate::session::Outcome;
use crate::stats::median;
use crate::workloads::{ns_label, paper_figures, ENGINE_CONFIGS};

/// The paper's Fig 3 harmonic-mean speed-up at 16 thread units.
pub const PAPER_FIG3_HMEAN: f64 = 7.2;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fig3_hmean_speedup", "x"),
];

/// Span families, for self times: a span belongs to family `f` when its
/// name is `f` or starts with `f.`.
pub const FAMILIES: [&str; 13] = [
    "workload",
    "harness.load",
    "figure",
    "stats.render",
    "trace.generate",
    "analysis.deps",
    "spawn.profile",
    "spawn.select",
    "sim.run",
    "obs.metrics_report",
    "obs.observed_sim",
    "obs.audit",
    "obs.chrome_export",
];

fn in_family(name: &str, family: &str) -> bool {
    name.strip_prefix(family)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("harness.load_s".into(), "s")];
    for def in paper_figures() {
        v.push((format!("figure.{}.s", def.id), "s"));
    }
    v.push(("figure.render_s".into(), "s"));
    v.push(("exec.jobs".into(), "count"));
    v.push(("exec.cpu_util".into(), "ratio"));
    for ns in NAMESPACES {
        let l = ns_label(ns);
        for what in ["hits", "misses", "stores"] {
            v.push((format!("store.{l}.{what}"), "count"));
        }
    }
    v.push(("store.hit_ratio".into(), "ratio"));
    v.push(("store.bytes".into(), "B"));
    v.push(("trace.generate_s".into(), "s"));
    v.push(("trace.dyn_insts".into(), "count"));
    v.push(("analysis.deps_s".into(), "s"));
    v.push(("spawn.profile_s".into(), "s"));
    for scheme in BUILTIN_SCHEME_NAMES {
        v.push((format!("spawn.select_s.{scheme}"), "s"));
    }
    for cfg in ENGINE_CONFIGS {
        v.push((format!("sim.run_s.{cfg}"), "s"));
    }
    for b in SUITE_NAMES {
        v.push((format!("sim.ns_per_inst.{b}"), "ns"));
    }
    for name in ["sim.cycles", "sim.threads_spawned", "sim.threads_squashed"] {
        v.push((name.into(), "count"));
    }
    v.push(("sim.squash_ratio".into(), "ratio"));
    for name in ["sim.spawns_declined", "sim.spawns_gated", "sim.violations"] {
        v.push((name.into(), "count"));
    }
    v.push(("sim.avg_active_threads".into(), "threads"));
    v.push(("predict.value_hit_ratio".into(), "ratio"));
    v.push(("predict.branch_hit_ratio".into(), "ratio"));
    v.push(("predict.fcm_cost_s".into(), "s"));
    v.push(("obs.events".into(), "count"));
    for name in [
        "obs.metrics_report_s",
        "obs.observed_sim_s",
        "obs.audit_s",
        "obs.chrome_export_s",
    ] {
        v.push((name.into(), "s"));
    }
    v.push(("obs.chrome_bytes".into(), "B"));
    for f in FAMILIES {
        v.push((format!("self_s.{f}"), "s"));
    }
    v.push(("trace.overhead_s".into(), "s"));
    v.push(("calib_s".into(), "s"));
    v
}

/// The end-to-end metrics of a run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let wall = median(&o.wall);
    let values = [
        wall,
        if wall > 0.0 {
            o.sim_insts_per_pass as f64 / wall / 1e6
        } else {
            0.0
        },
        median(&o.setup),
        o.peak_rss_mb,
        o.fig3_hmean,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
}

/// Per-run sums over the traced runs, for spans selected by `pick`.
struct SpanIndex<'a> {
    spans: &'a [Span],
    self_s: Vec<f64>,
    by_run: BTreeMap<u32, Vec<usize>>,
    passes: &'a [u32],
    setups: &'a [u32],
}

impl<'a> SpanIndex<'a> {
    fn new(o: &'a Outcome) -> SpanIndex<'a> {
        let mut by_run: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, s) in o.spans.iter().enumerate() {
            by_run.entry(s.run).or_default().push(i);
        }
        SpanIndex {
            spans: &o.spans,
            self_s: self_times(&o.spans),
            by_run,
            passes: &o.traced_runs,
            setups: &o.setup_runs,
        }
    }

    /// Median over runs of the per-run sum of `value` over spans matching
    /// `pick`. Taken over the traced passes when any of them has such a
    /// span, else over the set-up repetitions; 0 when none has.
    fn median_sum(&self, pick: impl Fn(&str) -> bool, value: impl Fn(usize) -> f64) -> f64 {
        let sums = |runs: &[u32]| -> Option<Vec<f64>> {
            let mut any = false;
            let v = runs
                .iter()
                .map(|r| {
                    self.by_run.get(r).map_or(0.0, |ids| {
                        ids.iter()
                            .filter(|&&i| pick(&self.spans[i].name))
                            .map(|&i| {
                                any = true;
                                value(i)
                            })
                            .sum()
                    })
                })
                .collect();
            any.then_some(v)
        };
        sums(self.passes)
            .or_else(|| sums(self.setups))
            .map_or(0.0, |v| median(&v))
    }

    fn dur(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.median_sum(pick, |i| self.spans[i].dur_s())
    }

    fn self_time(&self, family: &str) -> f64 {
        self.median_sum(|n| in_family(n, family), |i| self.self_s[i])
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Metrics of a layer the workload makes no call into read 0.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let ix = SpanIndex::new(o);
    let fam = |f: &str| ix.dur(|n| in_family(n, f));
    let mut values: BTreeMap<String, f64> = o.counts.clone();
    let mut set = |k: String, v: f64| {
        values.insert(k, v);
    };
    set("harness.load_s".into(), fam("harness.load"));
    for def in paper_figures() {
        set(
            format!("figure.{}.s", def.id),
            fam(&format!("figure.{}", def.id)),
        );
    }
    set("figure.render_s".into(), fam("stats.render"));
    set("exec.jobs".into(), o.jobs as f64);
    set("exec.cpu_util".into(), median(&o.cpu_util));
    set("trace.generate_s".into(), fam("trace.generate"));
    set(
        "trace.dyn_insts".into(),
        o.bench_insts.values().sum::<u64>() as f64,
    );
    set("analysis.deps_s".into(), fam("analysis.deps"));
    set("spawn.profile_s".into(), fam("spawn.profile"));
    for scheme in BUILTIN_SCHEME_NAMES {
        set(
            format!("spawn.select_s.{scheme}"),
            fam(&format!("spawn.select.{scheme}")),
        );
    }
    for cfg in ENGINE_CONFIGS {
        set(format!("sim.run_s.{cfg}"), fam(&format!("sim.run.{cfg}")));
    }
    for b in SUITE_NAMES {
        let suffix = format!(".{b}");
        let secs = ix.dur(|n| n.starts_with("sim.run.") && n.ends_with(&suffix));
        let insts = o.bench_insts.get(b).copied().unwrap_or(0) * ENGINE_CONFIGS.len() as u64;
        let ns = if secs > 0.0 && insts > 0 {
            secs * 1e9 / insts as f64
        } else {
            0.0
        };
        set(format!("sim.ns_per_inst.{b}"), ns);
    }
    set(
        "predict.fcm_cost_s".into(),
        fam("sim.run.paper16_fcm") - fam("sim.run.paper16"),
    );
    set("obs.metrics_report_s".into(), fam("obs.metrics_report"));
    set("obs.observed_sim_s".into(), fam("obs.observed_sim"));
    set("obs.audit_s".into(), fam("obs.audit"));
    set("obs.chrome_export_s".into(), fam("obs.chrome_export"));
    for f in FAMILIES {
        set(format!("self_s.{f}"), ix.self_time(f));
    }
    set(
        "trace.overhead_s".into(),
        median(&o.traced_wall) - median(&o.wall),
    );
    set("calib_s".into(), median(&o.calib));
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// The metrics as the `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> serde_json::Value {
    serde_json::Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_match_on_dot_boundaries() {
        assert!(in_family("sim.run.paper16.gcc", "sim.run.paper16"));
        assert!(!in_family("sim.run.paper16_fcm.gcc", "sim.run.paper16"));
        assert!(in_family("workload", "workload"));
        assert!(!in_family("figure.fig3", "fig"));
    }

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let names = per_layer_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert!(names.len() <= 128);
    }
}
