//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints each metric by name and unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. The
//! metrics are the end-to-end ones, or with `--trace 1` the per-layer
//! ones. Exits 1 if any output check failed, 2 on a usage error.
//!
//! Further flags: `--scale tiny|small|medium|large` overrides the
//! workload's scale (tests use `tiny`); `--delay <layer>:<us>` adds a busy
//! delay before every call into `sim`, `harness.load` or `obs` (the
//! sensitivity check); `--bless` records the run's digests into
//! `refs/digests.json` instead of comparing them; `--store <dir>` makes
//! `figures_cold` keep its store in `<dir>`.

use std::process::ExitCode;

use perfbench::host::Fingerprint;
use perfbench::probe::{self_times, spans_json, Delay};
use perfbench::report::{self, Metric, PAPER_FIG3_HMEAN};
use perfbench::session::{Opts, Outcome, Workload};
use perfbench::stats::summarize;
use specmt_workloads::Scale;

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "large" => Ok(Scale::Large),
        _ => Err(format!("--scale wants tiny|small|medium|large, got `{s}`")),
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let (mut scale, mut delay, mut bless, mut store_dir) = (None, None, false, None);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {names:?})")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                }
            }
            "--scale" => scale = Some(parse_scale(&value)?),
            "--delay" => delay = Some(Delay::parse(&value)?),
            "--store" => store_dir = Some(std::path::PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = perfbench::package_dir().join("work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        scale: scale.unwrap_or(workload.default_scale()),
        delay,
        bless,
        work_dir,
        store_dir,
    })
}

/// Removes the run's private directory however the run ends.
struct WorkDir(std::path::PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let root = perfbench::package_dir().join("..");
    let host = Fingerprint::collect(&root);
    println!("{}", host.line());
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let work = WorkDir(opts.work_dir.clone());
    let (name, seed, trace, bless) = (opts.workload.name(), opts.seed, opts.trace, opts.bless);
    println!(
        "workload {name}: scale {:?}, seed {seed}, {}s timed, trace {}",
        opts.scale, opts.seconds, trace as u8
    );
    let o = perfbench::run(opts)?;
    drop(work);
    println!("  {}", o.seed_note);
    print_end_to_end(&o);
    let metrics = if trace {
        let layer = report::per_layer(&o);
        for m in &layer {
            println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
        }
        write_spans(name, seed, &host, &o, &layer)?;
        layer
    } else {
        report::end_to_end(&o)
    };
    for f in o.checker.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if bless && o.checker.failed == 0 {
        let path = perfbench::package_dir().join("refs/digests.json");
        let base =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        std::fs::write(&path, o.checker.blessed(&base)?)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: recorded digests in {}", path.display());
    }
    let correct = o.checker.failed == 0 && o.checker.attempted > 0;
    let line = serde_json::json!({
        "correct": correct,
        "attempted": o.checker.attempted,
        "failed": o.checker.failed,
        "metrics": report::metrics_json(&metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_end_to_end(o: &Outcome) {
    for m in report::end_to_end(o) {
        let detail = match m.name.as_str() {
            "wall_s" => format!("  ({} s per pass)", summarize(&o.wall)),
            "setup_s" => format!("  ({} s)", summarize(&o.setup)),
            "fig3_hmean_speedup" => format!("  (paper: {PAPER_FIG3_HMEAN})"),
            _ => String::new(),
        };
        println!("  {:<20} {:>18} {}{detail}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<20} {:>18} ratio  ({} failed of {} attempted)",
        "fail_ratio",
        o.checker.fail_ratio(),
        o.checker.failed,
        o.checker.attempted
    );
    println!(
        "  {:<20} {:>18} s  ({} s)",
        "calib_s",
        perfbench::stats::median(&o.calib),
        summarize(&o.calib)
    );
    if !o.traced_wall.is_empty() {
        println!(
            "  {:<20} {:>18} s  (traced {} s per pass)",
            "trace.overhead_s",
            perfbench::stats::median(&o.traced_wall) - perfbench::stats::median(&o.wall),
            summarize(&o.traced_wall)
        );
    }
}

/// Writes the traced run's spans, with self times, next to the package.
fn write_spans(
    name: &str,
    seed: u64,
    host: &Fingerprint,
    o: &Outcome,
    layer: &[Metric],
) -> Result<(), String> {
    let dir = perfbench::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{name}-seed{seed}.json"));
    let doc = serde_json::json!({
        "schema": "perfbench-spans/v1",
        "workload": name,
        "seed": seed,
        "host": host.json(),
        "traced_runs": o.traced_runs.clone(),
        "setup_runs": o.setup_runs.clone(),
        "spans": spans_json(&o.spans, &self_times(&o.spans)),
        "per_layer": report::metrics_json(layer),
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}
