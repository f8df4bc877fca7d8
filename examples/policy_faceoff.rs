//! Policy face-off: every spawning scheme on the whole suite, through the
//! scheme registry.
//!
//! Compares the profile-based scheme against each construct heuristic
//! individually and their combination — the comparison behind the paper's
//! §4.2.1 and Figure 8 — at 16 thread units with perfect value prediction.
//! It also shows the registry's extension point: a custom `union` scheme
//! (profile pairs merged with the combined heuristics) is registered
//! alongside the built-ins and raced against them on equal terms.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example policy_faceoff
//! ```

use specmt::sim::SimConfig;
use specmt::spawn::{SchemeError, SchemeParams, SchemeRegistry, SpawnScheme, SpawnTable};
use specmt::stats::{harmonic_mean, Table};
use specmt::trace::Trace;
use specmt::workloads::Scale;
use specmt::Bench;

/// A custom scheme: the union of the profile-selected pairs and the
/// combined construct heuristics, deduplicated by `(sp, cqip)`.
///
/// Delegating to other registered schemes keeps the composition honest:
/// whatever parameters the caller passes flow through unchanged.
#[derive(Debug)]
struct UnionScheme;

impl SpawnScheme for UnionScheme {
    fn name(&self) -> &str {
        "union"
    }

    fn describe(&self) -> String {
        "profile-selected pairs merged with the combined construct heuristics".into()
    }

    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        let builtin = SchemeRegistry::builtin();
        let profile = builtin.select("profile", trace, params)?;
        let heuristics = builtin.select("heuristics", trace, params)?;
        let mut pairs: Vec<_> = profile.iter().copied().collect();
        pairs.extend(heuristics.iter().copied());
        Ok(SpawnTable::from_pairs(pairs))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = SchemeRegistry::builtin();
    registry.register(Box::new(UnionScheme))?;
    let params = SchemeParams::default();

    let schemes = [
        "profile",
        "loop-iteration",
        "loop-continuation",
        "subroutine-continuation",
        "heuristics",
        "union",
    ];
    let headers: Vec<&str> = std::iter::once("bench").chain(schemes).collect();
    let mut table = Table::new(&headers);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];

    for bench in Bench::suite(Scale::Medium)? {
        let mut cells = vec![bench.name().to_string()];
        for (col, scheme) in schemes.iter().enumerate() {
            let spawn_table = registry.select(scheme, bench.trace(), &params)?;
            let mut cfg = SimConfig::paper(16);
            if *scheme == "profile" || *scheme == "union" {
                // The paper's best profile configuration: §3.1 selection
                // plus the Figure 7b minimum-size enforcement.
                cfg.min_observed_size = Some(32);
            }
            let r = bench.run(cfg, &spawn_table)?;
            let sp = bench.speedup(&r)?;
            columns[col].push(sp);
            cells.push(format!("{sp:.2}"));
        }
        table.row_owned(cells);
    }
    let mut last = vec!["Hmean".to_string()];
    for col in &columns {
        last.push(format!("{:.2}", harmonic_mean(col)));
    }
    table.row_owned(last);

    println!("Schemes in the race:");
    for name in registry.names() {
        if let Some(scheme) = registry.get(name) {
            println!("  {:<24} {}", name, scheme.describe());
        }
    }
    println!("\nSpeed-up over single-threaded execution (16 TUs, perfect VP):\n");
    println!("{}", table.render());
    println!(
        "profile vs combined heuristics: {:+.1}%",
        (harmonic_mean(&columns[0]) / harmonic_mean(&columns[4]) - 1.0) * 100.0
    );
    Ok(())
}
