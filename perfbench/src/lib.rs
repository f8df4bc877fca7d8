//! # perfbench
//!
//! The repository's benchmark: four workloads over the specmt pipeline,
//! end-to-end metrics from untraced runs, per-layer metrics from a traced
//! run, and a check of every output against committed reference digests.
//! See `README.md` for the workloads, the metrics and the layer map.

pub mod check;
pub mod host;
pub mod probe;
pub mod report;
pub mod session;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

use session::{Opts, Outcome, Session};

/// The benchmark package's own directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload as `opts` says and returns what it measured. A
/// set-up failure is one failed operation.
///
/// # Errors
///
/// A message if the committed reference digests cannot be read.
pub fn run(opts: Opts) -> Result<Outcome, String> {
    let checker = check::Checker::new(check::REFS, opts.bless)?;
    let mut s = Session::new(opts, checker);
    if let Err(e) = workloads::run(&mut s) {
        s.out.checker.fail(format!("set-up: {e}"));
    }
    Ok(s.finish())
}
