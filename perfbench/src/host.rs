//! The host side of a run: fingerprint, process memory and CPU time, the
//! calibration kernel, and the busy delay used by the sensitivity check.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use specmt_store::FingerprintHasher;

/// What a run records about the machine and the code it measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_commit: String,
    /// Digest of the repository's sources (`crates/`, `Cargo.toml`,
    /// `Cargo.lock`), which identifies the code where git cannot.
    pub src_digest: String,
}

impl Fingerprint {
    /// Collects the fingerprint of this host for the repository at `root`.
    pub fn collect(root: &Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Only ask git inside a checkout's own root, so it never searches
        // the directories above it.
        let git_commit = if root.join(".git").exists() {
            command_line(
                "git",
                &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
            )
        } else {
            None
        };
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            git_commit: git_commit.unwrap_or_else(|| "none".to_owned()),
            src_digest: source_digest(root),
        }
    }

    /// The fingerprint as one line of text.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={} src={}",
            self.nproc, self.cpu_model, self.rustc, self.git_commit, self.src_digest
        )
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "nproc": self.nproc,
            "cpu_model": self.cpu_model,
            "rustc": self.rustc,
            "git_commit": self.git_commit,
            "src_digest": self.src_digest,
        })
    }
}

/// Available parallelism (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_owned())
}

fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = FingerprintHasher::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.str(&rel.display().to_string());
        match std::fs::read(f) {
            Ok(bytes) => h.bytes(&bytes),
            Err(_) => h.none(),
        }
    }
    h.finish().hex()[..16].to_owned()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, out);
            }
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU seconds this process has used, all threads
/// included (`/proc/self/stat`, at the kernel's usual 100 ticks/s).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SECOND
}

/// Times one pass of the fixed calibration kernel: integer mixing and
/// scattered stores into a 64 KiB table, a few milliseconds of work that
/// does not change with the code under test. A slow host shows here as
/// well as in the workload's times.
pub fn calibrate() -> f64 {
    const STEPS: u32 = 1 << 20;
    let start = Instant::now();
    // On the stack, so the kernel never depends on the allocator's state.
    let mut table = [0u32; 1 << 14];
    let mask = table.len() - 1;
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(i).rotate_left(3);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Spins for `d` without yielding the CPU.
pub fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}
