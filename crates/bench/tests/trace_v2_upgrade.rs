//! Stores written before the version-3 trace container hold version-2
//! entries (varint columns). The reader must reject them with a version
//! error, and a store holding one must regenerate the trace under the same
//! key, rewrite the entry as version 3 and keep every downstream artifact
//! hitting — the container version, not a `CODE_REV`, carries the format.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use specmt_bench::BenchCtx;
use specmt_isa::Reg;
use specmt_store::{Namespace, Store, StoreConfig};
use specmt_trace::Trace;
use specmt_workloads::Scale;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// `trace` in the version-2 container: the v3 header, then zigzag-varint pc
/// deltas, the raw taken words and varint addr and result columns.
fn encode_v2(trace: &Trace) -> Vec<u8> {
    let json = serde_json::to_vec(trace.program().as_ref()).expect("program serializes");
    let mut out = b"SMTR".to_vec();
    out.extend_from_slice(&2u32.to_le_bytes());
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in Reg::all() {
        out.extend_from_slice(&trace.final_reg(r).to_le_bytes());
    }
    let mut prev = 0i64;
    for &pc in trace.pcs() {
        let delta = i64::from(pc) - prev;
        put_varint(&mut out, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = i64::from(pc);
    }
    for word in 0..trace.len().div_ceil(64) {
        let bits = (word * 64..trace.len().min(word * 64 + 64))
            .filter(|&k| trace.taken_at(k))
            .fold(0u64, |w, k| w | 1 << (k % 64));
        out.extend_from_slice(&bits.to_le_bytes());
    }
    for &addr in trace.addrs() {
        put_varint(&mut out, addr);
    }
    for k in 0..trace.len() {
        put_varint(&mut out, trace.result_at(k));
    }
    out
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specmt-v2-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn li_trace() -> Trace {
    let w = specmt_workloads::by_name("li", Scale::Tiny).expect("suite workload");
    Trace::generate(w.program, w.step_budget).expect("trace")
}

#[test]
fn v2_container_is_rejected_with_a_version_error() {
    let err = Trace::from_bytes(&encode_v2(&li_trace())).expect_err("v2 must not decode");
    assert!(
        err.to_string().contains("unsupported trace version 2"),
        "unexpected error: {err}"
    );
}

#[test]
fn v2_store_entry_is_regenerated_as_v3_under_its_key() {
    let dir = test_dir("upgrade");
    let cold = BenchCtx::load_with("li", Scale::Tiny, Store::open(StoreConfig::at(&dir)))
        .expect("cold load");
    let trace_dir = dir.join("trace");
    let entry = fs::read_dir(&trace_dir)
        .expect("trace namespace")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "smtr"))
        .expect("a stored trace");
    fs::write(&entry, encode_v2(cold.bench.trace())).expect("plant v2 entry");

    let store = Store::open(StoreConfig::at(&dir));
    let warm = BenchCtx::load_with("li", Scale::Tiny, Arc::clone(&store)).expect("load over v2");
    assert_eq!(
        warm.bench.trace().records_vec(),
        cold.bench.trace().records_vec()
    );
    assert_eq!(warm.profile, cold.profile);
    assert_eq!(warm.heuristics, cold.heuristics);
    assert_eq!(
        warm.bench.baseline_cycles().expect("baseline"),
        cold.bench.baseline_cycles().expect("baseline")
    );
    // The v2 entry read but was rejected: one miss, one rewrite, no hit.
    assert_eq!(store.hits(Namespace::Trace), 0);
    assert_eq!(store.misses(Namespace::Trace), 1);
    assert_eq!(store.stores(Namespace::Trace), 1);
    // The trace key did not change, so everything derived from it hits.
    for ns in [
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
    ] {
        assert_eq!(store.misses(ns), 0, "{ns:?} must keep hitting");
    }

    // Rewritten in place: same file name (same key), now version 3.
    let rewritten = fs::read(&entry).expect("entry rewritten under its key");
    assert_eq!(&rewritten[..8], b"SMTR\x03\x00\x00\x00");
    let _ = fs::remove_dir_all(&dir);
}
