//! The store-on/store-off differential, pinned to the committed golden
//! captures: a cold run that *populates* a fresh store and a warm run served
//! *from* that store must both render every paper figure and every
//! Extra-group study bit-identically to the store-off captures in
//! `tests/golden/` (the files `figure_golden.rs` checks against a disabled
//! store). Equality of both passes against the same captures proves
//! store-on ≡ store-off by transitivity, without a third full pipeline pass.
//!
//! The Extra studies cover the reference-input path: `crossinput` and
//! `fig_adaptation` run training-selected tables on reference-input
//! contexts, whose artifacts live under `{bench}-ref-{scale}`. The cold pass
//! must store each distinct trace once — 8 training plus 8 reference — and
//! never a second copy of a training trace under another name.
//!
//! The warm pass additionally asserts its store-hit counters cover every
//! namespace with zero misses — i.e. the store really served everything,
//! rather than silently recomputing identical results.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use specmt::bench::{figures, Harness};
use specmt::store::{Namespace, Store, StoreConfig, StoreHandle};
use specmt::workloads::Scale;

/// Every capture, concatenated: the paper figures then the Extra studies.
const GOLDENS: [&str; 4] = [
    include_str!("golden/figures_tiny.txt"),
    include_str!("golden/crossinput_tiny.txt"),
    include_str!("golden/fig_adaptation_tiny.txt"),
    include_str!("golden/ablations_tiny.txt"),
];
const EXTRA_STUDIES: [&str; 3] = ["crossinput", "fig_adaptation", "ablations"];

const NAMESPACES: [Namespace; 5] = [
    Namespace::Trace,
    Namespace::Profile,
    Namespace::SpawnTable,
    Namespace::Analysis,
    Namespace::SimResult,
];

fn blocks(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for raw in text.split("=== ") {
        if raw.trim().is_empty() {
            continue;
        }
        let id = raw
            .split_whitespace()
            .next()
            .expect("block starts with an id")
            .to_owned();
        out.insert(id, format!("=== {raw}"));
    }
    out
}

fn render_all(store: StoreHandle) -> BTreeMap<String, String> {
    let h = Harness::load_at_with(Scale::Tiny, store).expect("suite loads at tiny scale");
    let mut figs = figures::all(&h).expect("all figures build");
    for id in EXTRA_STUDIES {
        let def = figures::by_id(id).expect("registered study");
        figs.extend((def.build)(&h).expect("study builds"));
    }
    figs.iter()
        .map(|f| (f.id.clone(), f.render_block()))
        .collect()
}

/// Every entry file name under the store directory, across namespaces.
fn entry_names(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for ns in fs::read_dir(dir).expect("store dir lists").flatten() {
        if let Ok(entries) = fs::read_dir(ns.path()) {
            for entry in entries.flatten() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    names
}

fn assert_matches_golden(pass: &str, rendered: &BTreeMap<String, String>) {
    let golden = blocks(&GOLDENS.concat());
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        rendered.keys().collect::<Vec<_>>(),
        "{pass}: figure ids must match the golden capture"
    );
    for (id, want) in &golden {
        assert_eq!(
            &rendered[id], want,
            "{pass}: {id} diverged from the golden (store-off) capture"
        );
    }
}

#[test]
fn cold_and_warm_store_runs_match_the_store_off_golden() {
    let dir = std::env::temp_dir().join(format!("specmt-store-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Cold pass: populates the store while producing golden output.
    let cold_store = Store::open(StoreConfig::at(&dir));
    assert_matches_golden("cold", &render_all(Arc::clone(&cold_store)));
    for ns in NAMESPACES {
        assert!(cold_store.stores(ns) > 0, "cold pass must populate {ns:?}");
    }
    assert_eq!(
        cold_store.stores(Namespace::Trace),
        16,
        "the cold pass stores each training and reference trace exactly once"
    );
    let copies: Vec<String> = entry_names(&dir)
        .into_iter()
        .filter(|n| n.contains("-train-"))
        .collect();
    assert!(copies.is_empty(), "training artifacts stored under a second name: {copies:?}");

    // Warm pass: a fresh handle over the populated directory must serve
    // every artifact — trace, profile, spawn tables, baselines, simulation
    // results — and still render the identical figures.
    let warm_store = Store::open(StoreConfig::at(&dir));
    assert_matches_golden("warm", &render_all(Arc::clone(&warm_store)));
    for ns in NAMESPACES {
        assert_eq!(
            warm_store.misses(ns),
            0,
            "warm pass must serve every {ns:?} artifact from the store"
        );
        assert!(warm_store.hits(ns) > 0, "warm pass must hit {ns:?}");
    }
    assert_eq!(
        warm_store.stores(Namespace::SimResult),
        0,
        "a warm pass recomputes no simulation result"
    );

    let _ = fs::remove_dir_all(&dir);
}
