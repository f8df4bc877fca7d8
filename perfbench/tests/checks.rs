//! The output checks catch a perturbed result.

use perfbench::check::{Checker, REFS};
use specmt_bench::Bench;
use specmt_sim::SimConfig;
use specmt_spawn::ProfileConfig;
use specmt_workloads::{by_name_with_input, InputSet, Scale};

#[test]
fn digest_check_catches_a_perturbed_sim_result() {
    let workload = by_name_with_input("compress", Scale::Tiny, InputSet::Train).unwrap();
    let bench = Bench::from_workload(workload).unwrap();
    let table = bench.profile_table(&ProfileConfig::default()).table;
    let result = bench.run(SimConfig::paper(16), &table).unwrap();
    let key = "tiny/train/sim/compress/paper16";

    let mut good = Checker::new(REFS, false).unwrap();
    good.digest(key, &serde_json::to_string(&result).unwrap());
    assert_eq!((good.attempted, good.failed), (1, 0), "{:?}", good.failures);

    let mut perturbed = result.clone();
    perturbed.cycles += 1;
    let mut bad = Checker::new(REFS, false).unwrap();
    bad.digest(key, &serde_json::to_string(&perturbed).unwrap());
    assert_eq!((bad.attempted, bad.failed), (1, 1));
    assert!(bad.failures[0].contains("reference"), "{:?}", bad.failures);
}

#[test]
fn a_key_that_changes_within_a_run_fails_even_when_blessing() {
    let mut c = Checker::new(REFS, true).unwrap();
    c.digest("tiny/figure/fig3", "{\"hmean\":1}");
    c.digest("tiny/figure/fig3", "{\"hmean\":2}");
    assert_eq!((c.attempted, c.failed), (2, 1));
}

#[test]
fn an_unknown_key_fails() {
    let mut c = Checker::new(REFS, false).unwrap();
    c.digest("tiny/figure/no-such-figure", "{}");
    assert_eq!(c.failed, 1);
    assert!((c.fail_ratio() - 1.0).abs() < f64::EPSILON);
}
