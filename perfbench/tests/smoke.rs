//! Tiny-scale smoke test: every workload runs, passes its checks, and
//! prints every metric `BENCHMARK.json` names, with its unit, in the
//! result line; the traced run's spans have sound self times.

use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = perfbench::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn is_number(v: Option<&Value>) -> bool {
    matches!(v, Some(Value::Float(_) | Value::Int(_) | Value::UInt(_)))
}

/// Runs the benchmark binary at tiny scale and returns its result line.
fn run_tiny(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check_result(workload: &str, result: &Value, declared: &[Value]) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{workload}");
    assert!(
        matches!(result.get("attempted"), Some(Value::UInt(n)) if *n >= 1),
        "{workload}"
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|m| str_of(m, "name")).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for (m, (_, got)) in declared.iter().zip(metrics) {
        assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{workload}");
        assert!(is_number(got.get("value")), "{workload}: {got:?}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let bench = benchmark_json();
    let workloads = array(&bench, "workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = str_of(w, "name");
        check_result(name, &run_tiny(name, false), array(&bench, "end_to_end"));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_sound_spans() {
    let bench = benchmark_json();
    for w in array(&bench, "workloads") {
        let name = str_of(w, "name");
        check_result(name, &run_tiny(name, true), array(&bench, "per_layer"));
        let path = perfbench::package_dir().join(format!("out/spans-{name}-seed7.json"));
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spans = array(&doc, "spans");
        assert!(
            spans.iter().any(|s| str_of(s, "name") == "workload"),
            "{name}"
        );
        for s in spans {
            let num = |k: &str| match s.get(k) {
                Some(Value::UInt(n)) => *n as f64,
                Some(Value::Float(x)) => *x,
                Some(Value::Int(n)) => *n as f64,
                other => panic!("{k}: {other:?}"),
            };
            let dur = (num("end_ns") - num("start_ns")) * 1e-9;
            let self_s = num("self_s");
            assert!(self_s >= 0.0 && self_s <= dur + 1e-12, "{name}: {s:?}");
        }
    }
}

#[test]
fn declared_metrics_match_the_code() {
    let bench = benchmark_json();
    let per_layer: Vec<(String, String)> = array(&bench, "per_layer")
        .iter()
        .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
        .collect();
    let code: Vec<(String, String)> = perfbench::report::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(per_layer, code);
    let end_to_end: Vec<(&str, &str)> = array(&bench, "end_to_end")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect();
    assert_eq!(end_to_end, perfbench::report::END_TO_END.to_vec());
}
