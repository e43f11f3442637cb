//! Schema self-test: the names this binary emits are exactly the ones
//! `BENCHMARK.json` declares, and a smoke run of the real thing is sane.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::json::{self, Value};
use crate::workload::WORKLOADS;
use crate::{END_TO_END, PER_LAYER};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn spec() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry in one of the spec's metric lists.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .unwrap_or_else(|| panic!("spec has no {list}"))
        .items()
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
        .collect()
}

#[test]
fn tables_are_exactly_what_benchmark_json_declares() {
    let spec = spec();
    assert_eq!(declared(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .expect("spec has workloads")
        .items()
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_owned))
        .collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(workloads, ours);
    for metric in spec.get("end_to_end").unwrap().items() {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

/// Runs `run.sh --smoke --trace both` (2 s windows, `tour_fleet` and
/// `tour_mine`, both the timed and the traced run) and checks what it
/// printed.
#[test]
fn smoke_run_emits_every_declared_metric() {
    let output = Command::new("bash")
        .arg(repo_root().join("benchmark/run.sh"))
        .args(["--smoke", "--trace", "both"])
        .output()
        .expect("run.sh starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // `<workload> <metric> <value> <unit> n=<samples>`
    let mut seen: BTreeMap<&str, Vec<(String, String)>> = BTreeMap::new();
    let mut values: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit, samples] = fields[..] else {
            continue;
        };
        if !samples.starts_with("n=") {
            continue;
        }
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(value.is_finite(), "{line}");
        seen.entry(workload)
            .or_default()
            .push((metric.to_owned(), unit.to_owned()));
        values.insert((workload, metric), value);
    }

    let spec = spec();
    let mut expected = declared(&spec, "end_to_end");
    expected.extend(declared(&spec, "per_layer"));
    assert_eq!(
        seen.keys().copied().collect::<Vec<_>>(),
        ["tour_fleet", "tour_mine"]
    );
    for (workload, metrics) in &seen {
        assert_eq!(metrics, &expected, "{workload}");
        assert_eq!(
            values[&(*workload, "harness.tours_lost")],
            0.0,
            "{workload}"
        );
        assert!(values[&(*workload, "hops_per_s")] > 0.0, "{workload}");
    }
    assert!(values[&("tour_fleet", "journal.fsyncs_per_hop")] > 0.0);
    assert_eq!(values[&("tour_mine", "journal.fsyncs_per_hop")], 0.0);
    assert_eq!(values[&("tour_mine", "firewall.verified_per_hop")], 0.0);

    let latest = repo_root().join("benchmark/out/latest.json");
    let latest = json::parse(&std::fs::read_to_string(latest).expect("latest.json written"))
        .expect("latest.json parses");
    for workload in ["tour_fleet", "tour_mine"] {
        let result = latest
            .get("workloads")
            .and_then(|w| w.get(workload))
            .expect("result");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
    }
}
