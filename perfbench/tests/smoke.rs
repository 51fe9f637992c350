//! Smoke test of the benchmark at tiny sizes: every workload emits
//! every metric `BENCHMARK.json` declares, with its unit; the metrics a
//! workload must produce are measured, not filled in; and a corrupted
//! transcript fails the run.

use std::path::Path;
use std::process::Command;

use serde::Value;

/// Required metrics that may be measured as 0: a refusal that finds
/// no request in flight leaves nothing to resend.
const MAY_READ_ZERO: &[&str] = &["client.failed_fraction"];

fn declaration() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// Runs the benchmark at tiny sizes; returns its exit status, its
/// result line and the record line before it, parsed.
fn run(args: &[&str]) -> (bool, Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_glacsweb-perfbench"))
        .args(["--tiny", "--seconds", "0.5", "--seed", "7"])
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, result] = lines[..] else {
        panic!(
            "no record and result lines; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let record: Value = serde_json::from_str(record).expect("record line is JSON");
    (
        out.status.success(),
        serde_json::from_str(result).expect("result line is JSON"),
        record.get("record").expect("record").clone(),
    )
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("{key} list"))
        .iter()
        .map(|s| s.as_str().expect("string").to_string())
        .collect()
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_seq)
        .expect("declared list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let decl = declaration();
    let workloads: Vec<String> = decl
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    let mut layers_driven = Vec::new();
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, result, record) = run(&["--workload", workload, "--trace", trace]);
            assert!(ok, "{workload} --trace {trace} failed: {record:?}");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            let declared = names(&decl, key);
            // What the workload must produce is in its own measurements,
            // non-zero; only the rest may be filled in, with 0.
            let required = strings(&record, "required");
            let measured = record.get("metrics").expect("record metrics");
            for name in &required {
                assert!(
                    declared.iter().any(|d| &d.0 == name),
                    "{workload}: {name} is required but not declared"
                );
                let value = measured
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("{workload}: {name} was not measured"));
                assert!(
                    value != 0.0 || MAY_READ_ZERO.contains(&name.as_str()),
                    "{workload}: {name} measured 0"
                );
            }
            if key == "per_layer" {
                layers_driven.extend(required.iter().cloned());
            }
            for (name, unit) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !required.contains(name) {
                    assert_eq!(value, 0.0, "{workload}: bypassed {name}");
                }
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} reads 0");
                }
            }
            assert_eq!(
                metrics.as_map().map(<[_]>::len),
                Some(declared.len()),
                "{workload}: extra metrics"
            );
        }
    }
    for (name, _) in names(&decl, "per_layer") {
        assert!(
            layers_driven.contains(&name),
            "{name} is produced by no workload"
        );
    }
}

#[test]
fn a_corrupted_transcript_byte_fails_the_check() {
    for workload in ["service-replay", "service-open"] {
        let (ok, result, _) = run(&[
            "--workload",
            workload,
            "--trace",
            "0",
            "--corrupt-transcript",
        ]);
        assert!(!ok, "{workload}: a corrupted transcript must fail the run");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    }
}

#[test]
fn refused_requests_are_resent_and_counted() {
    // The tiny shape lowers the per-connection cap, so the replay is
    // refused several times and must still finish correct.
    let (ok, result, _) = run(&["--workload", "service-replay", "--trace", "1"]);
    assert!(ok, "{result:?}");
    let metric = |n: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(n))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect(n)
    };
    assert!(metric("client.reconnects") > 0.0);
    assert!(metric("service.http.served_ratio") <= 1.0);
}
