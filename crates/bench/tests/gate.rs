//! The performance gate on synthetic `perfbench` record lines: a pass,
//! and a failure for each way the gate can fail.

use glacsweb_bench::{compare, Row, FAILED_SHARE};

/// Two workloads, two end-to-end metrics: enough for every row kind.
const SPEC: &str = r#"{"workloads": [{"name": "sim-campaign"}, {"name": "service-replay"}],
  "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                 {"name": "cpu_us_per_op", "better": "lower", "bound": 0.25}]}"#;

/// One run of one workload: its record line and its result line.
fn run(workload: &str, seed: u64, ops: f64, cpu: f64, p99: f64) -> String {
    format!(
        "{{\"record\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"input_digest\":\"a{seed}\",\
         \"checks\":[{{\"name\":\"a.check\",\"ok\":true,\"detail\":\"d\"}}],\"metrics\":{{\
         \"ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\",\"median\":{ops}}},\
         \"cpu_us_per_op\":{{\"value\":{cpu}}},\"client.latency_p99_us\":{{\"value\":{p99}}}}}}}}}\n\
         {{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{{}}}}\n"
    )
}

/// Both workloads at `seed`, with the same figures.
fn side(seed: u64, ops: f64, cpu: f64, p99: f64) -> String {
    run("sim-campaign", seed, ops, cpu, p99) + &run("service-replay", seed, ops, cpu, p99)
}

fn label(r: &Row) -> String {
    format!("{} {} {}", r.workload, r.metric, r.bound)
}

/// The failing rows, then the errors.
fn gate(base: &str, head: &str) -> Vec<String> {
    let v = compare(SPEC, base, head).unwrap();
    let rows = v.regressions().map(label);
    rows.chain(v.errors.iter().cloned()).collect()
}

#[test]
fn each_way_to_pass_and_to_fail() {
    let base = side(1, 1000.0, 100.0, 100.0);
    let sim = |ops, cpu, p99| run("sim-campaign", 1, ops, cpu, p99);
    let replay = |ops, cpu, p99| run("service-replay", 1, ops, cpu, p99);
    let failed_check = base.replacen("\"ok\":true", "\"ok\":false", 1);
    let failed_op = base.replacen("\"failed\":0", "\"failed\":1", 1);
    let only_replay = replay(1000.0, 100.0, 100.0);
    #[rustfmt::skip]
    let cases: [(&str, String, &[&str]); 11] = [
        ("equal", base.clone(), &[]),
        ("on every bound", side(1, 800.0, 125.0, 150.0), &[]),
        // Each run fails alone, and so would a mean; the medians pass.
        ("median of three", side(1, 50.0, 120.0, 100.0) + &side(2, 900.0, 500.0, 100.0)
            + &side(3, 850.0, 90.0, 200.0), &[]),
        ("mean of the middle two", side(1, 700.0, 150.0, 100.0) + &side(2, 900.0, 100.0, 200.0), &[]),
        ("other seed", side(2, 1000.0, 100.0, 100.0), &[]),
        ("below a floor", sim(799.0, 100.0, 100.0) + &replay(1000.0, 100.0, 100.0),
            &["sim-campaign ops_per_s 0.2"]),
        ("above a ceiling", sim(1000.0, 100.0, 100.0) + &replay(1000.0, 125.5, 150.5),
            &["service-replay cpu_us_per_op 0.25", "service-replay client.latency_p99_us 0.5"]),
        ("failed check", failed_check.clone(), &["sim-campaign seed 1: check a.check failed"]),
        ("input digest", base.replacen("\"a1\"", "\"b1\"", 1),
            &["sim-campaign seed 1: input_digest a1 on base, b1 on head"]),
        ("failed share", failed_op.clone(), &["sim-campaign failed/attempted 0"]),
        ("missing workload", only_replay.clone(),
            &["sim-campaign ops_per_s 0.25", "sim-campaign cpu_us_per_op 0.25",
              "sim-campaign ops_per_s 0.2", "sim-campaign failed/attempted 0"]),
    ];
    for (case, head, want) in cases {
        assert_eq!(gate(&base, &head), want, "{case}");
    }
    // Base's failed checks and failed operations are not head's; base's
    // missing rows are.
    assert!(gate(&failed_check, &base).is_empty());
    assert!(gate(&failed_op, &base).is_empty());
    assert_eq!(gate(&only_replay, &base).len(), 4);
}

#[test]
fn the_committed_benchmark_gets_its_rows_and_the_carried_bounds() {
    let v = compare(include_str!("../../../BENCHMARK.json"), "", "").unwrap();
    let rows: Vec<String> = v.rows.iter().map(label).collect();
    // 4 workloads x 4 end-to-end metrics, the carried ops_per_s rows and
    // p99 row, and a failed share per workload; every row misses both
    // sides here.
    assert_eq!((rows.len(), v.regressions().count()), (25, 25));
    for row in [
        "sim-campaign setup_s 0.25",
        "fleet-season ops_per_s 0.25",
        "fleet-season ops_per_s 0.2",
        "service-open peak_rss_mib 0.15",
        "service-replay client.latency_p99_us 0.5",
        &format!("service-open {FAILED_SHARE} 0"),
    ] {
        assert!(rows.iter().any(|r| r == row), "{row} not in {rows:?}");
    }
}
