//! The performance gate: base against head over `perfbench` runs.
//!
//! ```text
//! cargo run -p glacsweb-bench --bin gate --release -- BENCHMARK.json BASE_OUT HEAD_OUT
//! ```
//!
//! The outputs are `perfbench` runs of each side on one machine at the
//! same seeds. Prints a row per gated figure ([`glacsweb_bench::compare`])
//! and exits 1 when a row fails, a head check failed or an input digest
//! differs (2 on unreadable input). `GLACSWEB_BENCH_ALLOW_REGRESSION`
//! turns failing rows, and only those, into warnings.

use glacsweb_bench::{compare, Verdict};

fn verdict(paths: &[String]) -> Result<Verdict, String> {
    let [spec, base, head] = paths else {
        return Err("usage: gate BENCHMARK.json BASE_OUT HEAD_OUT".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare(&read(spec)?, &read(base)?, &read(head)?)
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let verdict = verdict(&paths).unwrap_or_else(|e| {
        eprintln!("gate: {e}");
        std::process::exit(2);
    });
    let num = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.4e}"));
    for r in &verdict.rows {
        let (base, head, limit) = (num(r.base), num(r.head), num(r.limit()));
        let mark = if r.passes() { "ok" } else { "FAIL" };
        let better = format!("{:?}", r.better).to_lowercase();
        println!(
            "{:<15} {:<22} {better:<6} {:>4.0}%  base {base:>11}  head {head:>11}  limit {limit:>11}  {mark}",
            r.workload, r.metric, r.bound * 100.0
        );
    }
    for e in &verdict.errors {
        eprintln!("gate: {e}");
    }
    let failing = verdict.regressions().count();
    let allowed = std::env::var_os("GLACSWEB_BENCH_ALLOW_REGRESSION").is_some();
    if failing > 0 {
        let how = if allowed {
            "allowed by"
        } else {
            "fail unless you set"
        };
        eprintln!("gate: {failing} row(s) {how} GLACSWEB_BENCH_ALLOW_REGRESSION");
    }
    if !verdict.errors.is_empty() || (failing > 0 && !allowed) {
        std::process::exit(1);
    }
    println!("gate: pass");
}
