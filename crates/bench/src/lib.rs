//! Benchmark harness support for the Glacsweb reproduction.
//!
//! The real content lives in:
//!
//! * `src/bin/experiments.rs` — regenerates every table/figure/in-text
//!   number of the paper (run `cargo run -p glacsweb-bench --bin
//!   experiments --release`);
//! * `benches/bench_*.rs` — Criterion benchmarks timing each experiment's
//!   underlying machinery (one bench target per paper artifact);
//! * [`compare`] and `src/bin/gate.rs` — the performance gate, base
//!   against head over the runs of the benchmark `BENCHMARK.json` declares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use serde::{Deserialize, Value};

/// Names of all experiments the binary understands, in run order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig6",
    "depletion",
    "backlog",
    "retrieval",
    "survival",
    "architecture",
    "recovery",
    "ordering",
    "ablation",
    "science",
    "priority",
    "sites",
    "chaos",
    "checkpoint",
];

/// Parsed command line of the `experiments` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Seed passed to every experiment.
    pub seed: u64,
    /// Directory to dump raw JSON results into, if requested.
    pub json_dir: Option<String>,
    /// Experiments to run, in order.
    pub which: Vec<String>,
    /// Worker threads for the sweep engine (`--threads N`); `None` falls
    /// back to `GLACSWEB_THREADS`, then to the machine's parallelism.
    /// Output is byte-identical whatever the value.
    pub threads: Option<usize>,
}

/// Parses the binary's arguments (without the program name).
///
/// # Errors
///
/// Returns a usage/error message for unknown experiments, malformed seeds
/// or missing flag values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut options = Options {
        seed: 2009,
        json_dir: None,
        which: Vec::new(),
        threads: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--json" => {
                options.json_dir = Some(args.next().ok_or("--json needs a directory")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|e| format!("bad thread count {v:?}: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                options.threads = Some(n);
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: experiments [--seed N] [--json DIR] [--threads N] [{}...]",
                    EXPERIMENTS.join("|")
                ));
            }
            name if EXPERIMENTS.contains(&name) => options.which.push(name.to_string()),
            other => return Err(format!("unknown experiment {other:?}; try --help")),
        }
    }
    if options.which.is_empty() {
        options.which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(options)
}

/// Which way a gated metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// The bound is a floor below base.
    Higher,
    /// The bound is a ceiling above base.
    Lower,
}

/// Each workload's failed over attempted operations, pooled over its
/// runs; gated with bound 0, so head's share may not rise above base's.
pub const FAILED_SHARE: &str = "failed/attempted";

/// Rows kept from the gate `BENCHMARK.json` replaced, so that no check
/// got looser: `(workload or all, metric, better, bound)`. The 20 %
/// `ops_per_s` row sits beside `BENCHMARK.json`'s looser one.
#[rustfmt::skip]
const CARRIED: [(Option<&str>, &str, Better, f64); 2] = [
    (None, "ops_per_s", Better::Higher, 0.20),
    (Some("service-replay"), "client.latency_p99_us", Better::Lower, 0.50),
];

/// One gated figure: each side's median over its runs of a metric on a
/// workload, `None` where no run recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, as the record lines carry it.
    pub metric: String,
    /// Which way the metric improves.
    pub better: Better,
    /// Tolerated relative change the wrong way.
    pub bound: f64,
    /// Base's median.
    pub base: Option<f64>,
    /// Head's median.
    pub head: Option<f64>,
}

impl Row {
    /// The worst head value that passes: `base × (1 ∓ bound)`.
    pub fn limit(&self) -> Option<f64> {
        let base = self.base?;
        Some(match self.better {
            Better::Higher => base * (1.0 - self.bound),
            Better::Lower => base * (1.0 + self.bound),
        })
    }

    /// Both sides have the metric and head is within the limit, or on it.
    pub fn passes(&self) -> bool {
        match (self.head, self.limit(), self.better) {
            (Some(h), Some(l), Better::Higher) => h >= l,
            (Some(h), Some(l), Better::Lower) => h <= l,
            _ => false,
        }
    }
}

/// What [`compare`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `BENCHMARK.json`'s end-to-end metrics on each workload, then the
    /// carried-over rows, then [`FAILED_SHARE`] on each workload.
    pub rows: Vec<Row>,
    /// Failures no bound excuses: failed head checks, and input digests
    /// that differ between the sides at one workload and seed.
    pub errors: Vec<String>,
}

impl Verdict {
    /// The rows that fail their bound or miss a side.
    pub fn regressions(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| !r.passes())
    }
}

/// What the gate reads of `BENCHMARK.json`.
#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Bounded>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Bounded {
    name: String,
    better: String,
    bound: f64,
}

/// One side's runs.
#[derive(Default)]
struct Side {
    samples: BTreeMap<(String, String), Vec<f64>>,
    /// `(attempted, failed)` per workload, summed over runs.
    ops: BTreeMap<String, (u64, u64)>,
    digests: BTreeMap<(String, u64), String>,
    failed_checks: Vec<String>,
}

impl Side {
    fn parse(text: &str) -> Result<Side, String> {
        let mut side = Side::default();
        let mut record = None;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
            match (v.get("record"), record.take()) {
                (Some(r), _) => record = Some(r.clone()),
                (None, Some(r)) => side.add(&r, &v).ok_or(format!("malformed run: {line}"))?,
                (None, None) => return Err("a result line with no record line".to_string()),
            }
        }
        Ok(side)
    }

    fn add(&mut self, record: &Value, result: &Value) -> Option<()> {
        let w = record.get("workload")?.as_str()?;
        let seed = record.get("seed")?.as_u64()?;
        let digest = record.get("input_digest")?.as_str()?.to_string();
        self.digests.insert((w.to_string(), seed), digest);
        for c in record.get("checks")?.as_seq()? {
            if !c.get("ok")?.as_bool()? {
                let name = c.get("name")?.as_str()?;
                self.failed_checks
                    .push(format!("{w} seed {seed}: check {name} failed"));
            }
        }
        for (name, m) in record.get("metrics")?.as_map()? {
            let key = (w.to_string(), name.as_str()?.to_string());
            self.samples
                .entry(key)
                .or_default()
                .extend(m.get("value")?.as_f64());
        }
        let sums = self.ops.entry(w.to_string()).or_default();
        sums.0 += result.get("attempted")?.as_u64()?;
        sums.1 += result.get("failed")?.as_u64()?;
        Some(())
    }

    /// The median over runs, or the pooled [`FAILED_SHARE`].
    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        if metric == FAILED_SHARE {
            let &(attempted, failed) = self.ops.get(workload)?;
            return Some(failed as f64 / attempted.max(1) as f64);
        }
        let mut v = self.samples.get(&(workload.into(), metric.into()))?.clone();
        v.sort_by(f64::total_cmp);
        // The middle sample, or the mean of the middle two.
        Some((v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0)
    }
}

/// Compares base against head: `benchmark` is `BENCHMARK.json`; `base`
/// and `head` are the standard output of any number of `perfbench` runs
/// of each side, every `{"record":…}` line followed by its result line.
///
/// # Errors
///
/// Returns a message when `benchmark` or a line of either output is not
/// the JSON expected.
pub fn compare(benchmark: &str, base: &str, head: &str) -> Result<Verdict, String> {
    let spec: Spec = serde_json::from_str(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let row = |workload: &str, metric: &str, better, bound| Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        better,
        bound,
        base: None,
        head: None,
    };
    let mut rows = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let better = match m.better.as_str() {
                "higher" => Better::Higher,
                _ => Better::Lower,
            };
            rows.push(row(&w.name, &m.name, better, m.bound));
        }
    }
    for (only, metric, better, bound) in CARRIED {
        for w in spec
            .workloads
            .iter()
            .filter(|w| only.is_none_or(|o| o == w.name))
        {
            rows.push(row(&w.name, metric, better, bound));
        }
    }
    for w in &spec.workloads {
        rows.push(row(&w.name, FAILED_SHARE, Better::Lower, 0.0));
    }

    let base = Side::parse(base).map_err(|e| format!("base: {e}"))?;
    let head = Side::parse(head).map_err(|e| format!("head: {e}"))?;
    for r in &mut rows {
        r.base = base.value(&r.workload, &r.metric);
        r.head = head.value(&r.workload, &r.metric);
    }
    let mut errors = head.failed_checks;
    for (key, digest) in &head.digests {
        if let Some(b) = base.digests.get(key).filter(|b| *b != digest) {
            let (w, seed) = key;
            errors.push(format!(
                "{w} seed {seed}: input_digest {b} on base, {digest} on head"
            ));
        }
    }
    Ok(Verdict { rows, errors })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seventeen_experiments_cover_the_paper_plus_extensions() {
        assert_eq!(EXPERIMENTS.len(), 17);
    }

    #[test]
    fn no_args_runs_everything_with_the_default_seed() {
        let o = parse_args(args(&[])).expect("valid");
        assert_eq!(o.seed, 2009);
        assert_eq!(o.which.len(), EXPERIMENTS.len());
        assert_eq!(o.json_dir, None);
        assert_eq!(o.threads, None, "thread count defers to the environment");
    }

    #[test]
    fn threads_flag_parses() {
        let o = parse_args(args(&["--threads", "4", "fig5"])).expect("valid");
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.which, vec!["fig5".to_string()]);
    }

    #[test]
    fn bad_thread_counts_are_errors() {
        assert!(parse_args(args(&["--threads"])).is_err());
        assert!(parse_args(args(&["--threads", "zero"])).is_err());
        assert!(parse_args(args(&["--threads", "0"])).is_err());
    }

    #[test]
    fn subset_and_flags_parse() {
        let o = parse_args(args(&["--seed", "7", "fig5", "--json", "/tmp/out", "fig6"]))
            .expect("valid");
        assert_eq!(o.seed, 7);
        assert_eq!(o.which, vec!["fig5".to_string(), "fig6".to_string()]);
        assert_eq!(o.json_dir.as_deref(), Some("/tmp/out"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = parse_args(args(&["fig9"])).expect_err("invalid");
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn missing_flag_values_are_errors() {
        assert!(parse_args(args(&["--seed"])).is_err());
        assert!(parse_args(args(&["--json"])).is_err());
        assert!(parse_args(args(&["--seed", "abc"])).is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = parse_args(args(&["--help"])).expect_err("usage");
        assert!(err.starts_with("usage:"));
        assert!(err.contains("fig5"));
    }
}
