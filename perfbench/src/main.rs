//! The Glacsweb benchmark: one command that runs a named workload,
//! checks the program's outputs, and prints every metric by name with
//! its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-campaign|fleet-season|service-replay|service-open|all> \
//!     --seed N --seconds S --trace 0|1 [--open-rate STEPS_PER_S] [--tiny]
//! ```
//!
//! With `--trace 0` the last line of standard output is the result with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, taken from spans recorded around calls into each layer. The
//! line before it is the full record: inputs, host, checks, quartiles
//! and, when traced, span self times. See `README.md` beside this file.

mod alloc;
mod client;
mod fleet;
mod host;
mod service;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use stats::Metric;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "sim-campaign",
    "fleet-season",
    "service-replay",
    "service-open",
];

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics the result line carries (`--trace 1`); each
/// workload must produce those [`required`] names, and the others read
/// 0 (layer bypassed).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deployment.build_ms", "ms"),
    ("deployment.run_s", "s"),
    ("deployment.us_per_sim_day", "us"),
    ("deployment.summary_ms", "ms"),
    ("deployment.windows_run", "count"),
    ("deployment.dgps_fixes", "count"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("sweep.busy_s", "s"),
    ("sweep.idle_s", "s"),
    ("sweep.speedup", "x"),
    ("fleet.new_ms", "ms"),
    ("fleet.run_s", "s"),
    ("fleet.ns_per_wake", "ns"),
    ("fleet.wakes", "count"),
    ("fleet.segments_per_leap", "ratio"),
    ("fleet.leap_fraction", "ratio"),
    ("fleet.thread_speedup", "x"),
    ("fleet.summary_ms", "ms"),
    ("fleet.digest_ms", "ms"),
    ("fleet.trace_ms", "ms"),
    ("obs.fleet_telemetry_ms", "ms"),
    ("obs.ndjson_ms", "ms"),
    ("service.load.script_ms", "ms"),
    ("service.load.steps", "count"),
    ("service.http.start_ms", "ms"),
    ("service.http.self_ns_per_req", "ns"),
    ("service.http.socket_ns_per_req", "ns"),
    ("service.http.served_ratio", "ratio"),
    ("service.http.stream_allocs_per_req", "count"),
    ("service.http.allocs_per_req", "count"),
    ("service.core.new_ms", "ms"),
    ("service.core.ns_per_op", "ns"),
    ("service.core.checkin_ns", "ns"),
    ("service.core.state_ns", "ns"),
    ("service.core.override_ns", "ns"),
    ("service.core.update_ns", "ns"),
    ("service.core.ack_ns", "ns"),
    ("service.core.batch_ns_per_entry", "ns"),
    ("service.core.states_us", "us"),
    ("service.core.battery_us", "us"),
    ("service.core.telemetry_ms", "ms"),
    ("service.core.telemetry_bytes", "bytes"),
    ("client.samples", "count"),
    ("client.latency_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.latency_p999_us", "us"),
    ("client.late_p99_us", "us"),
    ("client.reconnects", "count"),
    ("client.failed_fraction", "ratio"),
    ("client.reads_per_req", "count"),
    ("client.bytes_in_per_req", "bytes"),
    ("client.p99_us.checkin", "us"),
    ("client.p99_us.checkin-batch", "us"),
    ("client.p99_us.state", "us"),
    ("client.p99_us.override", "us"),
    ("client.p99_us.update", "us"),
    ("client.p99_us.ack", "us"),
    ("client.p99_us.analytics-states", "us"),
    ("client.p99_us.analytics-battery", "us"),
    ("client.p99_us.telemetry", "us"),
    ("trace.overhead_pct", "%"),
];

/// The metrics `workload` must produce: every end-to-end metric, or
/// when traced, the per-layer metrics of the layers it drives.
fn required(workload: &str, trace: bool) -> Vec<&'static str> {
    if !trace {
        return END_TO_END.iter().map(|m| m.0).collect();
    }
    let own: &[&str] = match workload {
        "sim-campaign" => sim::LAYERS,
        "fleet-season" => fleet::LAYERS,
        "service-replay" => service::REPLAY_LAYERS,
        "service-open" => service::OPEN_LAYERS,
        _ => &[],
    };
    let shared: &[&str] = if workload.starts_with("service-") {
        service::LAYERS
    } else {
        &[]
    };
    let mut all: Vec<&str> = shared.iter().chain(own).copied().collect();
    all.push("trace.overhead_pct");
    all
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
    pub threads: usize,
    /// Offered load of `service-open`, script steps per second; fixed
    /// by `BENCHMARK.json`'s command.
    pub open_rate: Option<f64>,
    /// Flip one byte of one socket response before the transcript
    /// comparison (the smoke test's proof that the check can fail).
    pub corrupt_transcript: bool,
}

/// A correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    workload: String,
    seed: u64,
    inputs: String,
    input_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// `(name, count, total_ms, self_ms)` per span name, when traced.
    self_times: Vec<(String, u64, f64, f64)>,
    spans_file: Option<String>,
}

impl Outcome {
    pub fn new(ctx: &Ctx, inputs: String, input_digest: u64) -> Outcome {
        Outcome {
            workload: ctx.workload.clone(),
            seed: ctx.seed,
            inputs,
            input_digest,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: Vec::new(),
            layer: Vec::new(),
            self_times: Vec::new(),
            spans_file: None,
        }
    }

    /// Records tracing overhead from the untraced and traced rates of
    /// the same work.
    pub fn overhead(&mut self, untraced: f64, traced: f64) {
        let pct = if traced > 0.0 {
            (untraced / traced - 1.0) * 100.0
        } else {
            0.0
        };
        self.layer.push(Metric::new("trace.overhead_pct", "%", pct));
    }

    /// Summarises and writes out the run's spans.
    pub fn finish_trace(&mut self, tracer: &Tracer) {
        self.self_times = tracer
            .aggregate()
            .into_iter()
            .map(|(n, a)| {
                (
                    n.to_string(),
                    a.count,
                    a.total_ns as f64 / 1e6,
                    a.self_ns as f64 / 1e6,
                )
            })
            .collect();
        let path = host::out_dir().join(format!("spans-{}.tsv", self.workload));
        match tracer.write(&path) {
            Ok(()) => {
                self.spans_file = Some(format!("{} ({} spans)", path.display(), tracer.len()))
            }
            Err(e) => self
                .checks
                .push(Check::new("trace.spans_written", false, e.to_string())),
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// What a measured phase ran: its untraced units with the peak resident
/// memory of each, MiB, and its traced units.
pub struct Phase<U> {
    pub base: Vec<U>,
    pub peak_rss_mib: Vec<f64>,
    pub traced: Vec<U>,
}

/// Runs units of work back to back until `seconds` of them have been
/// measured; `unit` returns what a unit produced and its measured
/// seconds. Without `on` every unit runs under `off`. With it, untraced
/// and traced units alternate (untraced, traced, traced, untraced, …) so
/// that both sides see the same drift of the host, and each side gets
/// half the time. The peak-RSS counter is reset before each unit, so a
/// unit's peak covers that unit alone.
pub fn phase<U>(
    off: &Tracer,
    on: Option<&Tracer>,
    seconds: f64,
    mut unit: impl FnMut(&Tracer) -> Result<(U, f64), String>,
) -> Result<Phase<U>, String> {
    let (mut untraced, mut traced, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut k = 0usize;
    while measured < seconds || untraced.is_empty() || (on.is_some() && traced.is_empty()) {
        host::reset_peak_rss();
        let s = match on {
            Some(on) if matches!(k % 4, 1 | 2) => {
                let (u, s) = unit(on)?;
                traced.push(u);
                s
            }
            _ => {
                let (u, s) = unit(off)?;
                rss.push(host::peak_rss_mib());
                untraced.push(u);
                s
            }
        };
        measured += s;
        k += 1;
    }
    Ok(Phase {
        base: untraced,
        peak_rss_mib: rss,
        traced,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metrics the result line carries, in the declared order, and
/// those it fills in with 0 because the workload bypasses their layer.
fn result_metrics(out: &Outcome, trace: bool) -> (Vec<Metric>, Vec<&'static str>) {
    let produced: BTreeMap<&str, &Metric> = out
        .e2e
        .iter()
        .chain(&out.layer)
        .map(|m| (m.name.as_str(), m))
        .collect();
    let declared: &[(&'static str, &'static str)] = if trace { PER_LAYER } else { &END_TO_END };
    let mut bypassed = Vec::new();
    let metrics = declared
        .iter()
        .map(|&(name, unit)| match produced.get(name) {
            Some(m) => (*m).clone(),
            None => {
                bypassed.push(name);
                Metric::new(name, unit, 0.0)
            }
        })
        .collect();
    (metrics, bypassed)
}

/// Fails the run when a metric the workload must produce is missing:
/// a dropped or misnamed measurement is not a bypassed layer.
fn check_required(ctx: &Ctx, out: &mut Outcome) {
    let required = required(&out.workload, ctx.trace);
    let (_, bypassed) = result_metrics(out, ctx.trace);
    let missing: Vec<&str> = bypassed
        .into_iter()
        .filter(|name| required.contains(name))
        .collect();
    out.checks.push(Check::new(
        "metrics.required_produced",
        missing.is_empty(),
        format!("{} required metrics; missing: {missing:?}", required.len()),
    ));
}

fn print_record(ctx: &Ctx, out: &Outcome) {
    let mut r = String::from("{\"record\":{");
    let _ = write!(
        r,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"inputs\":{},\"input_digest\":\"{:016x}\",",
        json_str(&out.workload),
        out.seed,
        json_num(ctx.seconds),
        ctx.trace,
        json_str(&out.inputs),
        out.input_digest
    );
    let _ = write!(
        r,
        "\"host\":{{\"available_parallelism\":{},\"cpu\":{},\"rustc\":{},\"git_sha\":{}}},",
        host::threads(),
        json_str(&host::cpu_model()),
        json_str(host::rustc()),
        json_str(&host::git_sha())
    );
    r.push_str("\"checks\":[");
    for (i, c) in out.checks.iter().enumerate() {
        if i > 0 {
            r.push(',');
        }
        let _ = write!(
            r,
            "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
            json_str(c.name),
            c.ok,
            json_str(&c.detail)
        );
    }
    r.push_str("],\"required\":[");
    for (i, name) in required(&out.workload, ctx.trace).iter().enumerate() {
        if i > 0 {
            r.push(',');
        }
        r.push_str(&json_str(name));
    }
    r.push_str("],\"metrics\":{");
    for (i, m) in out.e2e.iter().chain(&out.layer).enumerate() {
        if i > 0 {
            r.push(',');
        }
        let _ = write!(
            r,
            "{}:{{\"value\":{},\"unit\":{}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
        if let Some((q1, med, q3, n)) = m.spread {
            let _ = write!(
                r,
                ",\"q1\":{},\"median\":{},\"q3\":{},\"samples\":{}",
                json_num(q1),
                json_num(med),
                json_num(q3),
                n
            );
        }
        r.push('}');
    }
    r.push('}');
    if let Some(file) = &out.spans_file {
        let _ = write!(r, ",\"spans\":{},\"self_time_ms\":{{", json_str(file));
        for (i, (name, count, total, own)) in out.self_times.iter().enumerate() {
            if i > 0 {
                r.push(',');
            }
            let _ = write!(
                r,
                "{}:{{\"count\":{count},\"total\":{},\"self\":{}}}",
                json_str(name),
                json_num(*total),
                json_num(*own)
            );
        }
        r.push('}');
    }
    r.push_str("}}");
    println!("{r}");
}

fn print_result(ctx: &Ctx, out: &Outcome) {
    let mut r = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in result_metrics(out, ctx.trace).0.iter().enumerate() {
        if i > 0 {
            r.push(',');
        }
        let _ = write!(
            r,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    r.push_str("}}");
    println!("{r}");
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        threads: host::threads(),
        open_rate: None,
        corrupt_transcript: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => ctx.trace = value()? == "1",
            "--open-rate" => {
                ctx.open_rate = Some(value()?.parse().map_err(|e| format!("--open-rate: {e}"))?)
            }
            "--tiny" => ctx.tiny = true,
            "--corrupt-transcript" => ctx.corrupt_transcript = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.open_rate.is_none_or(|r| r > 0.0)) {
        return Err("--seconds and --open-rate must be positive".to_string());
    }
    Ok(ctx)
}

fn run_one(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "sim-campaign" => sim::run(ctx),
        "fleet-season" => fleet::run(ctx),
        "service-replay" => service::run_replay(ctx),
        "service-open" => service::run_open(ctx),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?} or all"
        )),
    }
}

fn main() {
    host::fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<String> = if ctx.workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        vec![ctx.workload.clone()]
    };
    let mut all_ok = true;
    for name in names {
        let ctx = Ctx {
            workload: name,
            ..ctx.clone()
        };
        eprintln!(
            "perfbench: workload {} seed {} ({} s, trace {})",
            ctx.workload, ctx.seed, ctx.seconds, ctx.trace
        );
        match run_one(&ctx) {
            Ok(mut out) => {
                check_required(&ctx, &mut out);
                eprintln!(
                    "perfbench: inputs {} digest {:016x}",
                    out.inputs, out.input_digest
                );
                for c in out.checks.iter().filter(|c| !c.ok) {
                    eprintln!("perfbench: CHECK FAILED {}: {}", c.name, c.detail);
                }
                print_record(&ctx, &out);
                print_result(&ctx, &out);
                all_ok &= out.correct();
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", ctx.workload);
                std::process::exit(1);
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}
