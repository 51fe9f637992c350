//! `fleet-season`: one leap-mode `glacsweb_fleet::Fleet` simulated over
//! a year on every core, then summarised, digested and exported as
//! telemetry.

use std::time::Instant;

use glacsweb_fleet::{Fleet, FleetConfig};

use crate::stats::{fnv, mix, Metric, FNV_OFFSET};
use crate::trace::{Tracer, NONE};
use crate::{Check, Ctx, Outcome};

/// The per-layer metrics this workload produces.
pub const LAYERS: &[&str] = &[
    "fleet.new_ms",
    "fleet.run_s",
    "fleet.ns_per_wake",
    "fleet.wakes",
    "fleet.segments_per_leap",
    "fleet.leap_fraction",
    "fleet.thread_speedup",
    "fleet.summary_ms",
    "fleet.digest_ms",
    "obs.fleet_telemetry_ms",
    "obs.ndjson_ms",
];

struct Shape {
    sites: u32,
    per_site: u32,
    days: u64,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.tiny {
        Shape {
            sites: 4,
            per_site: 20,
            days: 30,
        }
    } else {
        Shape {
            sites: 20,
            per_site: 500,
            days: 365,
        }
    }
}

pub fn config(ctx: &Ctx, sites: u32, per_site: u32, salt: u64) -> FleetConfig {
    FleetConfig::new(sites, per_site).seed(mix(ctx.seed, salt))
}

/// What one season produced.
struct Season {
    setup_s: f64,
    wall_s: f64,
    /// Process CPU time over `wall_s`.
    cpu_ns: u64,
    digest: u64,
    telemetry: u64,
    summary: String,
    stats: glacsweb_fleet::ExecStats,
}

fn season(tracer: &Tracer, cfg: &FleetConfig, days: u64, threads: usize) -> Result<Season, String> {
    tracer.span("fleet.season", NONE, |id| {
        let t0 = Instant::now();
        let fleet = tracer.span("fleet.new", id, |_| Fleet::new(cfg.clone()));
        let mut fleet = fleet.map_err(|e| format!("fleet config rejected: {e}"))?;
        fleet.set_threads(threads);
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let cpu = crate::host::process_cpu_ns();
        tracer.span("fleet.run", id, |_| fleet.run_days(days));
        let summary = tracer.span("fleet.summary", id, |_| fleet.summary());
        let digest = tracer.span("fleet.digest", id, |_| fleet.state_digest());
        let telemetry = tracer.span("obs.fleet_telemetry", id, |_| fleet.telemetry());
        let ndjson = tracer.span("obs.ndjson", id, |_| telemetry.to_ndjson());
        let wall_s = t1.elapsed().as_secs_f64();
        let cpu_ns = crate::host::process_cpu_ns() - cpu;
        Ok(Season {
            setup_s,
            wall_s,
            cpu_ns,
            digest,
            telemetry: fnv(FNV_OFFSET, ndjson.as_bytes()),
            summary: summary.to_json(),
            stats: fleet.exec_stats(),
        })
    })
}

fn rate(seasons: &[Season], stations: f64, days: f64) -> f64 {
    seasons.len() as f64 * stations * days / seasons.iter().map(|s| s.wall_s).sum::<f64>()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sh = shape(ctx);
    let cfg = config(ctx, sh.sites, sh.per_site, 0);
    let stations = f64::from(sh.sites * sh.per_site);
    let inputs = format!(
        "{} sites x {} stations, {} days, leaping, fleet seed {:#018x}",
        sh.sites, sh.per_site, sh.days, cfg.seed
    );
    let digest = fnv(
        fnv(FNV_OFFSET, &glacsweb_snapshot::to_bytes(&cfg)),
        &sh.days.to_le_bytes(),
    );
    let mut out = Outcome::new(ctx, inputs, digest);

    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    // Extra set-ups, so the set-up median rests on several samples.
    let mut setups: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            let _ = Fleet::new(cfg.clone());
            t.elapsed().as_secs_f64()
        })
        .collect();
    // Warm-up: a month of the same fleet.
    season(&off, &cfg, sh.days.min(30), ctx.threads)?;
    let crate::Phase {
        base,
        peak_rss_mib,
        traced,
    } = crate::phase(&off, ctx.trace.then_some(&tracer), ctx.seconds, |t| {
        let s = season(t, &cfg, sh.days, ctx.threads)?;
        let wall_s = s.wall_s;
        Ok((s, wall_s))
    })?;
    setups.extend(base.iter().map(|s| s.setup_s));
    let rates: Vec<f64> = base
        .iter()
        .map(|s| stations * sh.days as f64 / s.wall_s)
        .collect();
    let cpu_per_day: Vec<f64> = base
        .iter()
        .map(|s| s.cpu_ns as f64 / 1e3 / (stations * sh.days as f64))
        .collect();
    out.attempted = base.len() as u64;
    out.e2e = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::over(
            "ops_per_s",
            "1/s",
            rate(&base, stations, sh.days as f64),
            &rates,
        ),
        Metric::median("cpu_us_per_op", "us", &cpu_per_day),
        Metric::median("peak_rss_mib", "MiB", &peak_rss_mib),
    ];

    // The same season on one thread must land on the same state.
    let serial_tracer = Tracer::new(ctx.trace);
    let serial = season(&serial_tracer, &cfg, sh.days, 1)?;
    let first = &base[0];
    let same = |s: &Season| {
        s.digest == first.digest && s.telemetry == first.telemetry && s.summary == first.summary
    };
    out.checks.push(Check::new(
        "fleet.digest_1_vs_n_threads",
        same(&serial),
        format!(
            "state_digest {:016x} at 1 thread, {:016x} at {}",
            serial.digest, first.digest, ctx.threads
        ),
    ));
    out.checks.push(Check::new(
        "fleet.seasons_agree",
        base.iter().chain(&traced).all(same),
        format!(
            "{} seasons, telemetry ndjson {:016x}",
            base.len() + traced.len(),
            first.telemetry
        ),
    ));
    if !ctx.trace {
        return Ok(out);
    }

    let agg = tracer.aggregate();
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let st = traced[0].stats;
    let run = get("fleet.run");
    let serial_run = serial_tracer
        .aggregate()
        .get("fleet.run")
        .copied()
        .unwrap_or_default();
    let layer = &mut out.layer;
    layer.push(Metric::new(
        "fleet.new_ms",
        "ms",
        get("fleet.new").mean_ms(),
    ));
    layer.push(Metric::new("fleet.run_s", "s", run.mean_ms() / 1e3));
    layer.push(Metric::new(
        "fleet.ns_per_wake",
        "ns",
        run.mean_ms() * 1e6 / st.wakes.max(1) as f64,
    ));
    layer.push(Metric::new("fleet.wakes", "count", st.wakes as f64));
    layer.push(Metric::new(
        "fleet.segments_per_leap",
        "ratio",
        st.segments as f64 / st.leaps.max(1) as f64,
    ));
    layer.push(Metric::new(
        "fleet.leap_fraction",
        "ratio",
        st.ticks_leapt as f64 / (st.ticks_leapt + st.ticks_stepped).max(1) as f64,
    ));
    layer.push(Metric::new(
        "fleet.thread_speedup",
        "x",
        serial_run.mean_ms() / run.mean_ms(),
    ));
    layer.push(Metric::new(
        "fleet.summary_ms",
        "ms",
        get("fleet.summary").mean_ms(),
    ));
    layer.push(Metric::new(
        "fleet.digest_ms",
        "ms",
        get("fleet.digest").mean_ms(),
    ));
    layer.push(Metric::new(
        "obs.fleet_telemetry_ms",
        "ms",
        get("obs.fleet_telemetry").mean_ms(),
    ));
    layer.push(Metric::new(
        "obs.ndjson_ms",
        "ms",
        get("obs.ndjson").mean_ms(),
    ));
    out.overhead(
        rate(&base, stations, sh.days as f64),
        rate(&traced, stations, sh.days as f64),
    );
    tracer.absorb(serial_tracer);
    out.finish_trace(&tracer);
    Ok(out)
}
