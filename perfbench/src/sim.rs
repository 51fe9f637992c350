//! `sim-campaign`: a `glacsweb_sweep::run_cells` campaign of standard
//! Fig 5 deployments (two stations, four probes). Every cell simulates a
//! full year, checkpointing to disk at mid-year and resuming from that
//! checkpoint.

use std::path::{Path, PathBuf};
use std::time::Instant;

use glacsweb::{Deployment, DeploymentBuilder, DeploymentState, DeploymentSummary};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_station::StationConfig;

use crate::stats::{fnv, mix, Metric, FNV_OFFSET};
use crate::trace::{Tracer, NONE};
use crate::{Check, Ctx, Outcome};

/// The per-layer metrics this workload produces.
pub const LAYERS: &[&str] = &[
    "deployment.build_ms",
    "deployment.run_s",
    "deployment.us_per_sim_day",
    "deployment.summary_ms",
    "deployment.windows_run",
    "deployment.dgps_fixes",
    "snapshot.capture_ms",
    "snapshot.encode_ms",
    "snapshot.bytes",
    "snapshot.save_ms",
    "snapshot.load_ms",
    "snapshot.restore_ms",
    "sweep.busy_s",
    "sweep.idle_s",
    "sweep.speedup",
];

/// Extra set-ups timed per run, besides the measured campaigns' own.
const SETUPS: usize = 16;

struct Shape {
    days: u64,
    checkpoint_day: u64,
    /// Cells per campaign, per worker thread.
    cells_per_thread: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.tiny {
        Shape {
            days: 20,
            checkpoint_day: 10,
            cells_per_thread: 1,
        }
    } else {
        Shape {
            days: 365,
            checkpoint_day: 182,
            cells_per_thread: 4,
        }
    }
}

/// Cell `index` of the campaign seeded by `seed`.
fn cell_seed(seed: u64, index: u64) -> u64 {
    mix(seed, index)
}

/// The standard field deployment (the Fig 5 configuration), unstarted.
fn build(seed: u64) -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .build()
}

struct CellOut {
    index: u64,
    summary: DeploymentSummary,
    /// The finished deployment, when the caller asked to keep it.
    kept: Option<Deployment>,
}

/// One cell: run to mid-year, checkpoint to `dir`, resume from the
/// checkpoint, run to the horizon, summarise.
fn run_cell(
    tracer: &Tracer,
    parent: u64,
    sh: &Shape,
    dir: &Path,
    index: u64,
    d: Deployment,
    keep: bool,
) -> Result<CellOut, String> {
    let start = d.start();
    let mid = start + SimDuration::from_days(sh.checkpoint_day);
    let end = start + SimDuration::from_days(sh.days);
    let path = dir.join(format!("cell-{index}.snap"));
    let out = tracer.span_req("sim.cell", parent, index, |cell| -> Result<_, String> {
        let mut d = d;
        tracer.span("deployment.run_until", cell, |_| d.run_until(mid));
        let state = tracer.span("snapshot.capture", cell, |_| d.snapshot());
        tracer
            .span("snapshot.save", cell, |_| {
                glacsweb_snapshot::save(&state, &path)
            })
            .map_err(|e| format!("cell {index}: checkpoint failed: {e}"))?;
        drop(state);
        drop(d);
        let loaded: DeploymentState = tracer
            .span("snapshot.load", cell, |_| glacsweb_snapshot::load(&path))
            .map_err(|e| format!("cell {index}: checkpoint load failed: {e}"))?;
        let _ = std::fs::remove_file(&path);
        let mut d = tracer
            .span("snapshot.restore", cell, |_| Deployment::restore(loaded))
            .map_err(|e| format!("cell {index}: restore failed: {e}"))?;
        tracer.span("deployment.run_until", cell, |_| d.run_until(end));
        let summary = tracer.span("deployment.summary", cell, |_| d.summary());
        Ok((summary, keep.then_some(d)))
    })?;
    Ok(CellOut {
        index,
        summary: out.0,
        kept: out.1,
    })
}

/// One campaign: build its cells (the set-up), then run them on
/// `threads` workers.
struct Campaign {
    setup_s: f64,
    wall_s: f64,
    /// Process CPU time while the cells ran.
    cpu_ns: u64,
    cells: Vec<CellOut>,
}

fn campaign(
    tracer: &Tracer,
    sh: &Shape,
    dir: &Path,
    seed: u64,
    cells: std::ops::Range<u64>,
    threads: usize,
    keep: bool,
) -> Result<Campaign, String> {
    tracer.span("sim.campaign", NONE, |id| {
        let t0 = Instant::now();
        let built: Vec<(u64, Deployment)> = cells
            .map(|i| {
                (
                    i,
                    tracer.span_req("deployment.build", id, i, |_| build(cell_seed(seed, i))),
                )
            })
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let cpu = crate::host::process_cpu_ns();
        let cells = tracer.span("sweep.run_cells", id, |pool| {
            glacsweb_sweep::run_cells(built, threads, |(i, d)| {
                run_cell(tracer, pool, sh, dir, i, d, keep)
            })
        });
        let wall_s = t1.elapsed().as_secs_f64();
        let cpu_ns = crate::host::process_cpu_ns() - cpu;
        let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            setup_s,
            wall_s,
            cpu_ns,
            cells,
        })
    })
}

/// Campaigns run in the measured phase.
struct Campaigns {
    campaigns: Vec<Campaign>,
}

/// Campaigns back to back until `seconds` have been measured: the
/// untraced ones with the peak RSS of each and, with `on`, the traced
/// ones run between them.
fn phase(
    off: &Tracer,
    on: Option<&Tracer>,
    ctx: &Ctx,
    sh: &Shape,
    dir: &Path,
    seconds: f64,
) -> Result<(Campaigns, Vec<f64>, Campaigns), String> {
    let per = (ctx.threads * sh.cells_per_thread) as u64;
    let mut first = 0;
    let p = crate::phase(off, on, seconds, |tracer| {
        let cells = first..first + per;
        first += per;
        let c = campaign(tracer, sh, dir, ctx.seed, cells, ctx.threads, false)?;
        let wall_s = c.wall_s;
        Ok((c, wall_s))
    })?;
    Ok((
        Campaigns { campaigns: p.base },
        p.peak_rss_mib,
        Campaigns {
            campaigns: p.traced,
        },
    ))
}

impl Campaigns {
    fn sim_days(&self, sh: &Shape) -> f64 {
        self.campaigns.iter().map(|c| c.cells.len()).sum::<usize>() as f64 * sh.days as f64
    }
    fn rate(&self, sh: &Shape) -> f64 {
        self.sim_days(sh) / self.campaigns.iter().map(|c| c.wall_s).sum::<f64>()
    }
    fn cells(&self) -> impl Iterator<Item = &CellOut> {
        self.campaigns.iter().flat_map(|c| c.cells.iter())
    }
}

/// Digest of a deployment's complete state.
fn state_digest(d: &Deployment) -> u64 {
    state_digest_from(FNV_OFFSET, d)
}

/// [`state_digest`], continuing from `h`.
fn state_digest_from(h: u64, d: &Deployment) -> u64 {
    fnv(h, &glacsweb_snapshot::to_bytes(&d.snapshot()))
}

fn summary_bytes(s: &DeploymentSummary) -> Vec<u8> {
    glacsweb_snapshot::to_bytes(s)
}

/// Runs the `resumed` cells straight through (no checkpoint) and
/// compares each final state with the resumed one, and each summary with
/// the one the measured phase produced for the same cell. Also times
/// encoding on its own (`save` both encodes and writes) over each
/// compared cell's mid-year state.
fn check_resume(
    tracer: &Tracer,
    ctx: &Ctx,
    sh: &Shape,
    resumed: &[CellOut],
    measured: &Campaigns,
) -> (Vec<Check>, f64) {
    let straight: Vec<(u64, Vec<u8>, usize)> = glacsweb_sweep::run_cells(
        resumed.iter().map(|c| c.index).collect(),
        ctx.threads,
        |i| {
            let mut d = build(cell_seed(ctx.seed, i));
            d.run_until(d.start() + SimDuration::from_days(sh.checkpoint_day));
            let state = d.snapshot();
            let bytes = tracer.span_req("snapshot.encode", NONE, i, |_| {
                glacsweb_snapshot::to_bytes(&state)
            });
            d.run_until(d.start() + SimDuration::from_days(sh.days));
            (state_digest(&d), summary_bytes(&d.summary()), bytes.len())
        },
    );
    let mismatched: Vec<u64> = resumed
        .iter()
        .zip(&straight)
        .filter(|(r, (digest, summary, _))| {
            r.kept.as_ref().map(state_digest) != Some(*digest)
                || summary_bytes(&r.summary) != *summary
        })
        .map(|(r, _)| r.index)
        .collect();
    let diverged: Vec<u64> = resumed
        .iter()
        .filter(|r| {
            measured
                .cells()
                .find(|m| m.index == r.index)
                .is_some_and(|m| summary_bytes(&m.summary) != summary_bytes(&r.summary))
        })
        .map(|r| r.index)
        .collect();
    let mean_bytes =
        straight.iter().map(|s| s.2 as f64).sum::<f64>() / straight.len().max(1) as f64;
    let checks = vec![
        Check::new(
            "sim.resume_equals_straight",
            mismatched.is_empty(),
            format!(
                "{} cells compared, mismatched: {mismatched:?}",
                resumed.len()
            ),
        ),
        Check::new(
            "sim.repeat_is_deterministic",
            diverged.is_empty(),
            format!("diverged cells: {diverged:?}"),
        ),
    ];
    (checks, mean_bytes)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sh = shape(ctx);
    let dir: PathBuf = crate::host::out_dir();
    let per = ctx.threads * sh.cells_per_thread;
    let mut h = fnv(FNV_OFFSET, &sh.days.to_le_bytes());
    h = fnv(h, &sh.checkpoint_day.to_le_bytes());
    for i in 0..64 {
        h = fnv(h, &cell_seed(ctx.seed, i).to_le_bytes());
    }
    // The deployment a cell builds comes from the program's standard
    // configurations, so the first cell's complete initial state is part
    // of the inputs too.
    h = state_digest_from(h, &build(cell_seed(ctx.seed, 0)));
    let inputs = format!(
        "cells of {} days, checkpoint at day {}, {per} cells per campaign, cell i seeded mix(seed, i), \
         digest over cell seeds, horizon and the first cell's initial state",
        sh.days, sh.checkpoint_day
    );

    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    // Warm-up: one cell per thread, seeded apart from the measured cells.
    campaign(
        &off,
        &sh,
        &dir,
        !ctx.seed,
        0..ctx.threads as u64,
        ctx.threads,
        false,
    )?;
    let (base, peak_rss, traced) = phase(
        &off,
        ctx.trace.then_some(&tracer),
        ctx,
        &sh,
        &dir,
        ctx.seconds,
    )?;

    // Extra set-ups (a campaign's deployments built and dropped), so the
    // set-up median rests on many samples.
    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let built: Vec<Deployment> = (0..per as u64)
                .map(|i| build(cell_seed(ctx.seed, i)))
                .collect();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect();
    setups.extend(base.campaigns.iter().map(|c| c.setup_s));
    let rates: Vec<f64> = base
        .campaigns
        .iter()
        .map(|c| (c.cells.len() as u64 * sh.days) as f64 / c.wall_s)
        .collect();
    let cpu_per_day: Vec<f64> = base
        .campaigns
        .iter()
        .map(|c| c.cpu_ns as f64 / 1e3 / (c.cells.len() as u64 * sh.days) as f64)
        .collect();
    let mut out = Outcome::new(ctx, inputs, h);
    out.attempted = base.cells().count() as u64;
    out.e2e = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::over("ops_per_s", "1/s", base.rate(&sh), &rates),
        Metric::median("cpu_us_per_op", "us", &cpu_per_day),
        Metric::median("peak_rss_mib", "MiB", &peak_rss),
    ];

    if !ctx.trace {
        let resumed = campaign(&off, &sh, &dir, ctx.seed, 0..1, 1, true)?;
        out.checks = check_resume(&off, ctx, &sh, &resumed.cells, &base).0;
        return Ok(out);
    }

    // Off the measured phase: the first campaign again on one thread
    // (against the traced campaigns of the same size, the sweep's
    // speedup; its resumed states are compared with straight-through
    // runs) and the encode-only pass.
    let extra = Tracer::new(true);
    let serial = campaign(&extra, &sh, &dir, ctx.seed, 0..per as u64, 1, true)?;
    let (checks, bytes) = check_resume(&extra, ctx, &sh, &serial.cells, &base);
    out.checks = checks;

    let agg = tracer.aggregate();
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let cells_run = traced.cells().count() as f64;
    let run = get("deployment.run_until");
    let busy = get("sim.cell").total_s();
    let wall: f64 = traced.campaigns.iter().map(|c| c.wall_s).sum();
    let mean_parallel = wall / traced.campaigns.len().max(1) as f64;
    let layer = &mut out.layer;
    layer.push(Metric::new(
        "deployment.build_ms",
        "ms",
        get("deployment.build").mean_ms(),
    ));
    layer.push(Metric::new("deployment.run_s", "s", run.total_s()));
    layer.push(Metric::new(
        "deployment.us_per_sim_day",
        "us",
        run.total_ns as f64 / 1e3 / (cells_run * sh.days as f64),
    ));
    layer.push(Metric::new(
        "deployment.summary_ms",
        "ms",
        get("deployment.summary").mean_ms(),
    ));
    // Sentinels: exact counts over the fixed first campaign.
    let sum = |f: fn(&DeploymentSummary) -> f64| serial.cells.iter().map(|c| f(&c.summary)).sum();
    layer.push(Metric::new(
        "deployment.windows_run",
        "count",
        sum(|s| s.windows_run as f64),
    ));
    layer.push(Metric::new(
        "deployment.dgps_fixes",
        "count",
        sum(|s| s.dgps_fixes as f64),
    ));
    for (metric, span) in [
        ("snapshot.capture_ms", "snapshot.capture"),
        ("snapshot.save_ms", "snapshot.save"),
        ("snapshot.load_ms", "snapshot.load"),
        ("snapshot.restore_ms", "snapshot.restore"),
    ] {
        layer.push(Metric::new(metric, "ms", get(span).mean_ms()));
    }
    let encode = extra
        .aggregate()
        .get("snapshot.encode")
        .copied()
        .unwrap_or_default();
    layer.push(Metric::new("snapshot.encode_ms", "ms", encode.mean_ms()));
    layer.push(Metric::new("snapshot.bytes", "bytes", bytes));
    layer.push(Metric::new("sweep.busy_s", "s", busy));
    layer.push(Metric::new(
        "sweep.idle_s",
        "s",
        (ctx.threads as f64 * wall - busy).max(0.0),
    ));
    layer.push(Metric::new(
        "sweep.speedup",
        "x",
        serial.wall_s / mean_parallel,
    ));
    out.overhead(base.rate(&sh), traced.rate(&sh));
    tracer.absorb(extra);
    out.finish_trace(&tracer);
    Ok(out)
}
