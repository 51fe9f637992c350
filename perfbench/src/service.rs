//! `service-replay` and `service-open`: the `glacsweb-service` HTTP
//! front end driven over loopback sockets by the benchmark's own client,
//! plus the in-memory passes that peel its layers apart.
//!
//! Both workloads replay the request script that `script_from_trace`
//! expands from a `WakeTrace` of 10,240 stations. `service-replay` is a
//! closed loop on one connection per core with pair affinity and a
//! pipeline window of 8. `service-open` is an open loop at a fixed
//! offered rate: one station connection sending the script in the §III
//! GPRS batch shape, and one operator connection polling the analytics
//! endpoints and pulling telemetry.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use glacsweb_fleet::WakeTrace;
use glacsweb_service::core::{update_md5_hex, update_name, update_payload};
use glacsweb_service::{
    script_from_trace, serve_stream, Action, ConnBuffers, FleetCore, HttpServer, Script,
    ServerConfig, Step,
};
use glacsweb_sim::SimTime;

use crate::client::{self, parse_response, Counters, Job};
use crate::stats::{fnv, percentile, sorted, Metric, FNV_OFFSET};
use crate::trace::{Tracer, NONE};
use crate::{Check, Ctx, Outcome};

/// The per-layer metrics both service workloads produce.
pub const LAYERS: &[&str] = &[
    "fleet.trace_ms",
    "service.load.script_ms",
    "service.load.steps",
    "service.http.start_ms",
    "service.http.self_ns_per_req",
    "service.http.served_ratio",
    "service.http.stream_allocs_per_req",
    "service.http.allocs_per_req",
    "service.core.new_ms",
    "service.core.ns_per_op",
    "service.core.checkin_ns",
    "service.core.state_ns",
    "service.core.override_ns",
    "service.core.update_ns",
    "service.core.ack_ns",
    "client.samples",
    "client.latency_p50_us",
    "client.latency_p90_us",
    "client.latency_p99_us",
    "client.latency_p999_us",
    "client.reconnects",
    "client.failed_fraction",
    "client.reads_per_req",
    "client.bytes_in_per_req",
    "client.p99_us.checkin",
    "client.p99_us.state",
    "client.p99_us.override",
    "client.p99_us.update",
    "client.p99_us.ack",
];

/// The per-layer metrics only `service-replay` produces.
pub const REPLAY_LAYERS: &[&str] = &["service.http.socket_ns_per_req"];

/// The per-layer metrics only `service-open` produces.
pub const OPEN_LAYERS: &[&str] = &[
    "service.core.batch_ns_per_entry",
    "service.core.states_us",
    "service.core.battery_us",
    "service.core.telemetry_ms",
    "service.core.telemetry_bytes",
    "client.late_p99_us",
    "client.p99_us.checkin-batch",
    "client.p99_us.analytics-states",
    "client.p99_us.analytics-battery",
    "client.p99_us.telemetry",
];

/// Requests in flight per connection in `service-replay`.
const WINDOW: usize = 8;
/// Longest run of check-ins one batch upload carries.
const MAX_BATCH: usize = 64;
/// Canonical indices of operator requests start here, clear of the
/// script's step indices.
const OPERATOR_BASE: u64 = 1 << 40;
/// Operator request rates of `service-open`, per second. They are sized
/// so that the operator's read paths take a quarter of the core time the
/// station side's writes take at the frozen offered rate, split evenly
/// over the three endpoints so that a regression in any one of them
/// weighs the same. From the direct-core costs measured on the host the
/// benchmark was tuned on (2-vCPU VM: writes 419 ns per request at
/// 30.3 k requests/s, 12.7 ms/s; `power_counts` 0.83 µs, `soc_histogram`
/// 1.29 µs and `telemetry_ndjson_into` 49 µs per call), each endpoint
/// gets 1.06 ms/s of core time; the rates are that, rounded down.
const STATES_HZ: f64 = 1250.0;
const BATTERY_HZ: f64 = 800.0;
const TELEMETRY_HZ: f64 = 20.0;
/// Full set-ups per run, for the set-up median.
const SETUPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    Checkin,
    CheckinBatch,
    State,
    Override,
    Update,
    Ack,
    AnalyticsStates,
    AnalyticsBattery,
    Telemetry,
}

impl Endpoint {
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Checkin => "checkin",
            Endpoint::CheckinBatch => "checkin-batch",
            Endpoint::State => "state",
            Endpoint::Override => "override",
            Endpoint::Update => "update",
            Endpoint::Ack => "ack",
            Endpoint::AnalyticsStates => "analytics-states",
            Endpoint::AnalyticsBattery => "analytics-battery",
            Endpoint::Telemetry => "telemetry",
        }
    }

    /// Span name of one client request to this endpoint.
    pub fn span_name(self) -> &'static str {
        match self {
            Endpoint::Checkin => "client.checkin",
            Endpoint::CheckinBatch => "client.checkin-batch",
            Endpoint::State => "client.state",
            Endpoint::Override => "client.override",
            Endpoint::Update => "client.update",
            Endpoint::Ack => "client.ack",
            Endpoint::AnalyticsStates => "client.analytics-states",
            Endpoint::AnalyticsBattery => "client.analytics-battery",
            Endpoint::Telemetry => "client.telemetry",
        }
    }

    /// Span name of the direct core call behind this endpoint.
    fn core_span(self) -> &'static str {
        match self {
            Endpoint::Checkin => "service.core.checkin",
            Endpoint::CheckinBatch => "service.core.checkin_batch",
            Endpoint::State => "service.core.state",
            Endpoint::Override => "service.core.override",
            Endpoint::Update => "service.core.update",
            Endpoint::Ack => "service.core.ack",
            Endpoint::AnalyticsStates => "service.core.states",
            Endpoint::AnalyticsBattery => "service.core.battery",
            Endpoint::Telemetry => "service.core.telemetry",
        }
    }

    fn of(action: Action) -> Endpoint {
        match action {
            Action::CheckIn { .. } => Endpoint::Checkin,
            Action::StateReport { .. } => Endpoint::State,
            Action::OverrideQuery => Endpoint::Override,
            Action::UpdateFetch => Endpoint::Update,
            Action::UpdateAck => Endpoint::Ack,
        }
    }
}

/// One HTTP request: a single script step, a batch of consecutive
/// check-ins (steps `start..end` of its connection), or an operator
/// request (no steps).
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Canonical index: the first step's script index, or an operator
    /// request's number above [`OPERATOR_BASE`].
    pub index: u64,
    pub endpoint: Endpoint,
    pub start: u32,
    pub end: u32,
}

/// A connection's requests.
fn units_of(steps: &[Step], batch: bool) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut i = 0;
    let checkin = |at: usize| {
        steps
            .get(at)
            .is_some_and(|s| matches!(s.action, Action::CheckIn { .. }))
    };
    while i < steps.len() {
        let mut end = i + 1;
        if batch && checkin(i) {
            while end < steps.len() && end - i < MAX_BATCH && checkin(end) {
                end += 1;
            }
        }
        units.push(Unit {
            index: steps[i].index,
            endpoint: if end - i >= 2 {
                Endpoint::CheckinBatch
            } else {
                Endpoint::of(steps[i].action)
            },
            start: i as u32,
            end: end as u32,
        });
        i = end;
    }
    units
}

/// Appends the HTTP request for `unit` to `out`; an ack carries the
/// `(file, md5)` of the update its station fetched.
pub fn render(
    steps: &[Step],
    unit: &Unit,
    ack: Option<(&str, &str)>,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    const POST: &str = " HTTP/1.1\r\nHost: glacsweb\r\nContent-Length: 0\r\n\r\n";
    const GET: &str = " HTTP/1.1\r\nHost: glacsweb\r\n\r\n";
    let Some(s) = steps.get(unit.start as usize) else {
        let path = match unit.endpoint {
            Endpoint::AnalyticsStates => "/api/analytics/states",
            Endpoint::AnalyticsBattery => "/api/analytics/battery",
            _ => "/api/telemetry",
        };
        return write!(out, "GET {path}{GET}");
    };
    let (station, at) = (s.station, s.at.unix());
    match (unit.endpoint, s.action) {
        (Endpoint::CheckinBatch, _) => {
            let mut body = Vec::with_capacity(48 * (unit.end - unit.start) as usize);
            for s in &steps[unit.start as usize..unit.end as usize] {
                if let Action::CheckIn { soc } = s.action {
                    writeln!(
                        body,
                        "{{\"station\":{},\"at\":{},\"soc\":{soc}}}",
                        s.station,
                        s.at.unix()
                    )?;
                }
            }
            write!(
                out,
                "POST /api/checkin-batch HTTP/1.1\r\nHost: glacsweb\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )?;
            out.extend_from_slice(&body);
            Ok(())
        }
        (_, Action::CheckIn { soc }) => write!(
            out,
            "POST /api/checkin?station={station}&at={at}&soc={soc}{POST}"
        ),
        (_, Action::StateReport { level }) => {
            write!(
                out,
                "POST /api/state?station={station}&at={at}&level={level}{POST}"
            )
        }
        (_, Action::OverrideQuery) => {
            write!(out, "GET /api/override?station={station}&at={at}{GET}")
        }
        (_, Action::UpdateFetch) => write!(out, "GET /api/update?station={station}&at={at}{GET}"),
        (_, Action::UpdateAck) => {
            let (file, md5) = ack.ok_or_else(|| {
                io::Error::other(format!("station {station} acks before fetching"))
            })?;
            write!(
                out,
                "POST /api/ack?station={station}&at={at}&file={file}&md5={md5}{POST}"
            )
        }
    }
}

struct Shape {
    sites: u32,
    per_site: u32,
    days: u64,
    shards: usize,
    /// Per-connection request cap; `None` keeps the server default.
    cap: Option<u64>,
}

/// `days` is the script's horizon: eight days give `service-replay`
/// passes long enough to cross the per-connection request cap; two keep
/// `service-open` passes short, so its per-pass percentiles have many
/// passes to take a median over.
fn shape(ctx: &Ctx, days: u64) -> Shape {
    if ctx.tiny {
        // A low cap makes the tiny run exercise refusals too.
        Shape {
            sites: 2,
            per_site: 16,
            days: 2,
            shards: 4,
            cap: Some(40),
        }
    } else {
        Shape {
            sites: 40,
            per_site: 256,
            days,
            shards: 32,
            cap: None,
        }
    }
}

fn server_config(sh: &Shape, workers: usize) -> ServerConfig {
    let mut config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    if let Some(cap) = sh.cap {
        config.max_requests_per_conn = cap;
    }
    config
}

/// FNV over the script's steps: index, station, instant and action.
fn script_digest(script: &Script) -> u64 {
    let mut h = fnv(FNV_OFFSET, &script.stations.to_le_bytes());
    for s in &script.steps {
        let (tag, arg) = match s.action {
            Action::CheckIn { soc } => (0u8, u64::from(soc)),
            Action::StateReport { level } => (1, u64::from(level)),
            Action::OverrideQuery => (2, 0),
            Action::UpdateFetch => (3, 0),
            Action::UpdateAck => (4, 0),
        };
        h = fnv(h, &s.index.to_le_bytes());
        h = fnv(h, &s.station.to_le_bytes());
        h = fnv(h, &s.at.unix().to_le_bytes());
        h = fnv(h, &[tag]);
        h = fnv(h, &arg.to_le_bytes());
    }
    h
}

/// A running server over a fresh core.
struct Live {
    core: Arc<FleetCore>,
    server: HttpServer,
}

fn start(
    tracer: &Tracer,
    parent: u64,
    sh: &Shape,
    stations: u64,
    workers: usize,
) -> Result<Live, String> {
    let core = tracer.span("service.core.new", parent, |_| {
        let core = FleetCore::new(stations, sh.shards)?;
        core.stage_updates();
        Ok::<_, glacsweb_service::core::CoreError>(Arc::new(core))
    });
    let core = core.map_err(|e| format!("service core: {e}"))?;
    let server = tracer
        .span("service.http.start", parent, |_| {
            HttpServer::start(Arc::clone(&core), &server_config(sh, workers))
        })
        .map_err(|e| format!("service bind: {e}"))?;
    Ok(Live { core, server })
}

/// Generates the workload's inputs and starts a server on them,
/// [`SETUPS`] times; returns the last script and the set-up times.
fn setup(
    tracer: &Tracer,
    ctx: &Ctx,
    sh: &Shape,
    workers: usize,
) -> Result<(Script, Vec<f64>), String> {
    let config = crate::fleet::config(ctx, sh.sites, sh.per_site, 1);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (script, live) = tracer.span("service.setup", NONE, |id| {
            let trace = tracer
                .span("fleet.trace", id, |_| WakeTrace::derive(&config, sh.days))
                .map_err(|e| format!("wake trace: {e}"))?;
            let script = tracer.span("service.load.script", id, |_| {
                script_from_trace(&trace, true)
            });
            let live = start(tracer, id, sh, script.stations, workers)?;
            Ok::<_, String>((script, live))
        })?;
        times.push(t.elapsed().as_secs_f64());
        live.server.shutdown();
        last = Some(script);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The connections a workload drives: their steps and requests.
struct Plan {
    conns: Vec<(Vec<Step>, Vec<Unit>)>,
}

impl Plan {
    /// `service-replay`: pair `p` on connection `p % conns`, unbatched.
    fn replay(script: &Script, conns: usize) -> Plan {
        let mut parts: Vec<Vec<Step>> = vec![Vec::new(); conns];
        for s in &script.steps {
            parts[((s.station / 2) % conns as u64) as usize].push(*s);
        }
        Plan {
            conns: parts
                .into_iter()
                .map(|p| {
                    let u = units_of(&p, false);
                    (p, u)
                })
                .collect(),
        }
    }

    /// `service-open`: every station on one connection, in batch shape.
    fn open(script: &Script) -> Plan {
        let steps = script.steps.clone();
        let units = units_of(&steps, true);
        Plan {
            conns: vec![(steps, units)],
        }
    }

    fn requests(&self) -> usize {
        self.conns.iter().map(|c| c.1.len()).sum()
    }
}

/// Serves `plan` through `serve_stream` over in-memory streams on a
/// fresh core: the reference transcript, as `(index, FNV of the raw
/// response)` sorted by index, plus the core's telemetry digest, the
/// pass time and the allocations it made.
struct Reference {
    hashes: Vec<(u64, u64)>,
    telemetry: u64,
    seconds: f64,
    allocs: u64,
}

struct MemStream<'a> {
    input: &'a [u8],
    at: usize,
    output: Vec<u8>,
}

impl Read for MemStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.input.len() - self.at).min(buf.len());
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for MemStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn reference(
    tracer: &Tracer,
    sh: &Shape,
    stations: u64,
    plan: &Plan,
    workers: usize,
) -> Result<Reference, String> {
    let core = FleetCore::new(stations, sh.shards).map_err(|e| format!("service core: {e}"))?;
    core.stage_updates();
    let config = server_config(sh, workers);
    // Requests rendered up front; acks carry the staged update's digest.
    let rendered: Vec<(Vec<u8>, Vec<usize>)> = plan
        .conns
        .iter()
        .map(|(steps, units)| {
            let mut input = Vec::new();
            let mut offsets = Vec::with_capacity(units.len() + 1);
            for u in units {
                offsets.push(input.len());
                let station = steps[u.start as usize].station;
                let staged = (
                    update_name(station),
                    update_md5_hex(&update_payload(station)),
                );
                render(steps, u, Some((&staged.0, &staged.1)), &mut input)
                    .map_err(|e| e.to_string())?;
            }
            offsets.push(input.len());
            Ok::<_, String>((input, offsets))
        })
        .collect::<Result<_, _>>()?;
    let mut hashes = Vec::with_capacity(plan.requests());
    let mut output = Vec::with_capacity(rendered.iter().map(|r| r.0.len()).max().unwrap_or(0) * 2);
    let mut conn = ConnBuffers::default();
    let (mut seconds, mut allocs) = (0.0, 0);
    for ((input, offsets), (_, units)) in rendered.iter().zip(&plan.conns) {
        let mut next = 0;
        // One `serve_stream` per connection the cap allows; only the
        // `serve_stream` calls are timed and counted.
        while next < units.len() {
            output.clear();
            let mut stream = MemStream {
                input: &input[offsets[next]..],
                at: 0,
                output: std::mem::take(&mut output),
            };
            let t = Instant::now();
            let (_, n) = crate::alloc::count(|| {
                tracer.span("service.http.stream", NONE, |_| {
                    serve_stream(&mut stream, &core, &config, &mut conn)
                })
            });
            seconds += t.elapsed().as_secs_f64();
            allocs += n;
            output = stream.output;
            let before = next;
            let mut at = 0;
            while let Some((_, head, total)) =
                parse_response(&output[at..]).map_err(|e| e.to_string())?
            {
                let raw = &output[at..at + total];
                if client::is_cap(raw, head) {
                    break;
                }
                hashes.push((units[next].index, fnv(FNV_OFFSET, raw)));
                next += 1;
                at += total;
            }
            if next == before {
                return Err("in-memory pass made no progress".to_string());
            }
        }
    }
    hashes.sort_unstable();
    Ok(Reference {
        hashes,
        telemetry: fnv(FNV_OFFSET, core.telemetry_ndjson().as_bytes()),
        seconds,
        allocs,
    })
}

/// The plan's steps applied straight to a fresh core, without HTTP.
/// With `per_call` every core call gets its own span, and a plan with
/// batches also times the operator's read paths over the ingested state;
/// otherwise only the whole pass is timed. Returns the pass time and
/// the telemetry export's size when it was taken.
fn core_pass(
    tracer: &Tracer,
    sh: &Shape,
    stations: u64,
    plan: &Plan,
    per_call: bool,
) -> Result<(f64, Option<usize>), String> {
    let core = FleetCore::new(stations, sh.shards).map_err(|e| format!("service core: {e}"))?;
    core.stage_updates();
    // Arguments that are not in the step itself are made before timing.
    enum Args {
        Batch(Vec<(u64, SimTime, u32)>),
        Ack(String, String),
        InStep,
    }
    let args: Vec<Vec<Args>> = plan
        .conns
        .iter()
        .map(|(steps, units)| {
            units
                .iter()
                .map(|u| {
                    let s = &steps[u.start as usize];
                    match u.endpoint {
                        Endpoint::CheckinBatch => Args::Batch(
                            steps[u.start as usize..u.end as usize]
                                .iter()
                                .filter_map(|s| match s.action {
                                    Action::CheckIn { soc } => Some((s.station, s.at, soc)),
                                    _ => None,
                                })
                                .collect(),
                        ),
                        Endpoint::Ack => Args::Ack(
                            update_name(s.station),
                            update_md5_hex(&update_payload(s.station)),
                        ),
                        _ => Args::InStep,
                    }
                })
                .collect()
        })
        .collect();
    let call = |u: &Unit, s: &Step, a: &Args| -> Result<(), String> {
        let r = match (a, s.action) {
            (Args::Batch(entries), _) => core.check_in_batch(entries).map(drop),
            (Args::Ack(file, md5), _) => core.ack_update(s.station, s.at, file, md5).map(drop),
            (_, Action::CheckIn { soc }) => core.check_in(s.station, s.at, soc),
            (_, Action::StateReport { level }) => core.report_state(s.station, s.at, level),
            (_, Action::OverrideQuery) => core.override_for(s.station, s.at).map(drop),
            (_, Action::UpdateFetch) => core.update_for(s.station, s.at).map(drop),
            (Args::InStep, Action::UpdateAck) => unreachable!("acks carry prepared arguments"),
        };
        r.map_err(|e| format!("core rejected request {}: {e}", u.index))
    };
    let t = Instant::now();
    tracer.span("service.core.pass", NONE, |pass| {
        for ((steps, units), args) in plan.conns.iter().zip(&args) {
            for (u, a) in units.iter().zip(args) {
                let s = &steps[u.start as usize];
                if per_call {
                    tracer.span_req(u.endpoint.core_span(), pass, u.index, |_| call(u, s, a))?;
                } else {
                    call(u, s, a)?;
                }
            }
        }
        Ok::<_, String>(())
    })?;
    let seconds = t.elapsed().as_secs_f64();
    if per_call
        && plan
            .conns
            .iter()
            .any(|c| c.1.iter().any(|u| u.endpoint == Endpoint::CheckinBatch))
    {
        // The operator's read paths, over the fully ingested state.
        let mut body = String::new();
        for _ in 0..50 {
            body.clear();
            tracer.span("service.core.states", NONE, |_| {
                core.power_counts().write_json(&mut body)
            });
            body.clear();
            tracer.span("service.core.battery", NONE, |_| {
                core.soc_histogram().write_json(&mut body)
            });
        }
        for _ in 0..5 {
            body.clear();
            tracer.span("service.core.telemetry", NONE, |_| {
                core.telemetry_ndjson_into(&mut body)
            });
        }
        return Ok((seconds, Some(body.len())));
    }
    Ok((seconds, None))
}

/// What one socket pass measured. Latency percentiles are taken per
/// pass, so the generator's memory does not grow with the run.
struct Pass {
    wall_s: f64,
    /// Process CPU time while the load ran, and the part of it not
    /// spent on the load generator's threads.
    cpu_ns: u64,
    server_cpu_ns: u64,
    answered: u64,
    attempts: u64,
    refusals: u64,
    refused: u64,
    reads: u64,
    bytes_in: u64,
    samples: usize,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    p999_us: f64,
    late_p99_us: f64,
    endpoint_p99_us: BTreeMap<Endpoint, f64>,
    served: u64,
    allocs: u64,
    /// Index of the first request whose response differs from the
    /// reference transcript (or that is missing).
    first_diff: Option<u64>,
    telemetry: u64,
}

fn us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    sorted(ns.map(|ns| ns as f64 / 1e3).collect())
}

/// One pass over a fresh core: the load loops run on scoped threads, then
/// the final telemetry is pulled over a socket.
fn pass(
    tracer: &Tracer,
    sh: &Shape,
    stations: u64,
    workers: usize,
    corrupt: bool,
    reference: &Reference,
    drive: impl Fn(&Tracer, std::net::SocketAddr, u64, bool) -> io::Result<(Counters, f64)>,
) -> Result<Pass, String> {
    tracer.span("service.pass", NONE, |id| {
        let live = start(tracer, id, sh, stations, workers)?;
        let addr = live.server.addr();
        let cpu = crate::host::process_cpu_ns();
        let (result, allocs) = crate::alloc::count_server(|| drive(tracer, addr, id, corrupt));
        let cpu_ns = crate::host::process_cpu_ns() - cpu;
        let (mut c, wall_s) = result.map_err(|e| format!("load generator: {e}"))?;
        let served = live.core.requests_served();
        let telemetry = tracer.span("service.telemetry_pull", id, |_| {
            glacsweb_service::load::http_get(addr, "/api/telemetry")
        });
        live.server.shutdown();
        let (status, body) = telemetry.map_err(|e| format!("telemetry pull: {e}"))?;
        if status != 200 {
            return Err(format!("telemetry pull answered {status}"));
        }
        let mut transcript: Vec<(u64, u64)> = c
            .hashes
            .drain(..)
            .filter(|(i, _)| *i < OPERATOR_BASE)
            .collect();
        transcript.sort_unstable();
        let first_diff = (transcript != reference.hashes).then(|| {
            transcript
                .iter()
                .zip(&reference.hashes)
                .find(|(a, b)| a != b)
                .map_or(
                    transcript.len().min(reference.hashes.len()) as u64,
                    |(a, _)| a.0,
                )
        });
        tracer.extend(std::mem::take(&mut c.spans));
        let all = us(c.latency_ns.values().flatten().copied());
        Ok(Pass {
            wall_s,
            cpu_ns,
            server_cpu_ns: cpu_ns.saturating_sub(c.cpu_ns),
            answered: c.answered,
            attempts: c.attempts,
            refusals: c.refusals,
            refused: c.refused,
            reads: c.reads,
            bytes_in: c.bytes_in,
            samples: all.len(),
            p50_us: percentile(&all, 50.0),
            p90_us: percentile(&all, 90.0),
            p99_us: percentile(&all, 99.0),
            p999_us: percentile(&all, 99.9),
            late_p99_us: percentile(&us(c.late_ns.iter().copied()), 99.0),
            endpoint_p99_us: c
                .latency_ns
                .iter()
                .map(|(e, v)| (*e, percentile(&us(v.iter().copied()), 99.0)))
                .collect(),
            served,
            allocs,
            first_diff,
            telemetry: fnv(FNV_OFFSET, body.as_bytes()),
        })
    })
}

/// The median over passes of a per-pass figure, with its quartiles.
fn over_passes(
    name: impl Into<String>,
    unit: &'static str,
    passes: &[Pass],
    f: impl Fn(&Pass) -> f64,
) -> Metric {
    Metric::median(name, unit, &passes.iter().map(f).collect::<Vec<_>>())
}

fn sum(passes: &[Pass], f: impl Fn(&Pass) -> u64) -> u64 {
    passes.iter().map(f).sum()
}

fn rate(passes: &[Pass]) -> f64 {
    sum(passes, |p| p.answered) as f64 / passes.iter().map(|p| p.wall_s).sum::<f64>()
}

/// Requests answered per second of process CPU, load generator included.
fn cpu_rate(passes: &[Pass]) -> f64 {
    sum(passes, |p| p.answered) as f64 * 1e9 / sum(passes, |p| p.cpu_ns).max(1) as f64
}

/// The transcript and telemetry checks, over every pass.
fn check_passes(out: &mut Outcome, checked: &[&Pass], reference: &Reference) {
    let bad: Vec<(usize, u64)> = checked
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.first_diff.map(|d| (i, d)))
        .collect();
    out.checks.push(Check::new(
        "service.transcript_equals_serve_stream",
        bad.is_empty(),
        format!(
            "{} passes x {} responses compared with the in-memory serve_stream transcript; \
             (pass, first differing request): {bad:?}",
            checked.len(),
            reference.hashes.len()
        ),
    ));
    let tele_bad = checked
        .iter()
        .filter(|p| p.telemetry != reference.telemetry)
        .count();
    out.checks.push(Check::new(
        "service.telemetry_digest_stable",
        tele_bad == 0,
        format!(
            "telemetry ndjson {:016x} in memory; {tele_bad} of {} socket passes differ",
            reference.telemetry,
            checked.len()
        ),
    ));
}

/// The end-to-end metrics and the client metrics shared by both service
/// workloads, from the untraced passes.
///
/// Latency percentiles are taken per pass and reported as their median
/// over the passes, so a stall that hits one pass does not set the run's
/// figure.
fn report(
    ctx: &Ctx,
    closed_loop: bool,
    out: &mut Outcome,
    setups: &[f64],
    base: &[Pass],
    reference: &Reference,
    peak_rss_mib: &[f64],
) {
    let rates: Vec<f64> = base.iter().map(|p| p.answered as f64 / p.wall_s).collect();
    let cpu_per_req: Vec<f64> = base
        .iter()
        .map(|p| p.server_cpu_ns as f64 / 1e3 / p.answered.max(1) as f64)
        .collect();
    out.e2e = vec![
        Metric::median("setup_s", "s", setups),
        Metric::over("ops_per_s", "1/s", rate(base), &rates),
        Metric::median("cpu_us_per_op", "us", &cpu_per_req),
        Metric::median("peak_rss_mib", "MiB", peak_rss_mib),
    ];
    // Every request was answered in the end: refused ones are resent,
    // and counted under client.reconnects and client.failed_fraction.
    out.attempted = sum(base, |p| p.answered);
    out.failed = 0;
    if !ctx.trace {
        return;
    }
    let answered = sum(base, |p| p.answered).max(1) as f64;
    let attempts = sum(base, |p| p.attempts).max(1) as f64;
    let layer = &mut out.layer;
    layer.push(Metric::new(
        "client.samples",
        "count",
        base.iter().map(|p| p.samples).sum::<usize>() as f64,
    ));
    layer.push(over_passes("client.latency_p50_us", "us", base, |p| {
        p.p50_us
    }));
    layer.push(over_passes("client.latency_p90_us", "us", base, |p| {
        p.p90_us
    }));
    layer.push(over_passes("client.latency_p99_us", "us", base, |p| {
        p.p99_us
    }));
    layer.push(over_passes("client.latency_p999_us", "us", base, |p| {
        p.p999_us
    }));
    if !closed_loop {
        layer.push(over_passes("client.late_p99_us", "us", base, |p| {
            p.late_p99_us
        }));
    }
    layer.push(Metric::new(
        "client.reconnects",
        "count",
        sum(base, |p| p.refusals) as f64,
    ));
    layer.push(Metric::new(
        "client.failed_fraction",
        "ratio",
        sum(base, |p| p.refused) as f64 / attempts,
    ));
    layer.push(Metric::new(
        "client.reads_per_req",
        "count",
        sum(base, |p| p.reads) as f64 / answered,
    ));
    layer.push(Metric::new(
        "client.bytes_in_per_req",
        "bytes",
        sum(base, |p| p.bytes_in) as f64 / answered,
    ));
    for e in base[0].endpoint_p99_us.keys() {
        let name = format!("client.p99_us.{}", e.name());
        layer.push(over_passes(name, "us", base, |p| {
            p.endpoint_p99_us.get(e).copied().unwrap_or(0.0)
        }));
    }
    layer.push(Metric::new(
        "service.http.served_ratio",
        "ratio",
        sum(base, |p| p.served) as f64 / attempts,
    ));
    layer.push(Metric::new(
        "service.http.allocs_per_req",
        "count",
        sum(base, |p| p.allocs) as f64 / answered,
    ));
    layer.push(Metric::new(
        "service.http.stream_allocs_per_req",
        "count",
        reference.allocs as f64 / reference.hashes.len().max(1) as f64,
    ));
}

/// The layer metrics from spans: set-up pieces, the in-memory peel and
/// the core calls.
///
/// The socket peel (`socket_ns_per_req`: connection-time per request
/// minus the in-memory pass) is only meaningful for the closed loop; an
/// open loop's pass time is set by its schedule.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    plan: &Plan,
    base: &[Pass],
    reference: &Reference,
    (core_s, telemetry_bytes): (f64, Option<usize>),
    closed_loop: bool,
) {
    let conns = plan.conns.len();
    let agg = tracer.aggregate();
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let requests = plan.requests() as f64;
    let stream_ns = reference.seconds * 1e9 / requests;
    let core_ns = core_s * 1e9 / requests;
    let socket_ns = base.iter().map(|p| p.wall_s).sum::<f64>() * 1e9 * conns as f64
        / sum(base, |p| p.answered).max(1) as f64;
    let steps: usize = plan.conns.iter().map(|c| c.0.len()).sum();
    let layer = &mut out.layer;
    layer.push(Metric::new(
        "fleet.trace_ms",
        "ms",
        get("fleet.trace").mean_ms(),
    ));
    layer.push(Metric::new(
        "service.load.script_ms",
        "ms",
        get("service.load.script").mean_ms(),
    ));
    layer.push(Metric::new("service.load.steps", "count", steps as f64));
    layer.push(Metric::new(
        "service.http.start_ms",
        "ms",
        get("service.http.start").mean_ms(),
    ));
    layer.push(Metric::new(
        "service.core.new_ms",
        "ms",
        get("service.core.new").mean_ms(),
    ));
    layer.push(Metric::new(
        "service.http.self_ns_per_req",
        "ns",
        stream_ns - core_ns,
    ));
    if closed_loop {
        layer.push(Metric::new(
            "service.http.socket_ns_per_req",
            "ns",
            socket_ns - stream_ns,
        ));
    }
    layer.push(Metric::new("service.core.ns_per_op", "ns", core_ns));
    for (metric, span) in [
        ("service.core.checkin_ns", "service.core.checkin"),
        ("service.core.state_ns", "service.core.state"),
        ("service.core.override_ns", "service.core.override"),
        ("service.core.update_ns", "service.core.update"),
        ("service.core.ack_ns", "service.core.ack"),
    ] {
        layer.push(Metric::new(metric, "ns", get(span).mean_ms() * 1e6));
    }
    let batch = get("service.core.checkin_batch");
    if batch.count > 0 {
        let entries: usize = plan
            .conns
            .iter()
            .flat_map(|c| c.1.iter())
            .filter(|u| u.endpoint == Endpoint::CheckinBatch)
            .map(|u| (u.end - u.start) as usize)
            .sum();
        layer.push(Metric::new(
            "service.core.batch_ns_per_entry",
            "ns",
            batch.total_ns as f64 / entries as f64,
        ));
        layer.push(Metric::new(
            "service.core.states_us",
            "us",
            get("service.core.states").mean_ms() * 1e3,
        ));
        layer.push(Metric::new(
            "service.core.battery_us",
            "us",
            get("service.core.battery").mean_ms() * 1e3,
        ));
        layer.push(Metric::new(
            "service.core.telemetry_ms",
            "ms",
            get("service.core.telemetry").mean_ms(),
        ));
        layer.push(Metric::new(
            "service.core.telemetry_bytes",
            "bytes",
            telemetry_bytes.unwrap_or(0) as f64,
        ));
    }
}

/// Shared body of both workloads: set up, measure, check, peel.
fn run(
    ctx: &Ctx,
    closed_loop: bool,
    days: u64,
    workers: usize,
    plan_of: impl Fn(&Script) -> Plan,
    drive: impl Fn(&Tracer, &Plan, std::net::SocketAddr, u64, bool) -> io::Result<(Counters, f64)>
        + Copy,
) -> Result<Outcome, String> {
    let sh = shape(ctx, days);
    let off = Tracer::new(false);
    let extra = Tracer::new(ctx.trace);
    let (script, setups) = setup(&extra, ctx, &sh, workers)?;
    let plan = plan_of(&script);
    let stations = script.stations;
    let inputs = format!(
        "{} sites x {} stations, {} days, {} steps in {} requests over {} connections, fleet seed {:#018x}",
        sh.sites,
        sh.per_site,
        sh.days,
        script.steps.len(),
        plan.requests(),
        plan.conns.len(),
        crate::fleet::config(ctx, sh.sites, sh.per_site, 1).seed
    );
    let mut out = Outcome::new(ctx, inputs, script_digest(&script));
    // The reference transcript first: every pass is compared with it.
    let reference = reference(&extra, &sh, stations, &plan, workers)?;
    let one = |t: &Tracer, corrupt: bool| {
        pass(
            t,
            &sh,
            stations,
            workers,
            corrupt,
            &reference,
            |t, addr, parent, corrupt| drive(t, &plan, addr, parent, corrupt),
        )
    };
    // Warm-up: one pass, unmeasured.
    one(&off, false)?;
    let tracer = Tracer::new(true);
    let mut corrupt = ctx.corrupt_transcript;
    let crate::Phase {
        base,
        peak_rss_mib,
        traced,
    } = crate::phase(&off, ctx.trace.then_some(&tracer), ctx.seconds, |t| {
        let p = one(t, std::mem::take(&mut corrupt))?;
        let wall_s = p.wall_s;
        Ok((p, wall_s))
    })?;
    let checked: Vec<&Pass> = base.iter().chain(&traced).collect();
    check_passes(&mut out, &checked, &reference);
    report(
        ctx,
        closed_loop,
        &mut out,
        &setups,
        &base,
        &reference,
        &peak_rss_mib,
    );
    if !ctx.trace {
        return Ok(out);
    }
    let core_s = core_pass(&extra, &sh, stations, &plan, false)?.0;
    let telemetry_bytes = core_pass(&extra, &sh, stations, &plan, true)?.1;
    // The closed loop's overhead shows in its rate; the open loop's rate
    // is its schedule, so its overhead is taken from CPU per request.
    if closed_loop {
        out.overhead(rate(&base), rate(&traced));
    } else {
        out.overhead(cpu_rate(&base), cpu_rate(&traced));
    }
    tracer.absorb(extra);
    layer_metrics(
        &mut out,
        &tracer,
        &plan,
        &base,
        &reference,
        (core_s, telemetry_bytes),
        closed_loop,
    );
    out.finish_trace(&tracer);
    Ok(out)
}

pub fn run_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let conns = ctx.threads;
    run(
        ctx,
        true,
        8,
        conns,
        |s| Plan::replay(s, conns),
        |tracer, plan, addr, parent, corrupt| {
            let t = Instant::now();
            let outs = std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .conns
                    .iter()
                    .enumerate()
                    .map(|(i, (steps, units))| {
                        scope.spawn(move || {
                            let job = Job {
                                addr,
                                steps,
                                units,
                                tracer,
                                parent,
                                corrupt: corrupt && i == 0,
                            };
                            client::closed_loop(&job, WINDOW)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
                    })
                    .collect::<Vec<_>>()
            });
            let wall = t.elapsed().as_secs_f64();
            let mut all = Counters::default();
            for o in outs {
                all.absorb(o?);
            }
            Ok((all, wall))
        },
    )
}

pub fn run_open(ctx: &Ctx) -> Result<Outcome, String> {
    let rate = match (ctx.tiny, ctx.open_rate) {
        (true, _) => 2_000.0,
        (false, Some(rate)) => rate,
        (false, None) => return Err("service-open needs --open-rate".to_string()),
    };
    run(
        ctx,
        false,
        2,
        2,
        Plan::open,
        move |tracer, plan, addr, parent, corrupt| {
            let (steps, units) = &plan.conns[0];
            let step_ns = 1e9 / rate;
            let due: Vec<u64> = units
                .iter()
                .map(|u| (f64::from(u.end) * step_ns) as u64)
                .collect();
            let span_ns = due.last().copied().unwrap_or(0);
            let (ops, op_due) = operator_schedule(span_ns);
            let t0 = Instant::now() + Duration::from_millis(2);
            let outs = std::thread::scope(|scope| {
                let station = scope.spawn(|| {
                    let job = Job {
                        addr,
                        steps,
                        units,
                        tracer,
                        parent,
                        corrupt,
                    };
                    client::open_loop(&job, &due, t0)
                });
                let operator = scope.spawn(|| {
                    let job = Job {
                        addr,
                        steps: &[],
                        units: &ops,
                        tracer,
                        parent,
                        corrupt: false,
                    };
                    client::open_loop(&job, &op_due, t0)
                });
                [station.join(), operator.join()]
            });
            let wall = t0.elapsed().as_secs_f64();
            let mut all = Counters::default();
            for o in outs {
                all.absorb(o.unwrap_or_else(|_| Err(io::Error::other("client panicked")))?);
            }
            Ok((all, wall))
        },
    )
}

/// The operator's requests over `span_ns`: the analytics endpoints at
/// [`STATES_HZ`] and [`BATTERY_HZ`], telemetry at [`TELEMETRY_HZ`].
fn operator_schedule(span_ns: u64) -> (Vec<Unit>, Vec<u64>) {
    let mut sched: Vec<(u64, Endpoint)> = Vec::new();
    let every = |hz: f64, offset: f64, e: Endpoint, sched: &mut Vec<(u64, Endpoint)>| {
        let period = 1e9 / hz;
        let mut k = 0.0;
        while ((k + offset) * period) < span_ns as f64 {
            sched.push((((k + offset) * period) as u64, e));
            k += 1.0;
        }
    };
    every(STATES_HZ, 0.25, Endpoint::AnalyticsStates, &mut sched);
    every(BATTERY_HZ, 0.75, Endpoint::AnalyticsBattery, &mut sched);
    every(TELEMETRY_HZ, 0.5, Endpoint::Telemetry, &mut sched);
    sched.sort_by_key(|&(t, e)| (t, e));
    let units = sched
        .iter()
        .enumerate()
        .map(|(i, &(_, endpoint))| Unit {
            index: OPERATOR_BASE + i as u64,
            endpoint,
            start: u32::MAX,
            end: u32::MAX,
        })
        .collect();
    (units, sched.into_iter().map(|(t, _)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_runs_of_checkins_only() {
        let at = SimTime::from_unix(100);
        let step = |index, action| Step {
            index,
            station: index,
            at,
            action,
        };
        let steps = [
            step(0, Action::CheckIn { soc: 500 }),
            step(1, Action::CheckIn { soc: 501 }),
            step(2, Action::StateReport { level: 1 }),
            step(3, Action::CheckIn { soc: 502 }),
        ];
        let units = units_of(&steps, true);
        let shape: Vec<_> = units.iter().map(|u| (u.endpoint, u.start, u.end)).collect();
        assert_eq!(
            shape,
            vec![
                (Endpoint::CheckinBatch, 0, 2),
                (Endpoint::State, 2, 3),
                (Endpoint::Checkin, 3, 4)
            ]
        );
        assert_eq!(units_of(&steps, false).len(), 4);
    }
}
