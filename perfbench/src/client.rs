//! The benchmark's own HTTP/1.1 load generator.
//!
//! Two load loops share one connection type: a closed loop that keeps a
//! pipeline window of requests in flight, and an open loop that writes
//! each request when it is due whatever is still outstanding. Both
//! survive the server's per-connection request cap: the
//! `connection-request-cap` response, or an EOF or reset with requests
//! unanswered, is a refusal. The loop counts it, reconnects, and
//! resends the unanswered requests in order.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use glacsweb_service::Step;

use crate::service::{render, Endpoint, Unit};
use crate::stats::{fnv, FNV_OFFSET};
use crate::trace::{Span, Tracer};

/// The body of the response the server sends instead of serving a
/// request past its per-connection cap.
const CAP_BODY: &[u8] = b"connection-request-cap\n";

/// Requests whose index is a multiple of this get a span when traced.
const SPAN_EVERY: u64 = 16;

/// Header length and total length of the first complete response in
/// `buf`, with its status; `None` while incomplete.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let total = end + 4 + length;
    Ok((buf.len() >= total).then_some((status, end + 4, total)))
}

/// Whether a response is the server's request-cap refusal.
pub fn is_cap(raw: &[u8], head: usize) -> bool {
    &raw[head..] == CAP_BODY
}

/// The staged update in an `/api/update` body: `(file, md5 of the
/// hex-decoded payload)`.
fn parse_update(body: &[u8]) -> Option<(String, String)> {
    let body = std::str::from_utf8(body).ok()?;
    let mut file = None;
    let mut payload = None;
    for line in body.lines() {
        match line.split_once('=') {
            Some(("update", v)) if v != "none" => file = Some(v.to_string()),
            Some(("payload", v)) => payload = glacsweb_service::http::hex_decode(v),
            _ => {}
        }
    }
    let md5 = glacsweb_station::md5::to_hex(&glacsweb_station::md5::md5(&payload?));
    Some((file?, md5))
}

/// One keep-alive connection and its receive buffer.
struct Conn {
    stream: TcpStream,
    /// Received bytes; `pos..` is not yet parsed.
    carry: Vec<u8>,
    pos: usize,
    /// What one `read` lands in before it is appended to `carry`.
    chunk: Box<[u8]>,
}

impl Conn {
    fn open(addr: SocketAddr, nonblocking: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(nonblocking)?;
        Ok(Conn {
            stream,
            carry: Vec::with_capacity(64 * 1024),
            pos: 0,
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        })
    }

    fn buffered(&self) -> &[u8] {
        &self.carry[self.pos..]
    }

    /// One `read` into the buffer; `Ok(0)` is EOF.
    fn read_some(&mut self, stats: &mut Counters) -> io::Result<usize> {
        if self.pos > 0 && self.pos * 2 >= self.carry.len() {
            self.carry.drain(..self.pos);
            self.pos = 0;
        }
        let n = self.stream.read(&mut self.chunk)?;
        self.carry.extend_from_slice(&self.chunk[..n]);
        stats.reads += 1;
        stats.bytes_in += n as u64;
        Ok(n)
    }
}

/// What a load loop measured on its connection.
#[derive(Debug, Default)]
pub struct Counters {
    /// `(canonical index, FNV of the raw response)` per answered request.
    pub hashes: Vec<(u64, u64)>,
    /// Latency per answered request, nanoseconds, by endpoint.
    pub latency_ns: BTreeMap<Endpoint, Vec<u64>>,
    /// How late each open-loop request was written, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Requests written (resends included).
    pub attempts: u64,
    /// Requests answered.
    pub answered: u64,
    /// Refusal events (each one reconnects).
    pub refusals: u64,
    /// Requests written but left unanswered by a refusal.
    pub refused: u64,
    pub reads: u64,
    pub bytes_in: u64,
    /// CPU time the load loop's own thread used, nanoseconds.
    pub cpu_ns: u64,
    pub spans: Vec<Span>,
}

impl Counters {
    pub fn absorb(&mut self, other: Counters) {
        self.hashes.extend(other.hashes);
        for (e, v) in other.latency_ns {
            self.latency_ns.entry(e).or_default().extend(v);
        }
        self.late_ns.extend(other.late_ns);
        self.attempts += other.attempts;
        self.answered += other.answered;
        self.refusals += other.refusals;
        self.refused += other.refused;
        self.reads += other.reads;
        self.bytes_in += other.bytes_in;
        self.cpu_ns += other.cpu_ns;
        self.spans.extend(other.spans);
    }
}

/// Where a load loop's requests come from and how it reports.
pub struct Job<'a> {
    pub addr: SocketAddr,
    pub steps: &'a [Step],
    pub units: &'a [Unit],
    pub tracer: &'a Tracer,
    /// The span the loop's connection span hangs under.
    pub parent: u64,
    /// Flip one byte of the first response before hashing it.
    pub corrupt: bool,
}

/// The state both loops share: requests in flight, staged updates,
/// and the measurements.
struct Flight<'a> {
    job: &'a Job<'a>,
    conn_span: u64,
    /// `(unit position, time its latency is measured from)`, in order.
    inflight: VecDeque<(usize, Instant)>,
    /// Staged updates fetched so far, by station.
    staged: BTreeMap<u64, (String, String)>,
    out: Counters,
    corrupt: bool,
    /// The loop thread's CPU clock when the loop began.
    cpu_start_ns: u64,
}

impl<'a> Flight<'a> {
    fn new(job: &'a Job<'a>) -> Flight<'a> {
        Flight {
            job,
            conn_span: job.tracer.id(),
            inflight: VecDeque::new(),
            staged: BTreeMap::new(),
            out: Counters::default(),
            corrupt: job.corrupt,
            cpu_start_ns: crate::host::thread_cpu_ns(),
        }
    }

    /// Whether unit `pos` can be written now: an ack needs its fetch
    /// answered first.
    fn ready(&self, pos: usize) -> bool {
        let unit = &self.job.units[pos];
        unit.endpoint != Endpoint::Ack
            || self
                .staged
                .contains_key(&self.job.steps[unit.start as usize].station)
    }

    /// The §III pair whose server state unit `pos` reads or changes;
    /// `None` for check-ins, which touch no pair state, and operator
    /// requests.
    fn pair(&self, pos: usize) -> Option<u64> {
        let unit = &self.job.units[pos];
        match unit.endpoint {
            Endpoint::State | Endpoint::Override | Endpoint::Update | Endpoint::Ack => {
                Some(self.job.steps[unit.start as usize].station / 2)
            }
            _ => None,
        }
    }

    fn write_unit(&mut self, pos: usize, since: Instant, buf: &mut Vec<u8>) -> io::Result<()> {
        let unit = &self.job.units[pos];
        let ack = if unit.endpoint == Endpoint::Ack {
            let station = self.job.steps[unit.start as usize].station;
            self.staged
                .get(&station)
                .map(|(f, m)| (f.as_str(), m.as_str()))
        } else {
            None
        };
        render(self.job.steps, unit, ack, buf)?;
        self.inflight.push_back((pos, since));
        self.out.attempts += 1;
        Ok(())
    }

    /// Consumes the response at the front of the buffer for the oldest
    /// request in flight. `Ok(false)` means it was a refusal.
    fn answer(&mut self, raw: &[u8], head: usize, status: u16) -> io::Result<bool> {
        if is_cap(raw, head) {
            return Ok(false);
        }
        let Some((pos, since)) = self.inflight.pop_front() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response with no request in flight",
            ));
        };
        let now = Instant::now();
        let unit = &self.job.units[pos];
        if status != 200 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{:?} request {} answered {status}: {}",
                    unit.endpoint,
                    unit.index,
                    String::from_utf8_lossy(&raw[head..])
                ),
            ));
        }
        let hash = if std::mem::take(&mut self.corrupt) {
            let mut copy = raw.to_vec();
            let last = copy.len() - 1;
            copy[last] ^= 0x20;
            fnv(FNV_OFFSET, &copy)
        } else {
            fnv(FNV_OFFSET, raw)
        };
        self.out.hashes.push((unit.index, hash));
        let ns = now.saturating_duration_since(since).as_nanos() as u64;
        self.out
            .latency_ns
            .entry(unit.endpoint)
            .or_default()
            .push(ns);
        self.out.answered += 1;
        if unit.endpoint == Endpoint::Update {
            let station = self.job.steps[unit.start as usize].station;
            let staged = parse_update(&raw[head..]).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "update fetch returned no payload",
                )
            })?;
            self.staged.insert(station, staged);
        }
        let tracer = self.job.tracer;
        if tracer.on() && unit.index.is_multiple_of(SPAN_EVERY) {
            self.out.spans.push(Span {
                id: tracer.id(),
                parent: self.conn_span,
                name: unit.endpoint.span_name(),
                req: unit.index,
                start: tracer.ns(since),
                end: tracer.ns(now),
            });
        }
        Ok(true)
    }

    /// Parses and consumes every complete response in the buffer.
    /// `Ok(false)` on a refusal.
    fn drain(&mut self, conn: &mut Conn) -> io::Result<bool> {
        while let Some((status, head, total)) = parse_response(conn.buffered())? {
            let ok = self.answer(&conn.carry[conn.pos..conn.pos + total], head, status)?;
            conn.pos += total;
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// After a refusal: count it, and hand back the unanswered requests
    /// (with the times their latency counts from) for resending.
    fn refuse(&mut self) -> VecDeque<(usize, Instant)> {
        self.out.refusals += 1;
        self.out.refused += self.inflight.len() as u64;
        std::mem::take(&mut self.inflight)
    }

    fn finish(mut self, started: Instant) -> Counters {
        self.out.cpu_ns = crate::host::thread_cpu_ns() - self.cpu_start_ns;
        let tracer = self.job.tracer;
        if tracer.on() {
            self.out.spans.push(Span {
                id: self.conn_span,
                parent: self.job.parent,
                name: "client.connection",
                req: 0,
                start: tracer.ns(started),
                end: tracer.ns(Instant::now()),
            });
        }
        self.out
    }
}

/// Reconnect attempts before a loop gives up on a dead server.
const RECONNECTS: u32 = 50;

fn reconnect(addr: SocketAddr, nonblocking: bool) -> io::Result<Conn> {
    let mut last = None;
    for _ in 0..RECONNECTS {
        match Conn::open(addr, nonblocking) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("reconnect failed")))
}

/// Closed loop: up to `window` requests in flight, the next window
/// written once the current one is answered. An update fetch closes a
/// window; an ack waits for its fetch's answer. Latency runs from the
/// first time a request was written.
pub fn closed_loop(job: &Job<'_>, window: usize) -> io::Result<Counters> {
    crate::alloc::mark_client();
    let started = Instant::now();
    let mut f = Flight::new(job);
    let mut conn = Conn::open(job.addr, false)?;
    let mut resend: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut wbuf = Vec::with_capacity(4096);
    while next < job.units.len() || !resend.is_empty() {
        wbuf.clear();
        let now = Instant::now();
        while f.inflight.len() < window.max(1) {
            let (pos, since) = match resend.front() {
                Some(&r) => r,
                None if next < job.units.len() => (next, now),
                None => break,
            };
            if !f.ready(pos) {
                break;
            }
            f.write_unit(pos, since, &mut wbuf)?;
            if resend.pop_front().is_none() {
                next += 1;
            }
            if job.units[pos].endpoint == Endpoint::Update {
                break;
            }
        }
        if f.inflight.is_empty() {
            return Err(io::Error::other(
                "closed loop stalled: an ack with no fetch before it",
            ));
        }
        // A failed write still reads on: responses the server sent
        // before closing are queued, and their requests must not be
        // resent.
        let _ = conn.stream.write_all(&wbuf);
        let mut refused = false;
        while !refused && !f.inflight.is_empty() {
            match f.drain(&mut conn)? {
                false => refused = true,
                true if f.inflight.is_empty() => {}
                true => match conn.read_some(&mut f.out) {
                    Ok(0) | Err(_) => refused = true,
                    Ok(_) => {}
                },
            }
        }
        if refused {
            let mut unanswered = f.refuse();
            unanswered.extend(resend.drain(..));
            resend = unanswered;
            conn = reconnect(job.addr, false)?;
        }
    }
    Ok(f.finish(started))
}

/// Open loop: unit `i` is written at `t0 + due_ns[i]` whether or not
/// earlier requests are answered. Latency runs from the due time, so a
/// stall counts against every request it delays.
///
/// The one connection multiplexes independent stations, so one
/// station's wait must not hold back the others: an ack waits for its
/// station's fetch to be answered, and a later request of the same
/// §III pair waits behind it, while every other request goes out when
/// due. Responses depend only on each pair's request order (check-ins
/// on none), so the transcript still equals the in-memory one.
pub fn open_loop(job: &Job<'_>, due_ns: &[u64], t0: Instant) -> io::Result<Counters> {
    crate::alloc::mark_client();
    poll::tighten_timer_slack();
    let mut f = Flight::new(job);
    let mut conn = Conn::open(job.addr, true)?;
    let due = |pos: usize| t0 + Duration::from_nanos(due_ns[pos]);
    let n = job.units.len();
    let mut next = 0usize;
    // Due units held back, in due order.
    let mut held: VecDeque<usize> = VecDeque::new();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut written = 0usize;
    loop {
        let now = Instant::now();
        let mut i = 0;
        while i < held.len() {
            let pos = held[i];
            let pair = f.pair(pos);
            if f.ready(pos)
                && !held
                    .iter()
                    .take(i)
                    .any(|&h| pair.is_some() && f.pair(h) == pair)
            {
                held.remove(i);
                f.out
                    .late_ns
                    .push(now.saturating_duration_since(due(pos)).as_nanos() as u64);
                f.write_unit(pos, due(pos), &mut out)?;
            } else {
                i += 1;
            }
        }
        while next < n && due(next) <= now {
            let pair = f.pair(next);
            if !f.ready(next) || held.iter().any(|&h| pair.is_some() && f.pair(h) == pair) {
                held.push_back(next);
            } else {
                f.out
                    .late_ns
                    .push(now.saturating_duration_since(due(next)).as_nanos() as u64);
                f.write_unit(next, due(next), &mut out)?;
            }
            next += 1;
        }
        let mut closed = false;
        while written < out.len() {
            match conn.stream.write(&out[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        // Read what has arrived (also after a failed write: responses
        // sent before the server closed are still queued), answer it,
        // and only then treat a closed connection as a refusal of what
        // is still unanswered.
        let mut eof = false;
        while !eof {
            match conn.read_some(&mut f.out) {
                Ok(0) => eof = true,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => eof = true,
            }
        }
        let mut refused = !f.drain(&mut conn)?;
        let pending = !f.inflight.is_empty() || !held.is_empty() || next < n;
        refused |= (closed || eof) && pending;
        if refused {
            let unanswered = f.refuse();
            conn = reconnect(job.addr, true)?;
            out.clear();
            written = 0;
            for (pos, since) in unanswered {
                f.write_unit(pos, since, &mut out)?;
            }
            continue;
        }
        if !pending {
            break;
        }
        let wait = if next < n {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(20)
        };
        if !wait.is_zero() || written < out.len() {
            poll::wait(&conn.stream, written < out.len(), wait);
        }
    }
    Ok(f.finish(t0))
}

/// Waiting on a socket and a deadline at once.
mod poll {
    use std::net::TcpStream;
    use std::time::Duration;

    #[cfg(target_os = "linux")]
    mod sys {
        use std::os::raw::{c_int, c_long, c_short, c_ulong};

        #[repr(C)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        #[repr(C)]
        pub struct Timespec {
            pub tv_sec: i64,
            pub tv_nsec: c_long,
        }

        pub const POLLIN: c_short = 0x1;
        pub const POLLOUT: c_short = 0x4;
        pub const PR_SET_TIMERSLACK: c_int = 29;

        extern "C" {
            pub fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const std::ffi::c_void,
            ) -> c_int;
            pub fn prctl(option: c_int, ...) -> c_int;
        }
    }

    /// Lets the kernel wake this thread within a microsecond of a
    /// deadline instead of the default 50 µs slack.
    #[cfg(target_os = "linux")]
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes this thread's timer slack.
        unsafe {
            sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
        }
    }

    /// Blocks until the socket is readable (or writable, when
    /// `writing`) or `timeout` passes.
    #[cfg(target_os = "linux")]
    pub fn wait(stream: &TcpStream, writing: bool, timeout: Duration) {
        use std::os::fd::AsRawFd;
        let mut fd = sys::PollFd {
            fd: stream.as_raw_fd(),
            events: sys::POLLIN | if writing { sys::POLLOUT } else { 0 },
            revents: 0,
        };
        let ts = sys::Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos().into(),
        };
        // SAFETY: one valid pollfd and a valid timespec, both outliving
        // the call; no signal mask.
        unsafe {
            sys::ppoll(&mut fd, 1, &ts, std::ptr::null());
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn tighten_timer_slack() {}

    #[cfg(not(target_os = "linux"))]
    pub fn wait(_: &TcpStream, _: bool, timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_micros(50)));
    }
}
