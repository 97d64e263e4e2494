//! `serve-fleet`: the realtime service at saturation, served over an
//! in-process `realtime::wire::serve` on loopback. 32 tenants × 16
//! workers across the four system labels; ticks overrun, so throughput
//! measures capacity. Load is one closed-loop client connection sending
//! mutating commands (`submit_job`, `inject_fault`, `pause`/`resume`,
//! `snapshot`) and one closed-loop reader connection sending
//! `observe`/`stats` with a short sleep between requests. This is the
//! only workload that exercises ingress, the tick, egress, the wire and
//! capsule saves.

use crate::report::{self, median, quantile, ratio, Outcome, PhaseRow, PhaseTable};
use crate::trace::{engine_table, within, SpanTotals};
use crate::{Ctx, SplitMix};
use realtime::{
    ObservationFrame, RealtimeService, ServiceConfig, ServiceHandle, ServiceStats, SYSTEM_LABELS,
};
use serde::Deserialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Telemetry;

const TENANTS: usize = 32;
const WORKERS_PER_TENANT: usize = 16;
/// Wall tick interval; a busy tick's work takes far longer, so every
/// tick overruns and the service runs flat out.
const TICK: Duration = Duration::from_millis(1);
/// Simulated seconds per wall second: a 3 s sim quantum per tick.
const DILATION: f64 = 3000.0;
/// Ticks of measurement per `--seconds`. The window is a fixed number of
/// ticks rather than of seconds: a tick's cost grows as the tenants age,
/// so only a fixed amount of work gives runs the same load. On the
/// reference host the window takes about `--seconds`.
const TICKS_PER_SECOND: f64 = 24.0;
/// The window is cut into this many slices of equal tick count. Rates
/// and latency percentiles are medians over the slices, so a slow phase
/// of the host moves one slice rather than the result.
const SLICES: u64 = 5;
/// The reader's pause between requests.
const READER_SLEEP: Duration = Duration::from_millis(1);
/// The client's think time between a reply and its next command. It
/// lets the tick that applied the command finish its drain, so every
/// command waits for the next tick boundary instead of sometimes catching
/// the tail of the current drain.
const CLIENT_THINK: Duration = Duration::from_millis(1);
/// Every this many reader requests one is `stats`, the rest `observe`.
const STATS_EVERY: u64 = 8;
/// Longest wait for submitted jobs to finish once the window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Span ring of a traced fleet: engine spans of every tenant advance.
const FLEET_SPAN_CAPACITY: usize = 1 << 21;
/// The job mix: (benchmark, input MB, reduces).
/// Jobs last a few hundred ticks, so one command per tick keeps every
/// tenant supplied with work.
const JOB_MIX: &[(&str, f64, usize)] = &[
    ("grep", 24576.0, 16),
    ("terasort", 16384.0, 16),
    ("wordcount", 16384.0, 8),
    ("kmeans", 12288.0, 8),
    ("invertedindex", 16384.0, 16),
    ("histogramratings", 24576.0, 8),
];

/// Tenant `id` runs system `SYSTEM_LABELS[id % 4]`; this is its index
/// among that system's tenants. Tenants with the same index get the same
/// seed and the same jobs, so the systems differ only in their slot
/// policy.
fn peer_index(id: usize) -> usize {
    id / SYSTEM_LABELS.len()
}

/// One NDJSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        Conn::new(TcpStream::connect(addr).expect("connect to the wire server"))
    }

    fn new(stream: TcpStream) -> Conn {
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            line: String::new(),
        }
    }

    /// Send one request line.
    fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))
    }

    /// Read one reply line into `self.line`.
    fn recv_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The reply in `self.line`; an error reply is an error.
    fn reply(&self) -> Result<Value, String> {
        let reply = serde_json::parse_value(&self.line).map_err(|e| format!("torn reply: {e}"))?;
        match reply.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(reply),
            _ => Err(format!("error reply: {}", self.line.trim())),
        }
    }

    /// Send one request and wait for its reply; returns the reply and the
    /// round trip in ms.
    fn call(&mut self, request: &str) -> Result<(Value, f64), String> {
        let t = Instant::now();
        self.send(request)?;
        self.recv_line()?;
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((self.reply()?, rtt_ms))
    }
}

/// A running service with its wire server.
struct Fleet {
    handle: ServiceHandle,
    telem: Telemetry,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Result<(), String>>,
    addr: std::net::SocketAddr,
    client: Conn,
}

impl Fleet {
    /// Spawn the service, bind the wire and create the tenants.
    fn start(seed: u64, workers: usize, telem: Telemetry) -> Result<Fleet, String> {
        let handle = RealtimeService::spawn(ServiceConfig {
            tick_interval: TICK,
            dilation: DILATION,
            workers,
            record_script: true,
            telemetry: telem.clone(),
            ..ServiceConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let server = {
            let (handle, stop) = (handle.clone(), stop.clone());
            std::thread::spawn(move || {
                realtime::wire::serve(handle, "127.0.0.1:0", stop, |addr| {
                    // connect before the accept loop starts: the first
                    // accept then finds the client waiting, instead of
                    // racing the loop's 10 ms poll, which would add 0 or
                    // 10 ms to the set-up at random
                    let _ = tx.send(TcpStream::connect(addr).map(|s| (addr, s)));
                })
            })
        };
        let (addr, stream) = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "wire server did not bind".to_string())?
            .map_err(|e| format!("connect to the wire server: {e}"))?;
        let mut client = Conn::new(stream);
        // every create goes out at once. The connection's thread then
        // finds the next one buffered as soon as a tick has applied the
        // previous one, so each create takes exactly one tick. Sent one
        // at a time, a create whose round trip missed the next tick
        // waited for the one after, and set-up jumped between 32 and
        // 41 ms with the host's load.
        for id in 0..TENANTS {
            let system = SYSTEM_LABELS[id % SYSTEM_LABELS.len()];
            client.send(&format!(
                "{{\"cmd\":\"create_tenant\",\"name\":\"fleet-{id:02}\",\"workers\":{WORKERS_PER_TENANT},\"seed\":{},\"system\":\"{system}\"}}",
                seed.wrapping_add(peer_index(id) as u64)
            ))?;
        }
        for id in 0..TENANTS {
            client.recv_line()?;
            let reply = client.reply()?;
            let created = reply
                .get("reply")
                .and_then(|r| r.get("TenantCreated"))
                .and_then(|r| r.get("tenant"))
                .and_then(Value::as_u64);
            if created != Some(id as u64) {
                return Err(format!("create of tenant {id} replied {}", client.line.trim()));
            }
        }
        Ok(Fleet {
            handle,
            telem,
            stop,
            server,
            addr,
            client,
        })
    }

    /// Close the connections, stop the wire server and the service.
    fn stop(self) -> Result<realtime::ServiceSummary, String> {
        drop(self.client);
        self.stop.store(true, Ordering::Release);
        self.server
            .join()
            .map_err(|_| "wire server panicked".to_string())??;
        self.handle.shutdown()
    }
}

/// A latency sample: when the request was sent, and its round trip (ms).
type Sample = (Instant, f64);

/// What the reader connection saw.
#[derive(Default)]
struct ReaderLog {
    rtt: Vec<Sample>,
    requests: u64,
    failed: Vec<String>,
    staleness_max: u64,
}

/// Closed-loop reader: `observe` round-robin over the tenants with a
/// `stats` every [`STATS_EVERY`] requests, checking every frame's
/// checksum.
fn reader_loop(
    addr: std::net::SocketAddr,
    handle: ServiceHandle,
    stop: Arc<AtomicBool>,
) -> ReaderLog {
    let mut conn = Conn::open(addr);
    let mut log = ReaderLog::default();
    let mut tenant = 0usize;
    while !stop.load(Ordering::Acquire) {
        log.requests += 1;
        let sent = Instant::now();
        if log.requests % STATS_EVERY == 0 {
            match conn.call("{\"cmd\":\"stats\"}") {
                Ok((_, ms)) => log.rtt.push((sent, ms)),
                Err(e) => log.failed.push(e),
            }
        } else {
            let request = format!("{{\"cmd\":\"observe\",\"tenant\":{tenant}}}");
            tenant = (tenant + 1) % TENANTS;
            match conn.call(&request) {
                Ok((reply, ms)) => {
                    log.rtt.push((sent, ms));
                    let now = handle.tick();
                    match reply.get("frame").map(ObservationFrame::deserialize) {
                        Some(Ok(frame)) if frame.is_consistent() => {
                            let live = frame.epoch > 0
                                && !frame.paused
                                && !frame.obs.all_finished
                                && frame.error.is_none();
                            if live {
                                let lag = now.saturating_sub(frame.tick + 1);
                                log.staleness_max = log.staleness_max.max(lag);
                            }
                        }
                        Some(Ok(_)) => log.failed.push("torn frame".into()),
                        Some(Err(e)) => log.failed.push(format!("undecodable frame: {e}")),
                        None => log.failed.push("observe reply without a frame".into()),
                    }
                }
                Err(e) => log.failed.push(e),
            }
        }
        std::thread::sleep(READER_SLEEP);
    }
    log
}

/// The client's view of one tenant.
#[derive(Default, Clone)]
struct TenantLoad {
    submitted: u64,
    faults: u64,
    /// Simulated makespan of the tenant's first job (ms).
    first_makespan_ms: Option<u64>,
    visits: u64,
}

/// Whether tenant `id` has no unfinished job; records the makespan of its
/// first job once it finished.
fn needs_job(handle: &ServiceHandle, id: usize, t: &mut TenantLoad) -> bool {
    if t.submitted == 0 {
        return true;
    }
    // an in-process read: load-generator control, not a measured read
    let Some(f) = handle.frame(id) else {
        return false;
    };
    if unfinished_jobs(&f, t.submitted) > 0 {
        return false;
    }
    if t.submitted == 1 && t.first_makespan_ms.is_none() {
        // an idle tenant's sim clock stays where its last job finished
        let submit_ms = f.obs.jobs.first().map_or(0, |j| j.submit_at_ms);
        t.first_makespan_ms = Some(f.obs.at_ms.saturating_sub(submit_ms));
    }
    true
}

/// Jobs of the `submitted` not yet finished, as of frame `f` (a frame
/// published before a submit was applied does not list that job yet).
fn unfinished_jobs(f: &ObservationFrame, submitted: u64) -> u64 {
    let listed_done = f.obs.jobs.iter().filter(|j| j.finished).count() as u64;
    submitted.saturating_sub(listed_done)
}

/// Fleet totals at one instant.
#[derive(Clone)]
struct Mark {
    at: Instant,
    /// The telemetry clock (0 when tracing is off), µs.
    clock_us: u64,
    sim_ms: u64,
    steps: u64,
    stats: ServiceStats,
}

fn mark(fleet: &Fleet) -> Mark {
    let (sim_ms, steps) = (0..TENANTS)
        .filter_map(|id| fleet.handle.frame(id))
        .fold((0, 0), |(ms, steps), f| {
            (ms + f.obs.at_ms, steps + f.obs.steps)
        });
    Mark {
        at: Instant::now(),
        clock_us: fleet.telem.clock_us(),
        sim_ms,
        steps,
        stats: fleet.handle.stats(),
    }
}

/// One slice of a measured window.
#[derive(Default)]
struct Slice {
    wall_s: f64,
    sim_s: f64,
    steps: u64,
    frames: u64,
    cmd_ms: Vec<f64>,
    observe_ms: Vec<f64>,
}

/// The median over the slices of `f`, a per-slice value.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&mut slices.iter().map(f).collect::<Vec<_>>())
}

/// One measured window of a fleet: what the end-to-end metrics need.
struct Window {
    slices: Vec<Slice>,
    /// Fleet totals where the window opened and closed.
    first: Mark,
    last: Mark,
    reader: ReaderLog,
    makespan_ratio: f64,
    summary: realtime::ServiceSummary,
    shutdown_s: f64,
    /// Peak resident set over the window, MiB.
    peak_rss_mb: f64,
}

impl Window {
    /// Wall seconds of the window's ticks.
    fn wall_s(&self) -> f64 {
        (self.last.at - self.first.at).as_secs_f64()
    }
}

/// Sort timed samples into the slices between `marks` by send time;
/// samples outside the window are dropped.
fn bucket(samples: &[Sample], marks: &[Mark], slices: &mut [Slice], cmd: bool) {
    for &(at, ms) in samples {
        let k = marks.partition_point(|m| m.at <= at);
        if let Some(s) = k.checked_sub(1).and_then(|k| slices.get_mut(k)) {
            if cmd {
                s.cmd_ms.push(ms);
            } else {
                s.observe_ms.push(ms);
            }
        }
    }
}

/// Drive one fleet for the ticks of `seconds`, drain it, shut it down
/// and verify the replay.
fn drive(ctx: &Ctx, mut fleet: Fleet, seconds: f64, out: &mut Outcome) -> Option<Window> {
    let mut rng = SplitMix(ctx.seed ^ 0xf1ee_7000);
    let snap_dir = ctx.tmp.join("snapshots");
    let snap_dir = snap_dir.to_string_lossy().replace('\\', "/");
    let stop_reader = Arc::new(AtomicBool::new(false));
    let reader = {
        let (addr, handle, stop) = (fleet.addr, fleet.handle.clone(), stop_reader.clone());
        std::thread::spawn(move || reader_loop(addr, handle, stop))
    };
    let mut load = vec![TenantLoad::default(); TENANTS];
    let mut cmd: Vec<Sample> = Vec::new();
    report::reset_peak_rss();
    let slice_ticks = ((seconds * TICKS_PER_SECOND) as u64 / SLICES).max(1);
    let mut marks = vec![mark(&fleet)];
    let (started, tick0) = (marks[0].at, marks[0].stats.tick);
    let (mut cursor, mut submit_cursor) = (0usize, 0usize);
    let mut pending_resume: Option<usize> = None;
    let mut call = |fleet: &mut Fleet, out: &mut Outcome, request: String| {
        out.attempted += 1;
        let sent = Instant::now();
        match fleet.client.call(&request) {
            Ok((_, ms)) => cmd.push((sent, ms)),
            Err(e) => out.fail(format!("{request}: {e}")),
        }
        std::thread::sleep(CLIENT_THINK);
    };
    // the window closes after 3 × its nominal length even if its ticks
    // are not done, as in `crate::within_cap`
    while marks.len() as u64 <= SLICES && started.elapsed().as_secs_f64() < 3.0 * seconds {
        if fleet.handle.tick() >= tick0 + slice_ticks * marks.len() as u64 {
            marks.push(mark(&fleet));
            continue;
        }
        if let Some(id) = pending_resume.take() {
            call(
                &mut fleet,
                out,
                format!("{{\"cmd\":\"resume\",\"tenant\":{id}}}"),
            );
            continue;
        }
        // an idle tenant gets its next job first, so tenants never wait
        // a whole round for work; a tenant's first job runs alone
        let next_idle = (0..TENANTS)
            .map(|k| (submit_cursor + k) % TENANTS)
            .find(|&id| needs_job(&fleet.handle, id, &mut load[id]));
        if let Some(id) = next_idle {
            submit_cursor = (id + 1) % TENANTS;
            let t = &mut load[id];
            let (bench, mb, reduces) =
                JOB_MIX[(peer_index(id) + t.submitted as usize) % JOB_MIX.len()];
            t.submitted += 1;
            call(&mut fleet, out, format!(
                "{{\"cmd\":\"submit_job\",\"tenant\":{id},\"bench\":\"{bench}\",\"input_mb\":{mb},\"num_reduces\":{reduces}}}"
            ));
            continue;
        }
        let id = cursor;
        cursor = (cursor + 1) % TENANTS;
        let t = &mut load[id];
        t.visits += 1;
        if t.visits % 16 == 0 {
            call(
                &mut fleet,
                out,
                format!("{{\"cmd\":\"snapshot\",\"tenant\":{id},\"dir\":\"{snap_dir}\"}}"),
            );
        } else if t.visits % 7 == 0 && t.first_makespan_ms.is_some() && t.faults < 2 {
            t.faults += 1;
            let node = 1 + rng.below(WORKERS_PER_TENANT as u64 - 1);
            let after = 3000 * (1 + rng.below(10));
            call(&mut fleet, out, format!(
                "{{\"cmd\":\"inject_fault\",\"tenant\":{id},\"node\":{node},\"after_ms\":{after},\"downtime_ms\":60000}}"
            ));
        } else {
            // a one-tick pause: the resume is the next command
            pending_resume = Some(id);
            call(
                &mut fleet,
                out,
                format!("{{\"cmd\":\"pause\",\"tenant\":{id}}}"),
            );
        }
    }
    if let Some(id) = pending_resume.take() {
        call(
            &mut fleet,
            out,
            format!("{{\"cmd\":\"resume\",\"tenant\":{id}}}"),
        );
    }
    if marks.len() as u64 <= SLICES {
        // the cap closed the window: the open slice ends here
        marks.push(mark(&fleet));
    }
    let peak_rss_mb = report::peak_rss_mb();
    stop_reader.store(true, Ordering::Release);
    let reader = reader.join().expect("reader thread");
    let mut slices: Vec<Slice> = marks
        .windows(2)
        .map(|m| Slice {
            wall_s: (m[1].at - m[0].at).as_secs_f64(),
            sim_s: m[1].sim_ms.saturating_sub(m[0].sim_ms) as f64 / 1e3,
            steps: m[1].steps.saturating_sub(m[0].steps),
            frames: m[1]
                .stats
                .frames_published
                .saturating_sub(m[0].stats.frames_published),
            ..Slice::default()
        })
        .collect();
    bucket(&cmd, &marks, &mut slices, true);
    bucket(&reader.rtt, &marks, &mut slices, false);

    // drain: every submitted job must finish
    let deadline = Instant::now() + DRAIN_LIMIT;
    loop {
        let mut idle = 0;
        for (id, t) in load.iter_mut().enumerate() {
            idle += needs_job(&fleet.handle, id, t) as usize;
        }
        if idle == TENANTS || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let t = Instant::now();
    let summary = match fleet.stop() {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("service shutdown: {e}"));
            return None;
        }
    };
    let replay = summary.script.as_ref().map(|s| s.replay());
    let shutdown_s = t.elapsed().as_secs_f64();
    match replay {
        Some(r) if r.verified => {}
        Some(r) => out.problem(format!("live vs replay diverged: {:?}", r.mismatches)),
        None => out.problem("no ingress script recorded".into()),
    }
    let submitted: u64 = load.iter().map(|t| t.submitted).sum();
    let completed: u64 = summary.tenants.iter().map(|t| t.jobs_completed).sum();
    if completed != submitted {
        out.problem(format!("{completed}/{submitted} submitted jobs completed"));
    }
    for t in summary.tenants.iter().filter(|t| t.error.is_some()) {
        out.problem(format!("tenant {} died: {:?}", t.id, t.error));
    }
    out.attempted += reader.requests;
    for e in &reader.failed {
        out.fail(format!("reader: {e}"));
    }

    // mean first-job makespan, SMapReduce tenants over HadoopV1 tenants:
    // a tenant's first job runs alone on a fresh cluster, so it does not
    // depend on when commands land
    let first_mean = |label: &str| {
        let v: Vec<f64> = (0..TENANTS)
            .filter(|id| SYSTEM_LABELS[id % SYSTEM_LABELS.len()] == label)
            .filter_map(|id| load[id].first_makespan_ms)
            .map(|ms| ms as f64)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    Some(Window {
        slices,
        first: marks[0].clone(),
        last: marks[marks.len() - 1].clone(),
        reader,
        makespan_ratio: ratio(first_mean("SMapReduce"), first_mean("HadoopV1")),
        summary,
        shutdown_s,
        peak_rss_mb,
    })
}

/// Per-tick duration samples of the service's `realtime/*` spans inside
/// the window `w`, µs.
fn tick_phases(telem: &Telemetry, w: &Window) -> [Vec<f64>; 3] {
    let mut phases: [Vec<f64>; 3] = Default::default();
    let window = w.first.clock_us..w.last.clock_us;
    telem.with_spans(|spans| {
        for s in spans.filter(|s| s.cat == "realtime" && within(s, &window)) {
            let i = match s.name {
                "drain" => 0,
                "advance" => 1,
                _ => 2,
            };
            phases[i].push(s.dur_us as f64);
        }
    });
    phases
}

/// Start a fleet; a set-up failure is a correctness problem.
fn start(ctx: &Ctx, telem: Telemetry, out: &mut Outcome) -> Option<Fleet> {
    Fleet::start(ctx.seed, ctx.workers, telem)
        .map_err(|e| out.problem(format!("fleet set-up: {e}")))
        .ok()
}

/// One timed set-up; the fleet's shutdown is not timed. The fleet's
/// set-ups are timed in this process, one after another: a fleet
/// allocates little, and its set-up time was steady that way, while in
/// fresh child processes it swung by a third from run to run.
pub fn setup_probe(ctx: &Ctx) -> Result<f64, String> {
    let t = Instant::now();
    let fleet = Fleet::start(ctx.seed, ctx.workers, Telemetry::disabled())?;
    let seconds = t.elapsed().as_secs_f64();
    fleet.stop()?;
    Ok(seconds)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    crate::timed_setups(&mut out, || setup_probe(ctx));
    let Some(fleet) = start(ctx, Telemetry::disabled(), &mut out) else {
        return out;
    };
    if ctx.traced {
        traced_run(ctx, fleet, &mut out);
        out.set(
            "ops_failed_share",
            ratio(out.failed as f64, out.attempted as f64),
        );
        return out;
    }
    let Some(mut w) = drive(ctx, fleet, ctx.seconds, &mut out) else {
        return out;
    };
    out.repeats = w.slices.len() as u64;
    let nodes = WORKERS_PER_TENANT as f64;
    out.set(
        "cells_per_s",
        slice_median(&w.slices, |s| s.frames as f64 / s.wall_s),
    );
    out.set(
        "ns_per_step_node",
        slice_median(&w.slices, |s| s.wall_s * 1e9 / (s.steps as f64 * nodes)),
    );
    out.set(
        "sim_s_per_wall_s",
        slice_median(&w.slices, |s| s.sim_s / s.wall_s),
    );
    for s in &mut w.slices {
        out.samples += s.cmd_ms.len() as u64;
    }
    out.set(
        "cmd_p50_ms",
        slice_median(&w.slices, |s| quantile(&mut s.cmd_ms.clone(), 0.50)),
    );
    out.set(
        "cmd_p90_ms",
        slice_median(&w.slices, |s| quantile(&mut s.cmd_ms.clone(), 0.90)),
    );
    out.set(
        "observe_p50_ms",
        slice_median(&w.slices, |s| quantile(&mut s.observe_ms.clone(), 0.50)),
    );
    out.set(
        "observe_p90_ms",
        slice_median(&w.slices, |s| quantile(&mut s.observe_ms.clone(), 0.90)),
    );
    out.set("sim_makespan_ratio", w.makespan_ratio);
    out.set("peak_rss_mb", w.peak_rss_mb);
    out
}

/// The traced run: an untraced fleet, a traced one, and an untraced one
/// again, each on a third of the window's ticks. The traced fleet's wall
/// time for those ticks against the mean of the two around it gives the
/// tracing overhead, with linear host drift cancelled.
fn traced_run(ctx: &Ctx, first: Fleet, out: &mut Outcome) {
    let third = ctx.seconds / 3.0;
    let Some(before) = drive(ctx, first, third, out) else {
        return;
    };
    let telem = Telemetry::with_capacity(FLEET_SPAN_CAPACITY, 1 << 12);
    let Some(traced) = start(ctx, telem.clone(), out).and_then(|f| drive(ctx, f, third, out))
    else {
        return;
    };
    let Some(after) = start(ctx, Telemetry::disabled(), out).and_then(|f| drive(ctx, f, third, out))
    else {
        return;
    };
    out.repeats = 3 * SLICES;
    let untraced_wall_s = (before.wall_s() + after.wall_s()) / 2.0;
    traced_metrics(out, &traced, &telem, untraced_wall_s, ctx.workers);
}

/// Per-layer metrics from the traced fleet's window `t`;
/// `untraced_wall_s` is the untraced fleets' time for the same ticks, the
/// overhead reference.
fn traced_metrics(
    out: &mut Outcome,
    t: &Window,
    telem: &Telemetry,
    untraced_wall_s: f64,
    workers: usize,
) {
    let s = &t.summary;
    let [mut drain, mut advance, mut publish] = tick_phases(telem, t);
    let phase_us: [f64; 3] = [&drain, &advance, &publish].map(|v| v.iter().sum::<f64>());
    let calls = [&drain, &advance, &publish].map(|v| v.len() as u64);
    out.set("realtime.drain_p50_us", quantile(&mut drain, 0.50));
    out.set("realtime.drain_p99_us", quantile(&mut drain, 0.99));
    out.set("realtime.advance_p50_us", quantile(&mut advance, 0.50));
    out.set("realtime.advance_p99_us", quantile(&mut advance, 0.99));
    out.set("realtime.publish_p50_us", quantile(&mut publish, 0.50));
    out.set("realtime.publish_p99_us", quantile(&mut publish, 0.99));
    let mut wait: Vec<f64> = s.latency_us.iter().map(|&us| us as f64).collect();
    let wait_p50 = quantile(&mut wait, 0.50);
    out.set("realtime.apply_wait_p50_us", wait_p50);
    out.set("realtime.apply_wait_p99_us", quantile(&mut wait, 0.99));
    let mut cmd_ms: Vec<f64> = t.slices.iter().flat_map(|s| s.cmd_ms.iter().copied()).collect();
    out.set(
        "realtime.wire_overhead_p50_us",
        median(&mut cmd_ms) * 1e3 - wait_p50,
    );
    // tick counters over the window
    let (a, b) = (&t.first.stats, &t.last.stats);
    let published = b.frames_published - a.frames_published;
    let skips = b.publish_skips - a.publish_skips;
    let reclaimed = b.frames_reclaimed - a.frames_reclaimed;
    let fresh = b.frames_fresh - a.frames_fresh;
    out.set(
        "realtime.missed_tick_share",
        ratio((b.missed_ticks - a.missed_ticks) as f64, (b.tick - a.tick) as f64),
    );
    out.set(
        "realtime.publish_skip_share",
        ratio(skips as f64, (published + skips) as f64),
    );
    out.set(
        "realtime.frames_reclaimed_share",
        ratio(reclaimed as f64, (reclaimed + fresh) as f64),
    );
    out.set(
        "realtime.staleness_ticks_max",
        t.reader.staleness_max as f64,
    );
    out.set("realtime.shutdown_s", t.shutdown_s);
    let overhead = ratio(t.wall_s(), untraced_wall_s) - 1.0;

    // the tick thread's time in the window: three phases and the rest
    // (pacing, loop)
    let window_us = t.last.clock_us.saturating_sub(t.first.clock_us) as f64;
    let rows = ["realtime.drain", "realtime.advance", "realtime.publish"]
        .iter()
        .zip(phase_us.iter().zip(calls))
        .map(|(name, (&us, calls))| PhaseRow {
            name: name.to_string(),
            calls,
            self_us: us,
        })
        .collect();
    out.phases.push(PhaseTable {
        title: "tick-thread wall time in the window".into(),
        total_us: window_us,
        rows,
        trace_overhead_share: overhead,
    });

    // engine phases of the tenant advances, per tick. They run on the
    // pool's workers inside the advance phase, so their base is worker
    // time there; the rest is capsule resume and capture, pool hand-off
    // and idle workers.
    let mut spans = SpanTotals::default();
    spans.absorb_window(telem, t.first.clock_us..t.last.clock_us);
    let worker_us = phase_us[1] * workers as f64;
    let table = engine_table(
        "pool-worker time in realtime.advance",
        &spans,
        out,
        calls[1].max(1) as f64,
        worker_us,
        overhead,
    );
    out.phases.push(table);
    out.set(
        "mapreduce.steps",
        t.slices.iter().map(|s| s.steps).sum::<u64>() as f64,
    );
}
