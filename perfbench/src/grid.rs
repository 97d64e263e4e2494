//! `paper-grid`: the paper's 16-worker testbed as a figure-regeneration
//! grid. Cold cells are {HadoopV1, YARN, SMapReduce} × 13 PUMA paper
//! jobs × 3 trial seeds; beside them, ext-faults-style warm cells resume
//! `PrefixCache`-interned `prepare_warm` capsules under fault plans. Many
//! short runs make per-cell fixed costs dominate: prepare and DFS
//! placement, policy decisions, the audit, arena recycling, capsule
//! interning and pool scheduling.

use crate::report::{self, median, quantile, ratio, Outcome};
use crate::trace::{engine_table, CountingPolicy, PolicyCounts, SpanTotals, RUN_SPAN_CAPACITY};
use crate::{check_canary, fold_digest, observe_once, planned_passes, probe_in_child, time_once, timed_setups, within_cap, Ctx, SplitMix};
use harness::runner::{prepare_warm, trial_seed, CellRequest, System};
use mapreduce::auditor::{audit, fingerprint, AuditSetup};
use mapreduce::{Engine, EngineArena, EngineConfig, EngineState, JobSpec, RunReport};
use simgrid::cluster::NodeId;
use simgrid::error::SimError;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sweepengine::{BatchedSweep, PrefixCache, SweepCell, SweepOutcome};
use telemetry::Telemetry;
use workloads::Puma;

/// Seconds of one grid pass on the reference host ([`planned_passes`]).
const PASS_S: f64 = 2.9;
/// Trial seeds per grid point.
const SEEDS: u64 = 3;
/// Benchmarks of the warm (faulted) cells.
const WARM_BENCHES: [Puma; 2] = [Puma::HistogramRatings, Puma::Terasort];
/// Stand-in reads of the interned capsules per pass ([`observe_once`]).
const OBSERVES_PER_PASS: usize = 200;
/// Digest of the fixed canary grid ([`canary`]); changes only when the
/// model's results change.
const CANARY_DIGEST: u64 = 0x9b63_aa58_da10_eddf;

/// One grid cell's inputs, kept beside its [`CellRequest`] so the traced
/// run can drive the same cell through `Engine` with a counting policy.
struct CellSpec {
    cfg: EngineConfig,
    system: System,
    seed: u64,
    jobs: Vec<JobSpec>,
    warm: Option<Arc<EngineState>>,
    cold: bool,
}

impl CellSpec {
    fn request(&self) -> CellRequest {
        match &self.warm {
            Some(w) => CellRequest::warm(
                Arc::clone(w),
                self.cfg.clone(),
                self.system.clone(),
                self.seed,
            ),
            None => CellRequest::cold(
                self.cfg.clone(),
                self.jobs.clone(),
                self.system.clone(),
                self.seed,
            ),
        }
    }
}

/// A grid ready to run, plus what setting it up cost.
struct Grid {
    specs: Vec<CellSpec>,
    requests: Vec<CellRequest>,
    capsules: Vec<Arc<EngineState>>,
    jobgen_s: f64,
    prepare_s: f64,
    prepares: usize,
    intern_s: f64,
    dedup_hits: u64,
    nodes: f64,
}

/// Crash plans of the warm cells: none, one, and two transient crashes
/// on distinct nodes, on the 3 s heartbeat grid, node 0 spared, downtime
/// past the 30 s expiry.
fn fault_plans(rng: &mut SplitMix) -> Vec<FaultPlan> {
    let crash = |slot: u64, rng: &mut SplitMix| {
        NodeFault::transient(
            NodeId(1 + slot as usize),
            SimTime::from_millis(3000 * (10 + rng.below(60))),
            SimDuration::from_secs(120),
        )
    };
    let a = rng.below(15);
    let b = (a + 1 + rng.below(14)) % 15;
    let one = crash(rng.below(15), rng);
    let two = vec![crash(a, rng), crash(b, rng)];
    vec![
        FaultPlan::none(),
        FaultPlan::new(vec![one]),
        FaultPlan::new(two),
    ]
}

fn base_config() -> EngineConfig {
    let mut cfg = EngineConfig::paper_default();
    // as ext-faults: re-replication keeps ahead of the injected crashes
    cfg.rereplication_rate = 400.0;
    cfg
}

/// Build the grid for `seed`: job generation, warm-capsule preparation
/// and interning.
fn setup(seed: u64) -> Grid {
    let cfg = base_config();
    let t = Instant::now();
    let cold_jobs: Vec<JobSpec> = Puma::ALL.iter().map(|p| p.paper_job()).collect();
    let warm_jobs: Vec<JobSpec> = WARM_BENCHES.iter().map(|p| p.paper_job()).collect();
    let jobgen_s = t.elapsed().as_secs_f64();
    let seeds: Vec<u64> = (0..SEEDS).map(|t| trial_seed(seed, t)).collect();
    let plans = fault_plans(&mut SplitMix(seed ^ 0x9a9e_9a1d));

    let mut specs = Vec::new();
    for system in System::all() {
        for job in &cold_jobs {
            for &s in &seeds {
                specs.push(CellSpec {
                    cfg: cfg.clone(),
                    system: system.clone(),
                    seed: s,
                    jobs: vec![job.clone()],
                    warm: None,
                    cold: true,
                });
            }
        }
    }
    // every (job, seed, plan) point prepares its own prefix, as a sweep
    // grid in the harness does; the cache collapses the plans onto one capsule
    let cache = PrefixCache::new();
    let (mut prepare_s, mut intern_s, mut prepares) = (0.0, 0.0, 0);
    let mut capsules: Vec<Arc<EngineState>> = Vec::new();
    for job in &warm_jobs {
        for &s in &seeds {
            for plan in &plans {
                let t = Instant::now();
                let state = prepare_warm(&cfg, vec![job.clone()], s).expect("warm prepare");
                prepare_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let warm = cache.intern(state);
                intern_s += t.elapsed().as_secs_f64();
                prepares += 1;
                if !capsules.iter().any(|c| Arc::ptr_eq(c, &warm)) {
                    capsules.push(Arc::clone(&warm));
                }
                let mut cell_cfg = cfg.clone();
                cell_cfg.fault_plan = plan.clone();
                for system in System::all() {
                    specs.push(CellSpec {
                        cfg: cell_cfg.clone(),
                        system,
                        seed: s,
                        jobs: Vec::new(),
                        warm: Some(Arc::clone(&warm)),
                        cold: false,
                    });
                }
            }
        }
    }
    let requests = specs.iter().map(CellSpec::request).collect();
    Grid {
        specs,
        requests,
        capsules,
        jobgen_s,
        prepare_s,
        prepares,
        intern_s,
        dedup_hits: cache.dedup_hits(),
        nodes: cfg.cluster.workers as f64,
    }
}

/// A grid cell timed from pool claim to report.
struct Timed<'a> {
    cell: &'a CellRequest,
    ns: AtomicU64,
}

impl SweepCell for Timed<'_> {
    fn system(&self) -> &str {
        self.cell.system()
    }

    fn seed(&self) -> u64 {
        self.cell.seed()
    }

    fn run(&self, arena: &mut EngineArena) -> Result<RunReport, SimError> {
        let t = Instant::now();
        let report = self.cell.run(arena);
        self.ns
            .store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        report
    }
}

/// What a traced cell measured besides its report.
#[derive(Default)]
struct CellTrace {
    spans: SpanTotals,
    policy: PolicyCounts,
    run_ns: u64,
    audit_ns: u64,
}

/// A grid cell driven through `Engine` directly with telemetry on and a
/// counting policy, audited separately.
struct Traced<'a> {
    spec: &'a CellSpec,
    trace: Mutex<CellTrace>,
}

impl SweepCell for Traced<'_> {
    fn system(&self) -> &str {
        self.spec.system.label()
    }

    fn seed(&self) -> u64 {
        self.spec.seed
    }

    fn run(&self, arena: &mut EngineArena) -> Result<RunReport, SimError> {
        let spec = self.spec;
        let telem = Telemetry::with_capacity(RUN_SPAN_CAPACITY, 1 << 12);
        let mut policy = CountingPolicy::new(spec.system.make_policy());
        let mut cfg = spec.cfg.clone();
        cfg.seed = spec.seed;
        let setup = AuditSetup::from_config(&cfg);
        let t = Instant::now();
        let report = match &spec.warm {
            Some(warm) => {
                let mut state = (**warm).clone();
                state.override_config(cfg)?;
                state.override_policy(spec.system.label())?;
                Engine::resume_in(state, &mut policy, &telem, arena)
            }
            None => Engine::new(cfg).run_in(spec.jobs.clone(), &mut policy, &telem, arena),
        }?;
        let run_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let violations = audit(&report, &setup);
        let audit_ns = t.elapsed().as_nanos() as u64;
        let mut trace = self.trace.lock().expect("cell trace lock");
        trace.spans.absorb(&telem);
        trace.policy = policy.counts;
        trace.run_ns = run_ns;
        trace.audit_ns = audit_ns;
        if !violations.is_empty() {
            return Err(SimError::AuditFailed {
                violations: violations.iter().map(|v| v.to_string()).collect(),
            });
        }
        Ok(report)
    }
}

/// Per-pass results folded from a sweep outcome.
struct Pass {
    digest: u64,
    steps: u64,
    sim_s: f64,
    /// Mean makespan of SMapReduce over HadoopV1 across the cold cells.
    makespan_ratio: f64,
}

fn fold_pass(grid: &Grid, outcome: &SweepOutcome, out: &mut Outcome) -> Pass {
    let mut digest = 0u64;
    let (mut steps, mut sim_s) = (0u64, 0.0);
    let (mut smr, mut hadoop) = ((0.0, 0u32), (0.0, 0u32));
    for (i, (spec, result)) in grid.specs.iter().zip(&outcome.reports).enumerate() {
        out.attempted += 1;
        match result {
            Ok(report) => {
                digest = fold_digest(digest, fingerprint(report), report.steps);
                steps += report.steps;
                let makespan = report.makespan().as_secs_f64();
                sim_s += makespan;
                if spec.cold {
                    match spec.system {
                        System::SMapReduce => smr = (smr.0 + makespan, smr.1 + 1),
                        System::HadoopV1 => hadoop = (hadoop.0 + makespan, hadoop.1 + 1),
                        _ => {}
                    }
                }
            }
            Err(e) => out.fail(format!("cell {i} ({}): {e}", spec.system.label())),
        }
    }
    Pass {
        digest,
        steps,
        sim_s,
        makespan_ratio: ratio(
            smr.0 / smr.1.max(1) as f64,
            hadoop.0 / hadoop.1.max(1) as f64,
        ),
    }
}

/// The fixed canary grid: seed 0, two jobs cold under every system plus
/// one faulted warm cell per system. Its digest is recorded in
/// [`CANARY_DIGEST`].
fn canary(ctx: &Ctx, out: &mut Outcome) {
    let cfg = base_config();
    let mut cells = Vec::new();
    for system in System::all() {
        for p in [Puma::Grep, Puma::Terasort] {
            cells.push(CellRequest::cold(
                cfg.clone(),
                vec![p.paper_job()],
                system.clone(),
                0,
            ));
        }
    }
    let warm = Arc::new(
        prepare_warm(&cfg, vec![Puma::HistogramRatings.paper_job()], 0).expect("canary prepare"),
    );
    let mut faulted = cfg.clone();
    faulted.fault_plan = fault_plans(&mut SplitMix(0)).swap_remove(2);
    for system in System::all() {
        cells.push(CellRequest::warm(
            Arc::clone(&warm),
            faulted.clone(),
            system,
            0,
        ));
    }
    let outcome = harness::runner::run_cells_with(ctx.workers, &cells);
    let mut digest = 0u64;
    for r in &outcome.reports {
        match r {
            Ok(report) => digest = fold_digest(digest, fingerprint(report), report.steps),
            Err(e) => out.problem(format!("canary cell failed: {e}")),
        }
    }
    check_canary(out, digest, CANARY_DIGEST);
}

/// One timed set-up, for [`timed_setups`].
pub fn setup_probe(ctx: &Ctx) -> Result<f64, String> {
    Ok(time_once(|| setup(ctx.seed)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    canary(ctx, &mut out);

    timed_setups(&mut out, || probe_in_child(ctx));
    let grid = setup(ctx.seed);
    out.set("workloads.jobgen_ms", grid.jobgen_s * 1e3);
    out.set(
        "mapreduce.prepare_ms",
        grid.prepare_s * 1e3 / grid.prepares as f64,
    );
    out.set("sweepengine.intern_ms", grid.intern_s * 1e3);
    out.set(
        "sweepengine.dedup_hit_ratio",
        ratio(grid.dedup_hits as f64, grid.prepares as f64),
    );

    let pool = BatchedSweep::with_workers(ctx.workers);
    let mut expected: Option<u64> = None;
    let mut check = |out: &mut Outcome, digest: u64| match expected {
        None => expected = Some(digest),
        Some(e) if e != digest => {
            out.problem(format!("pass digest {digest:#x} != first pass {e:#x}"))
        }
        Some(_) => {}
    };
    report::reset_peak_rss();
    let mut m = Measured::default();
    let mut traced = TracedTotals::default();
    let started = Instant::now();
    let (mut passes, planned) = (0u64, planned_passes(ctx, PASS_S));
    while passes < planned && (passes < 2 || within_cap(ctx, started)) {
        passes += 1;
        // traced runs alternate untraced reference passes with traced ones
        if ctx.traced && passes.is_multiple_of(2) {
            let cells: Vec<Traced> = grid
                .specs
                .iter()
                .map(|spec| Traced {
                    spec,
                    trace: Mutex::new(CellTrace::default()),
                })
                .collect();
            let t = Instant::now();
            let outcome = pool.run(&cells);
            traced.wall_s += t.elapsed().as_secs_f64();
            traced.passes += 1;
            let digest = fold_pass(&grid, &outcome, &mut out).digest;
            check(&mut out, digest);
            for c in cells {
                let trace = c.trace.into_inner().expect("cell trace lock");
                traced.spans.merge(&trace.spans);
                traced.policy.add(trace.policy);
                traced.run_ns += trace.run_ns;
                traced.audit_ns += trace.audit_ns;
                traced.cells += 1;
            }
            continue;
        }
        let cells: Vec<Timed> = grid
            .requests
            .iter()
            .map(|cell| Timed {
                cell,
                ns: AtomicU64::new(0),
            })
            .collect();
        let t = Instant::now();
        let outcome = pool.run(&cells);
        let wall = t.elapsed().as_secs_f64();
        let pass = fold_pass(&grid, &outcome, &mut out);
        check(&mut out, pass.digest);
        m.passes += 1;
        m.wall_s += wall;
        m.cells += cells.len() as u64;
        m.node_steps += pass.steps as f64 * grid.nodes;
        m.sim_s += pass.sim_s;
        m.growth += outcome.stats.arena_growth_events;
        m.steps = pass.steps;
        m.makespan_ratio = pass.makespan_ratio;
        for c in &cells {
            let ms = c.ns.load(Ordering::Relaxed) as f64 / 1e6;
            m.busy_s += ms / 1e3;
            m.cell_ms.push(ms);
        }
        // reads: every interned cluster's observation in one reply, as a
        // client polling the grid would fetch them
        for _ in 0..OBSERVES_PER_PASS {
            m.observe_ms.push(observe_once(&grid.capsules));
        }
    }
    out.repeats = passes;
    out.samples = m.cell_ms.len() as u64;
    out.set("peak_rss_mb", report::peak_rss_mb());

    out.set("cells_per_s", m.cells as f64 / m.wall_s);
    out.set("ns_per_step_node", m.wall_s * 1e9 / m.node_steps);
    out.set("sim_s_per_wall_s", m.sim_s / m.wall_s);
    let max_cell_ms = quantile(&mut m.cell_ms, 1.0);
    out.set("cmd_p50_ms", quantile(&mut m.cell_ms, 0.50));
    out.set("cmd_p90_ms", quantile(&mut m.cell_ms, 0.90));
    out.set("observe_p50_ms", quantile(&mut m.observe_ms, 0.50));
    out.set("observe_p90_ms", quantile(&mut m.observe_ms, 0.90));
    out.set("sim_makespan_ratio", m.makespan_ratio);
    out.set("mapreduce.steps", m.steps as f64);
    out.set(
        "sweepengine.busy_share",
        m.busy_s / (ctx.workers as f64 * m.wall_s),
    );
    out.set("sweepengine.max_cell_ms", max_cell_ms);
    out.set(
        "sweepengine.arena_growth_events",
        m.growth as f64 / m.passes as f64,
    );

    if ctx.traced {
        let overhead = (traced.wall_s / traced.passes as f64) / (m.wall_s / m.passes as f64) - 1.0;
        let cells = traced.cells as f64;
        traced.policy.report(&mut out, traced.passes as f64);
        out.set("mapreduce.run_ms", traced.run_ns as f64 / 1e6 / cells);
        out.set("mapreduce.audit_ms", traced.audit_ns as f64 / 1e6 / cells);
        codec(&grid, &mut out);
        let table = engine_table(
            "engine run time of the traced cells",
            &traced.spans,
            &mut out,
            cells,
            traced.run_ns as f64 / 1e3,
            overhead,
        );
        out.phases.push(table);
    }
    out.set(
        "ops_failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

/// Totals over a run's untraced passes.
#[derive(Default)]
struct Measured {
    passes: u64,
    wall_s: f64,
    cells: u64,
    node_steps: f64,
    sim_s: f64,
    busy_s: f64,
    growth: u64,
    /// Steps of one pass (every pass repeats them exactly).
    steps: u64,
    makespan_ratio: f64,
    cell_ms: Vec<f64>,
    observe_ms: Vec<f64>,
}

/// Totals over a run's traced passes.
#[derive(Default)]
struct TracedTotals {
    passes: u64,
    wall_s: f64,
    cells: u64,
    run_ns: u64,
    audit_ns: u64,
    spans: SpanTotals,
    policy: PolicyCounts,
}

/// Capsule encode/decode of the grid's interned warm states; a decoded
/// capsule must carry the same state fingerprint.
fn codec(grid: &Grid, out: &mut Outcome) {
    let (mut enc, mut dec, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for state in &grid.capsules {
        let snap = checkpoint::SimSnapshot::new((**state).clone());
        let t = Instant::now();
        let bytes = checkpoint::to_bytes(&snap, checkpoint::CapsuleFormat::Binary);
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let back = checkpoint::from_bytes(Path::new("paper-grid capsule"), &bytes);
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        kb.push(bytes.len() as f64 / 1024.0);
        match back {
            Ok(s) if s.state.fingerprint() == state.fingerprint() => {}
            Ok(_) => out.problem("capsule round trip changed the state".into()),
            Err(e) => out.problem(format!("capsule decode failed: {e}")),
        }
    }
    out.set("checkpoint.encode_ms", median(&mut enc));
    out.set("checkpoint.decode_ms", median(&mut dec));
    out.set("checkpoint.capsule_kb", median(&mut kb));
}
