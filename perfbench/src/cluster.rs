//! `big-cluster`: weak-scaled, shuffle-heavy single jobs on 1024
//! paper-spec nodes. TeraSort and SelfJoin at 2 blocks per node with 64
//! reduces, under each system; the YARN TeraSort run carries a node
//! crash/rejoin plan. Runs go one at a time on one thread through
//! `Engine::run_in` with a recycled arena, so per-step, per-node substrate
//! work dominates and the sweep pool and the service are bypassed.

use crate::report::{self, quantile, ratio, Outcome};
use crate::trace::{engine_table, CountingPolicy, PolicyCounts, SpanTotals, RUN_SPAN_CAPACITY};
use crate::{check_canary, fold_digest, observe_once, planned_passes, probe_in_child, time_once, timed_setups, within_cap, Ctx, SplitMix};
use harness::runner::System;
use mapreduce::auditor::{audit, fingerprint, AuditSetup};
use mapreduce::engine::EngineConfigBuilder;
use mapreduce::policy::SlotPolicy;
use mapreduce::{Engine, EngineArena, EngineConfig, EngineState, JobSpec};
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use std::time::Instant;
use telemetry::Telemetry;
use workloads::Puma;

const NODES: usize = 1024;
/// Seconds of one round of runs on the reference host
/// ([`planned_passes`]).
const PASS_S: f64 = 10.0;
/// HDFS blocks of input per node (weak scaling).
const BLOCKS_PER_NODE: f64 = 2.0;
const REDUCES: usize = 64;
/// Stand-in `observe` reads of the prepared states after each run
/// ([`observe_once`]).
const OBSERVES_PER_RUN: usize = 100;
/// Digest of the fixed canary runs ([`canary`]).
const CANARY_DIGEST: u64 = 0x5116_fa4c_4265_e934;

/// One run of a pass.
struct RunSpec {
    cfg: EngineConfig,
    job: JobSpec,
    system: System,
    faulted: bool,
}

/// The pass's runs and prepared states, plus what setting up cost.
struct Runs {
    runs: Vec<RunSpec>,
    prepared: Vec<EngineState>,
    jobgen_s: f64,
    prepare_s: f64,
}

fn setup(nodes: usize, seed: u64) -> Runs {
    let mut rng = SplitMix(seed ^ 0xb16c_1a57);
    let cfg = EngineConfigBuilder::paper()
        .workers(nodes)
        .seed(rng.next_u64())
        .build();
    let t = Instant::now();
    let input_mb = nodes as f64 * BLOCKS_PER_NODE * cfg.block_mb;
    let jobs: Vec<JobSpec> = [Puma::Terasort, Puma::SelfJoin]
        .iter()
        .map(|p| p.job(0, input_mb, REDUCES, SimTime::ZERO))
        .collect();
    let jobgen_s = t.elapsed().as_secs_f64();
    let mut faulted_cfg = cfg.clone();
    faulted_cfg.fault_plan = FaultPlan::new(vec![NodeFault::transient(
        NodeId(1 + rng.below(nodes as u64 - 1) as usize),
        SimTime::from_millis(3000 * (10 + rng.below(30))),
        SimDuration::from_secs(60),
    )]);
    let t = Instant::now();
    let prepared = jobs
        .iter()
        .map(|job| {
            Engine::new(cfg.clone())
                .prepare(vec![job.clone()])
                .expect("prepare")
        })
        .collect();
    let prepare_s = t.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        for system in System::all() {
            let faulted = j == 0 && matches!(system, System::Yarn);
            runs.push(RunSpec {
                cfg: if faulted {
                    faulted_cfg.clone()
                } else {
                    cfg.clone()
                },
                job: job.clone(),
                system,
                faulted,
            });
        }
    }
    Runs {
        runs,
        prepared,
        jobgen_s,
        prepare_s,
    }
}

/// What one audited run produced.
struct RunResult {
    fingerprint: u64,
    steps: u64,
    makespan_s: f64,
    /// Engine time, audit excluded.
    engine_ns: u64,
}

/// One run, audited (the audit's time is added to `audit_ns`).
fn run_one(
    spec: &RunSpec,
    policy: &mut dyn SlotPolicy,
    telem: &Telemetry,
    arena: &mut EngineArena,
    audit_ns: &mut u64,
) -> Result<RunResult, String> {
    let t = Instant::now();
    let report = Engine::new(spec.cfg.clone())
        .run_in(vec![spec.job.clone()], policy, telem, arena)
        .map_err(|e| e.to_string())?;
    let engine_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let violations = audit(&report, &AuditSetup::from_config(&spec.cfg));
    *audit_ns += t.elapsed().as_nanos() as u64;
    if !violations.is_empty() {
        return Err(format!("audit: {}", violations[0]));
    }
    Ok(RunResult {
        fingerprint: fingerprint(&report),
        steps: report.steps,
        makespan_s: report.makespan().as_secs_f64(),
        engine_ns,
    })
}

/// The fixed canary: the same run types at 64 nodes, seed 0.
fn canary(out: &mut Outcome) {
    let runs = setup(64, 0);
    let mut arena = EngineArena::new();
    let mut digest = 0u64;
    for spec in &runs.runs {
        let mut policy = spec.system.make_policy();
        match run_one(
            spec,
            policy.as_mut(),
            &Telemetry::disabled(),
            &mut arena,
            &mut 0,
        ) {
            Ok(r) => digest = fold_digest(digest, r.fingerprint, r.steps),
            Err(e) => out.problem(format!("canary run failed: {e}")),
        }
    }
    check_canary(out, digest, CANARY_DIGEST);
}

/// One timed set-up, for [`timed_setups`].
pub fn setup_probe(ctx: &Ctx) -> Result<f64, String> {
    Ok(time_once(|| setup(NODES, ctx.seed)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    canary(&mut out);

    timed_setups(&mut out, || probe_in_child(ctx));
    let runs = setup(NODES, ctx.seed);
    out.set("workloads.jobgen_ms", runs.jobgen_s * 1e3);
    out.set(
        "mapreduce.prepare_ms",
        runs.prepare_s * 1e3 / runs.prepared.len() as f64,
    );

    report::reset_peak_rss();
    let mut arena = EngineArena::new();
    let mut first: Vec<Option<(u64, u64)>> = vec![None; runs.runs.len()];
    let (mut run_ms, mut observe_ms) = (Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut untraced_runs, mut node_steps, mut sim_s) = (0u64, 0.0, 0.0);
    let mut spans = SpanTotals::default();
    let mut policy_counts = PolicyCounts::default();
    let (mut traced_runs, mut traced_run_ns, mut audit_ns) = (0u64, 0u64, 0u64);
    let (mut steps_per_pass, mut makespan_ratio) = (0u64, 0.0);

    let started = Instant::now();
    let (mut passes, planned) = (0u64, planned_passes(ctx, PASS_S));
    while passes < planned && (passes < 2 || within_cap(ctx, started)) {
        passes += 1;
        let traced = ctx.traced && passes.is_multiple_of(2);
        let (mut pass_s, mut pass_steps, mut pass_sim) = (0.0, 0u64, 0.0);
        let (mut smr, mut hadoop) = (0.0, 0.0);
        for (i, spec) in runs.runs.iter().enumerate() {
            out.attempted += 1;
            let telem = if traced {
                Telemetry::with_capacity(RUN_SPAN_CAPACITY, 1 << 12)
            } else {
                Telemetry::disabled()
            };
            let mut counting = traced.then(|| CountingPolicy::new(spec.system.make_policy()));
            let mut plain = spec.system.make_policy();
            let policy: &mut dyn SlotPolicy = match counting.as_mut() {
                Some(c) => c,
                None => plain.as_mut(),
            };
            let t = Instant::now();
            let result = run_one(spec, policy, &telem, &mut arena, &mut audit_ns);
            let wall = t.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    let key = (r.fingerprint, r.steps);
                    match first[i] {
                        None => first[i] = Some(key),
                        Some(f) if f != key => {
                            out.fail(format!("run {i} repeat diverged: {key:?} != {f:?}"))
                        }
                        Some(_) => {}
                    }
                    pass_steps += r.steps;
                    pass_sim += r.makespan_s;
                    if traced {
                        traced_run_ns += r.engine_ns;
                    }
                    if !spec.faulted {
                        match spec.system {
                            System::SMapReduce => smr += r.makespan_s,
                            System::HadoopV1 => hadoop += r.makespan_s,
                            _ => {}
                        }
                    }
                }
                Err(e) => out.fail(format!("run {i} ({}): {e}", spec.system.label())),
            }
            pass_s += wall;
            if traced {
                spans.absorb(&telem);
                traced_runs += 1;
            } else {
                run_ms.push(wall * 1e3);
                for k in 0..OBSERVES_PER_RUN {
                    let state = &runs.prepared[k % runs.prepared.len()];
                    observe_ms.push(observe_once(std::slice::from_ref(state)));
                }
            }
            if let Some(c) = &counting {
                policy_counts.add(c.counts);
            }
        }
        if traced {
            traced_s += pass_s;
            continue;
        }
        untraced_s += pass_s;
        untraced_runs += runs.runs.len() as u64;
        node_steps += pass_steps as f64 * NODES as f64;
        sim_s += pass_sim;
        steps_per_pass = pass_steps;
        makespan_ratio = ratio(smr, hadoop);
    }
    out.repeats = passes;
    out.samples = run_ms.len() as u64;
    out.set("peak_rss_mb", report::peak_rss_mb());

    out.set("cells_per_s", untraced_runs as f64 / untraced_s);
    out.set("ns_per_step_node", untraced_s * 1e9 / node_steps);
    out.set("sim_s_per_wall_s", sim_s / untraced_s);
    out.set("cmd_p50_ms", quantile(&mut run_ms.clone(), 0.50));
    out.set("cmd_p90_ms", quantile(&mut run_ms, 0.90));
    out.set("observe_p50_ms", quantile(&mut observe_ms, 0.50));
    out.set("observe_p90_ms", quantile(&mut observe_ms, 0.90));
    out.set("sim_makespan_ratio", makespan_ratio);
    out.set("mapreduce.steps", steps_per_pass as f64);
    out.set(
        "sweepengine.arena_growth_events",
        arena.growth_events() as f64,
    );
    if ctx.traced {
        let untraced_passes = (passes - passes / 2) as f64;
        let traced_passes = (passes / 2) as f64;
        let overhead = (traced_s / traced_passes) / (untraced_s / untraced_passes) - 1.0;
        policy_counts.report(&mut out, traced_passes);
        out.set(
            "mapreduce.run_ms",
            traced_run_ns as f64 / 1e6 / traced_runs as f64,
        );
        out.set(
            "mapreduce.audit_ms",
            audit_ns as f64 / 1e6 / out.attempted as f64,
        );
        let table = engine_table(
            "engine run time of the traced runs",
            &spans,
            &mut out,
            traced_runs as f64,
            traced_run_ns as f64 / 1e3,
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
