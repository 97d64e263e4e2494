//! End-of-run invariant auditor.
//!
//! A simulator that silently drifts out of self-consistency produces
//! figures that *look* fine. The auditor closes that hole: after a run it
//! replays the [`crate::events::EventLog`] against the
//! [`crate::counters::CounterLedger`]s and the report's scalar fields and
//! checks every conservation law the engine is supposed to obey — every
//! launched attempt reaches a terminal event, shuffle bytes fetched match
//! map-output bytes served (modulo fault re-execution), slot occupancy
//! never exceeds what the trackers offered, and counters are pure
//! functions of the seed. Any [`Violation`] is a simulator bug, never a
//! property of the workload; the harness turns a non-empty violation list
//! into [`simgrid::SimError::AuditFailed`] so a broken figure cannot be
//! committed quietly.
//!
//! Counter-only invariants run on every report; event-replay invariants
//! additionally need [`crate::EngineConfig::record_events`] and are skipped
//! (not failed) on reports without an event log.

use crate::counters::{Counter, CounterLedger};
use crate::engine::{fnv1a, EngineConfig, FNV_OFFSET};
use crate::events::Event;
use crate::report::RunReport;
use std::fmt;

/// Tolerance for MB-denominated conservation checks: generous against
/// float accumulation over hundreds of thousands of integration steps,
/// negligible against any real accounting bug (whole blocks are ≥ 1 MB).
fn eps(scale: f64) -> f64 {
    1e-6 * scale.abs().max(1.0)
}

/// Counters that count discrete things and must therefore hold exact
/// non-negative integers.
const INTEGER_COUNTERS: [Counter; 10] = [
    Counter::TotalLaunchedMaps,
    Counter::DataLocalMaps,
    Counter::RemoteMaps,
    Counter::TotalLaunchedReduces,
    Counter::KilledAttempts,
    Counter::KilledReduces,
    Counter::FailedMaps,
    Counter::DiscardedMaps,
    Counter::SpeculativeMaps,
    Counter::ReexecutedMaps,
];

/// The run-independent facts the auditor cannot recover from the report
/// itself: the initial per-tracker slot targets the event replay starts
/// from, and the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSetup {
    pub init_map_slots: usize,
    pub init_reduce_slots: usize,
    pub workers: usize,
}

impl AuditSetup {
    pub fn from_config(cfg: &EngineConfig) -> AuditSetup {
        AuditSetup {
            init_map_slots: cfg.init_map_slots,
            init_reduce_slots: cfg.init_reduce_slots,
            workers: cfg.cluster.workers,
        }
    }
}

/// One broken invariant: which law, and the numbers that break it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Order-sensitive FNV-1a over every counter value's exact bit pattern,
/// per job and cluster-wide. Two runs of the same seed must produce the
/// same fingerprint — the "counters byte-identical across reruns"
/// determinism invariant, cheap enough to assert anywhere.
pub fn fingerprint(report: &RunReport) -> u64 {
    let job_counters = report.jobs.iter().flat_map(|j| j.counters.iter());
    report
        .counters
        .iter()
        .chain(job_counters)
        .fold(FNV_OFFSET, |h, (_, v)| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// Per-step wall-clock budgets (µs) for the engine's hot phases. The
/// spans already exist (`step/allocate_nodes`, `step/network_allocate`,
/// `step/event_horizon`, `step/advance_maps`, `step/advance_reduces`);
/// this gates their *means* so a phase regressing from O(nodes) to
/// O(nodes²) fails an audit instead of quietly stretching wall time.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBudget {
    /// Mean per-step cost of the allocate phase: `allocate_nodes` (node
    /// contention scaling) plus `network_allocate`, which covers the flow
    /// build (remote map reads and every shuffling reduce's fetch-source
    /// selection) *and* the fabric water-filling over those flows.
    pub allocate_us: f64,
    /// Mean per-step cost of the event-horizon search (`event_horizon`;
    /// adaptive mode only — fixed-tick runs record no horizon spans and
    /// the check is skipped).
    pub horizon_us: f64,
    /// Mean per-step cost of the integrate phase:
    /// `advance_maps + advance_reduces`.
    pub integrate_us: f64,
}

impl PhaseBudget {
    /// A generous default for CI-grade hardware at testbed scale
    /// (16–64 nodes): each phase is single-digit µs per step warm, so a
    /// 10× margin still catches any complexity-class regression.
    pub fn default_gate() -> PhaseBudget {
        PhaseBudget {
            allocate_us: 150.0,
            horizon_us: 100.0,
            integrate_us: 150.0,
        }
    }

    /// The default gate with every budget scaled by `factor` — larger
    /// clusters get proportionally larger (still per-step) budgets.
    pub fn scaled(factor: f64) -> PhaseBudget {
        let base = PhaseBudget::default_gate();
        PhaseBudget {
            allocate_us: base.allocate_us * factor,
            horizon_us: base.horizon_us * factor,
            integrate_us: base.integrate_us * factor,
        }
    }
}

/// Mean per-step span costs actually observed (µs), as paired with a
/// [`PhaseBudget`] by [`audit_phase_spans`]. `horizon_us` is `None` when
/// no horizon spans were recorded (fixed-tick mode).
#[derive(Debug, Clone, Copy)]
pub struct PhaseMeans {
    pub allocate_us: f64,
    pub horizon_us: Option<f64>,
    pub integrate_us: f64,
    /// Steps covered by the recorded spans (the span ring is bounded, so
    /// this may be fewer than the run's total steps; means stay unbiased
    /// because the ring keeps a contiguous suffix of the run).
    pub steps_covered: u64,
}

/// Aggregate the engine's phase spans out of `telem` into per-step means.
/// Returns `None` when telemetry is disabled or no allocate spans were
/// recorded (nothing ran, or the sink was detached).
pub fn phase_means(telem: &telemetry::Telemetry) -> Option<PhaseMeans> {
    let (alloc, hor, integ, n_alloc, n_hor, n_int) = telem.with_spans(|spans| {
        let (mut alloc, mut hor, mut integ) = (0u64, 0u64, 0u64);
        let (mut n_alloc, mut n_hor, mut n_int) = (0u64, 0u64, 0u64);
        for s in spans {
            match (s.cat, s.name) {
                ("step", "allocate_nodes") | ("step", "network_allocate") => {
                    alloc += s.dur_us;
                    n_alloc += 1;
                }
                ("step", "event_horizon") => {
                    hor += s.dur_us;
                    n_hor += 1;
                }
                ("step", "advance_maps") | ("step", "advance_reduces") => {
                    integ += s.dur_us;
                    n_int += 1;
                }
                _ => {}
            }
        }
        (alloc, hor, integ, n_alloc, n_hor, n_int)
    })?;
    if n_alloc == 0 || n_int == 0 {
        return None;
    }
    // allocate_nodes + network_allocate (and advance_maps +
    // advance_reduces) are each recorded once per step, so half the span
    // count is the number of steps the ring still covers.
    let steps_covered = n_alloc / 2;
    Some(PhaseMeans {
        allocate_us: alloc as f64 / (n_alloc as f64 / 2.0),
        horizon_us: (n_hor > 0).then(|| hor as f64 / n_hor as f64),
        integrate_us: integ as f64 / (n_int as f64 / 2.0),
        steps_covered,
    })
}

/// Gate the per-step mean wall cost of the engine's phase spans against a
/// [`PhaseBudget`]. Telemetry must have been enabled for the run; a
/// disabled sink (no spans at all) is itself a violation, so the gate
/// cannot silently pass by measuring nothing.
pub fn audit_phase_spans(telem: &telemetry::Telemetry, budget: &PhaseBudget) -> Vec<Violation> {
    let mut v = Vec::new();
    let Some(means) = phase_means(telem) else {
        push(
            &mut v,
            "phase_budget",
            "no phase spans recorded: run the gated run with telemetry enabled".into(),
        );
        return v;
    };
    let mut check = |phase: &'static str, mean: f64, budget_us: f64| {
        if mean > budget_us {
            push(
                &mut v,
                "phase_budget",
                format!(
                    "{phase} mean {mean:.2} µs/step exceeds budget {budget_us:.2} µs \
                     (over {} steps)",
                    means.steps_covered
                ),
            );
        }
    };
    check("allocate", means.allocate_us, budget.allocate_us);
    if let Some(hor) = means.horizon_us {
        check("event_horizon", hor, budget.horizon_us);
    }
    check("integrate", means.integrate_us, budget.integrate_us);
    v
}

/// Check every invariant; empty result means the report is self-consistent.
pub fn audit(report: &RunReport, setup: &AuditSetup) -> Vec<Violation> {
    let mut v = Vec::new();
    audit_counters(report, &mut v);
    if !report.events.is_empty() {
        audit_events(report, setup, &mut v);
    }
    audit_utilization(report, setup, &mut v);
    v
}

fn push(v: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    v.push(Violation { invariant, detail });
}

fn audit_counters(report: &RunReport, v: &mut Vec<Violation>) {
    let mut merged = CounterLedger::new();
    for (ji, j) in report.jobs.iter().enumerate() {
        let c = &j.counters;
        merged.merge(c);
        for ic in INTEGER_COUNTERS {
            let x = c.get(ic);
            if x < 0.0 || x.fract() != 0.0 {
                push(
                    v,
                    "integer-counter",
                    format!(
                        "job {ji}: {} = {x} is not a non-negative integer",
                        ic.name()
                    ),
                );
            }
        }
        // every map attempt launched somewhere, every block at least once
        let total = c.get(Counter::TotalLaunchedMaps);
        let local = c.get(Counter::DataLocalMaps);
        let remote = c.get(Counter::RemoteMaps);
        if local + remote != total {
            push(
                v,
                "launch-partition",
                format!(
                    "job {ji}: DATA_LOCAL_MAPS {local} + REMOTE_MAPS {remote} \
                     != TOTAL_LAUNCHED_MAPS {total}"
                ),
            );
        }
        if total < j.num_maps as f64 {
            push(
                v,
                "launch-coverage",
                format!(
                    "job {ji}: {total} map launches cannot cover {} map tasks",
                    j.num_maps
                ),
            );
        }
        if c.get(Counter::TotalLaunchedReduces) < j.num_reduces as f64 {
            push(
                v,
                "launch-coverage",
                format!(
                    "job {ji}: {} reduce launches cannot cover {} reduce tasks",
                    c.get(Counter::TotalLaunchedReduces),
                    j.num_reduces
                ),
            );
        }
        // local_map_fraction is a pure function of the counters
        let expect = if total <= 0.0 { 1.0 } else { local / total };
        if (j.local_map_fraction - expect).abs() > 1e-12 {
            push(
                v,
                "locality-fraction",
                format!(
                    "job {ji}: local_map_fraction {} != DATA_LOCAL_MAPS/TOTAL {expect}",
                    j.local_map_fraction
                ),
            );
        }
        // a finished job consumed every input block at least once
        if c.get(Counter::HdfsBytesRead) < j.input_mb - eps(j.input_mb) {
            push(
                v,
                "input-coverage",
                format!(
                    "job {ji}: HDFS_BYTES_READ {} < input {} MB",
                    c.get(Counter::HdfsBytesRead),
                    j.input_mb
                ),
            );
        }
        // map output served == output surviving + output destroyed by crashes
        let produced = c.get(Counter::MapOutputMb);
        let lost = c.get(Counter::LostMapOutputMb);
        if (produced - lost - j.shuffle_mb).abs() > eps(produced) {
            push(
                v,
                "output-conservation",
                format!(
                    "job {ji}: MAP_OUTPUT_MB {produced} - LOST_MAP_OUTPUT_MB {lost} \
                     != shuffle_mb {}",
                    j.shuffle_mb
                ),
            );
        }
        // shuffle conservation: fetched == served, except that killed
        // reduces re-fetch their partition and re-executed maps are
        // partially double-fetched — both bounded, and both require a
        // fault to have happened
        let fetched = c.get(Counter::ShuffleFetchedMb);
        let delta = fetched - j.shuffle_mb;
        let killed_reduces = c.get(Counter::KilledReduces);
        let refetch_bound = lost
            + if j.num_reduces > 0 {
                produced / j.num_reduces as f64 * killed_reduces
            } else {
                0.0
            };
        if delta < -eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_FETCHED_MB {fetched} < shuffle_mb {} — \
                     a reduce finished without its partition",
                    j.shuffle_mb
                ),
            );
        } else if delta > refetch_bound + eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_FETCHED_MB {fetched} exceeds shuffle_mb {} \
                     by {delta} — more than faults can explain ({refetch_bound})",
                    j.shuffle_mb
                ),
            );
        } else if delta > eps(fetched) && c.get(Counter::ReexecutedMaps) + killed_reduces == 0.0 {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_FETCHED_MB over-count {delta} with no \
                     re-executed maps or killed reduces to cause it"
                ),
            );
        }
        if c.get(Counter::ShuffleRemoteMb) > fetched + eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_REMOTE_MB {} > SHUFFLE_FETCHED_MB {fetched}",
                    c.get(Counter::ShuffleRemoteMb)
                ),
            );
        }
        // spill convention: map-side + reduce-side, fed at independent
        // sites so a missed feed breaks the identity
        let spilled = c.get(Counter::SpilledRecords);
        if (spilled - produced - fetched).abs() > eps(spilled) {
            push(
                v,
                "spill-identity",
                format!(
                    "job {ji}: SPILLED_RECORDS {spilled} != MAP_OUTPUT_MB {produced} \
                     + SHUFFLE_FETCHED_MB {fetched}"
                ),
            );
        }
    }

    // the cluster ledger is exactly the merge of the job ledgers
    for (c, total) in report.counters.iter() {
        if total.to_bits() != merged.get(c).to_bits() {
            push(
                v,
                "cluster-merge",
                format!(
                    "cluster {} = {total} is not the merge of job ledgers ({})",
                    c.name(),
                    merged.get(c)
                ),
            );
        }
    }

    // counters vs the report's independently-maintained scalar fields
    let scalar_checks: [(&'static str, f64, f64); 3] = [
        (
            "FAILED_MAPS vs map_failures",
            merged.get(Counter::FailedMaps),
            report.map_failures as f64,
        ),
        (
            "SPECULATIVE_MAPS vs speculative_attempts",
            merged.get(Counter::SpeculativeMaps),
            report.speculative_attempts as f64,
        ),
        (
            "REEXECUTED_MAPS vs lost_map_outputs",
            merged.get(Counter::ReexecutedMaps),
            report.lost_map_outputs as f64,
        ),
    ];
    for (what, a, b) in scalar_checks {
        if a != b {
            push(v, "scalar-crosscheck", format!("{what}: {a} != {b}"));
        }
    }
    let killed = merged.get(Counter::KilledAttempts);
    let crash = report.crash_task_kills as f64;
    let spec = report.speculative_attempts as f64;
    if killed < crash || killed > crash + spec {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "KILLED_ATTEMPTS {killed} outside [crash_task_kills {crash}, \
                 crash + speculative {}]",
                crash + spec
            ),
        );
    }
    let hdfs = merged.get(Counter::HdfsBytesRead);
    if (hdfs - report.map_input_processed_mb).abs() > eps(hdfs) {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "Σ HDFS_BYTES_READ {hdfs} != map_input_processed_mb {}",
                report.map_input_processed_mb
            ),
        );
    }
    // remote reads + remote shuffle ride the fabric; re-replication
    // traffic also counts toward network_mb, hence ≤ not ==
    let fabric = merged.get(Counter::RemoteBytesRead) + merged.get(Counter::ShuffleRemoteMb);
    if fabric > report.network_mb + eps(fabric) {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "REMOTE_BYTES_READ + SHUFFLE_REMOTE_MB = {fabric} > network_mb {}",
                report.network_mb
            ),
        );
    }
    if !(0.0..=1.0 + 1e-9).contains(&report.cpu_utilisation) {
        push(
            v,
            "scalar-crosscheck",
            format!("cpu_utilisation {} outside [0, 1]", report.cpu_utilisation),
        );
    }
}

/// Replay the event log: per-task attempt balance, per-node slot
/// occupancy against the launch gate, and event counts against counters.
fn audit_events(report: &RunReport, setup: &AuditSetup, v: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let events = report.events.events();

    // --- per-task attempt balance -----------------------------------
    // (launches, terminals, completions) per map task / reduce task
    let mut maps: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();
    let mut reduces: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();

    // --- per-node slot replay ---------------------------------------
    let n = setup.workers;
    let mut map_occ = vec![0i64; n];
    let mut red_occ = vec![0i64; n];
    let mut map_tgt = vec![setup.init_map_slots as i64; n];
    let mut red_tgt = vec![setup.init_reduce_slots as i64; n];
    let mut map_high = map_tgt.clone();
    let mut red_high = red_tgt.clone();
    // slot-seconds occupied / offered (at the high-water target)
    let mut occ_secs = 0.0;
    let mut avail_secs = 0.0;
    let mut last_t = None::<simgrid::time::SimTime>;

    // event-count vs counter cross-checks
    let (mut launches, mut map_kills, mut red_kills, mut fails, mut discards, mut relost) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);

    for e in events {
        let t = e.at();
        if let Some(prev) = last_t {
            let dt = t.since(prev).as_secs_f64();
            for i in 0..n {
                occ_secs += (map_occ[i] + red_occ[i]) as f64 * dt;
                avail_secs += (map_high[i] + red_high[i]) as f64 * dt;
            }
        }
        last_t = Some(t);
        match *e {
            Event::MapLaunched { id, node, .. } => {
                launches += 1;
                maps.entry((id.job.0, id.index)).or_default().0 += 1;
                if map_occ[node.0] >= map_tgt[node.0] {
                    push(
                        v,
                        "slot-launch-gate",
                        format!(
                            "map launch at {t} on node {} with {}/{} slots occupied",
                            node.0, map_occ[node.0], map_tgt[node.0]
                        ),
                    );
                }
                map_occ[node.0] += 1;
            }
            Event::MapCompleted { id, node, .. } => {
                let s = maps.entry((id.job.0, id.index)).or_default();
                s.1 += 1;
                s.2 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapKilled { id, node, .. } => {
                map_kills += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapFailed { id, node, .. } => {
                fails += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapDiscarded { id, node, .. } => {
                discards += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::ReduceLaunched { id, node, .. } => {
                reduces.entry((id.job.0, id.partition)).or_default().0 += 1;
                if red_occ[node.0] >= red_tgt[node.0] {
                    push(
                        v,
                        "slot-launch-gate",
                        format!(
                            "reduce launch at {t} on node {} with {}/{} slots occupied",
                            node.0, red_occ[node.0], red_tgt[node.0]
                        ),
                    );
                }
                red_occ[node.0] += 1;
            }
            Event::ReduceCompleted { id, node, .. } => {
                let s = reduces.entry((id.job.0, id.partition)).or_default();
                s.1 += 1;
                s.2 += 1;
                red_occ[node.0] -= 1;
            }
            Event::ReduceKilled { id, node, .. } => {
                red_kills += 1;
                reduces.entry((id.job.0, id.partition)).or_default().1 += 1;
                red_occ[node.0] -= 1;
            }
            Event::SlotTargetsChanged {
                node,
                map_slots,
                reduce_slots,
                ..
            } => {
                map_tgt[node.0] = map_slots as i64;
                red_tgt[node.0] = reduce_slots as i64;
                map_high[node.0] = map_high[node.0].max(map_slots as i64);
                red_high[node.0] = red_high[node.0].max(reduce_slots as i64);
            }
            Event::NodeRejoined { node, .. } => {
                // re-registration: fresh empty slot sets at initial targets
                if map_occ[node.0] != 0 || red_occ[node.0] != 0 {
                    push(
                        v,
                        "slot-balance",
                        format!(
                            "node {} rejoined at {t} with {} map / {} reduce \
                             attempts unaccounted",
                            node.0, map_occ[node.0], red_occ[node.0]
                        ),
                    );
                }
                map_tgt[node.0] = setup.init_map_slots as i64;
                red_tgt[node.0] = setup.init_reduce_slots as i64;
                map_high[node.0] = map_high[node.0].max(map_tgt[node.0]);
                red_high[node.0] = red_high[node.0].max(red_tgt[node.0]);
            }
            Event::MapOutputLost { .. } => relost += 1,
            Event::ShuffleCompleted { .. }
            | Event::BarrierCrossed { .. }
            | Event::JobFinished { .. }
            | Event::NodeCrashed { .. }
            | Event::TrackerBlacklisted { .. } => {}
        }
        for i in 0..n {
            if map_occ[i] < 0 || red_occ[i] < 0 {
                push(
                    v,
                    "slot-balance",
                    format!(
                        "node {i} occupancy went negative at {t} \
                         (terminal event without a matching launch)"
                    ),
                );
                map_occ[i] = map_occ[i].max(0);
                red_occ[i] = red_occ[i].max(0);
            }
            if map_occ[i] > map_high[i] || red_occ[i] > red_high[i] {
                push(
                    v,
                    "slot-balance",
                    format!(
                        "node {i} occupancy {}m/{}r above its high-water target \
                         {}m/{}r at {t}",
                        map_occ[i], red_occ[i], map_high[i], red_high[i]
                    ),
                );
            }
        }
    }

    // every launched attempt reached a terminal event; every task ran
    for ((job, index), (l, term, comp)) in &maps {
        if l != term {
            push(
                v,
                "attempt-coverage",
                format!("map task {job}/{index}: {l} launches but {term} terminal events"),
            );
        }
        if *comp == 0 {
            push(
                v,
                "attempt-coverage",
                format!("map task {job}/{index} never completed"),
            );
        }
    }
    for ((job, part), (l, term, comp)) in &reduces {
        if l != term {
            push(
                v,
                "attempt-coverage",
                format!("reduce {job}/{part}: {l} launches but {term} terminal events"),
            );
        }
        if *comp != 1 {
            push(
                v,
                "attempt-coverage",
                format!("reduce {job}/{part} completed {comp} times (expected exactly 1)"),
            );
        }
    }
    // a run's slots can't do more slot-seconds of work than were offered
    if occ_secs > avail_secs + 1e-6 {
        push(
            v,
            "slot-seconds",
            format!("{occ_secs} slot-seconds occupied > {avail_secs} offered"),
        );
    }

    // event counts vs counters: the log and the ledgers are maintained by
    // different code paths and must agree exactly
    let c = &report.counters;
    let count_checks: [(&'static str, u64, f64); 6] = [
        (
            "MapLaunched vs TOTAL_LAUNCHED_MAPS",
            launches,
            c.get(Counter::TotalLaunchedMaps),
        ),
        (
            "MapFailed vs FAILED_MAPS",
            fails,
            c.get(Counter::FailedMaps),
        ),
        (
            "MapDiscarded vs DISCARDED_MAPS",
            discards,
            c.get(Counter::DiscardedMaps),
        ),
        (
            "ReduceKilled vs KILLED_REDUCES",
            red_kills,
            c.get(Counter::KilledReduces),
        ),
        (
            "Map+ReduceKilled vs KILLED_ATTEMPTS",
            map_kills + red_kills,
            c.get(Counter::KilledAttempts),
        ),
        (
            "MapOutputLost vs REEXECUTED_MAPS",
            relost,
            c.get(Counter::ReexecutedMaps),
        ),
    ];
    for (what, got, counter) in count_checks {
        if got as f64 != counter {
            push(
                v,
                "event-count",
                format!("{what}: event log says {got}, ledger says {counter}"),
            );
        }
    }
}

/// Utilization series sanity: one series per worker, fractions within
/// [0, 1], occupancies non-negative.
fn audit_utilization(report: &RunReport, setup: &AuditSetup, v: &mut Vec<Violation>) {
    if report.node_utilization.is_empty() {
        return; // older report: nothing to check
    }
    if report.node_utilization.len() != setup.workers {
        push(
            v,
            "utilization-shape",
            format!(
                "{} utilization series for {} workers",
                report.node_utilization.len(),
                setup.workers
            ),
        );
        return;
    }
    for u in &report.node_utilization {
        for (name, series, max) in [
            ("cpu", &u.cpu, 1.0 + 1e-9),
            ("disk", &u.disk, 1.0 + 1e-9),
            ("nic", &u.nic, 1.0 + 1e-9),
            ("map_occupied", &u.map_occupied, f64::INFINITY),
            ("reduce_occupied", &u.reduce_occupied, f64::INFINITY),
        ] {
            for &(t, val) in series.points() {
                if !(0.0..=max).contains(&val) || !val.is_finite() {
                    push(
                        v,
                        "utilization-bounds",
                        format!("node {} {name} = {val} at {t} outside [0, {max}]", u.node),
                    );
                    break; // one violation per series is enough
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::job::{JobProfile, JobSpec};
    use crate::policy::StaticSlotPolicy;
    use simgrid::time::SimTime;

    fn run(record_events: bool, seed: u64) -> (RunReport, AuditSetup) {
        let mut cfg = EngineConfig::small_test(4, seed);
        cfg.record_events = record_events;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let report = Engine::new(cfg.clone())
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("run succeeds");
        (report, AuditSetup::from_config(&cfg))
    }

    #[test]
    fn clean_run_has_no_violations() {
        let (report, setup) = run(true, 7);
        let violations = audit(&report, &setup);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn clean_run_without_events_still_audits_counters() {
        let (report, setup) = run(false, 7);
        assert!(report.events.is_empty());
        assert!(audit(&report, &setup).is_empty());
    }

    #[test]
    fn corrupted_counter_is_caught() {
        let (mut report, setup) = run(true, 7);
        // simulate a missed feed: drop 1 MB from the reduce-side ledger
        report.jobs[0].counters.add(Counter::ShuffleFetchedMb, -1.0);
        let violations = audit(&report, &setup);
        assert!(
            violations
                .iter()
                .any(|x| x.invariant == "shuffle-conservation"),
            "expected shuffle-conservation among {violations:?}"
        );
        // the cluster ledger no longer matches the merge either
        assert!(violations.iter().any(|x| x.invariant == "cluster-merge"));
    }

    #[test]
    fn phantom_kill_is_caught_by_event_crosscheck() {
        let (mut report, setup) = run(true, 7);
        report.jobs[0].counters.inc(Counter::KilledAttempts);
        report.counters.inc(Counter::KilledAttempts);
        let violations = audit(&report, &setup);
        assert!(
            violations.iter().any(|x| x.invariant == "event-count"),
            "expected event-count among {violations:?}"
        );
    }

    #[test]
    fn corrupted_locality_fraction_is_caught() {
        let (mut report, setup) = run(false, 7);
        report.jobs[0].local_map_fraction += 0.25;
        let violations = audit(&report, &setup);
        assert!(violations
            .iter()
            .any(|x| x.invariant == "locality-fraction"));
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let (a, _) = run(false, 7);
        let (b, _) = run(false, 7);
        assert_eq!(fingerprint(&a), fingerprint(&b), "same seed, same counters");
        let (c, _) = run(false, 8);
        assert_ne!(fingerprint(&a), fingerprint(&c), "different seed");
        let mut d = a.clone();
        d.counters.inc(Counter::SpilledRecords);
        assert_ne!(fingerprint(&a), fingerprint(&d), "sensitive to one bit");
    }

    fn run_with_spans() -> telemetry::Telemetry {
        let telem = telemetry::Telemetry::enabled();
        let cfg = EngineConfig::small_test(4, 7);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        Engine::new(cfg)
            .run_in(
                vec![job],
                &mut StaticSlotPolicy,
                &telem,
                &mut crate::EngineArena::new(),
            )
            .expect("run succeeds");
        telem
    }

    #[test]
    fn phase_means_cover_every_step_of_a_real_run() {
        let telem = run_with_spans();
        let means = phase_means(&telem).expect("spans recorded");
        assert!(means.steps_covered > 0);
        assert!(means.allocate_us >= 0.0 && means.allocate_us.is_finite());
        assert!(means.integrate_us >= 0.0 && means.integrate_us.is_finite());
        // fixed-mode runs skip the adaptive horizon phase entirely
        if let Some(h) = means.horizon_us {
            assert!(h >= 0.0 && h.is_finite());
        }
    }

    #[test]
    fn generous_phase_budget_passes_a_real_run() {
        let telem = run_with_spans();
        // 100x the default gate: loose enough for any CI machine, tight
        // enough that a pathological per-step regression (milliseconds
        // per step) still trips it
        let violations = audit_phase_spans(&telem, &PhaseBudget::scaled(100.0));
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn tiny_phase_budget_is_violated() {
        let telem = run_with_spans();
        let violations = audit_phase_spans(&telem, &PhaseBudget::scaled(0.0));
        assert!(
            violations.iter().any(|v| v.invariant == "phase_budget"),
            "zero budget must trip: {violations:?}"
        );
    }

    #[test]
    fn disabled_telemetry_cannot_pass_the_phase_gate() {
        let telem = telemetry::Telemetry::disabled();
        assert!(phase_means(&telem).is_none());
        let violations = audit_phase_spans(&telem, &PhaseBudget::default_gate());
        assert!(
            violations.iter().any(|v| v.invariant == "phase_budget"),
            "a gate that measured nothing must not pass: {violations:?}"
        );
    }

    #[test]
    fn violation_displays_with_invariant_name() {
        let x = Violation {
            invariant: "spill-identity",
            detail: "oops".into(),
        };
        assert_eq!(x.to_string(), "spill-identity: oops");
    }
}
