//! Traced-run instruments, all outside the program: folding the engine's
//! and service's existing telemetry spans into phase self times, and a
//! counting [`SlotPolicy`] wrapper.

use crate::report::{Outcome, PhaseRow, PhaseTable};
use mapreduce::policy::{PolicyContext, PolicyDecisionRecord, SlotDirective, SlotPolicy};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;
use telemetry::{SpanRecord, Telemetry};

/// Span ring capacity of one traced engine run. A step records at most
/// eight spans; the largest traced run (big-cluster, ~1k steps) stays far
/// below this, and `telemetry.dropped_spans` proves it.
pub const RUN_SPAN_CAPACITY: usize = 1 << 16;

/// Engine phases: (row name, per-layer metric, spans folded into it).
/// `heartbeat_round` is the one span with children; its row is its self
/// time.
const ENGINE_PHASES: &[(&str, &str, &[&str])] = &[
    (
        "simgrid.fabric_allocate",
        "simgrid.fabric_allocate_us",
        &["step/network_allocate"],
    ),
    (
        "simgrid.node_allocate",
        "simgrid.node_allocate_us",
        &["step/allocate_nodes"],
    ),
    (
        "mapreduce.event_horizon",
        "mapreduce.event_horizon_us",
        &["step/event_horizon"],
    ),
    (
        "mapreduce.advance",
        "mapreduce.advance_us",
        &["step/advance_maps", "step/advance_reduces"],
    ),
    (
        "mapreduce.assign_tasks",
        "mapreduce.assign_tasks_us",
        &["heartbeat/assign_tasks"],
    ),
    (
        "mapreduce.aggregate_stats",
        "mapreduce.aggregate_stats_us",
        &["heartbeat/aggregate_stats"],
    ),
    ("policy.decide", "", &["heartbeat/policy_decide"]),
    (
        "mapreduce.heartbeat_other",
        "mapreduce.heartbeat_other_us",
        &["engine/heartbeat_round"],
    ),
    (
        "mapreduce.sample",
        "mapreduce.sample_us",
        &["engine/sample"],
    ),
];

/// Children of `engine/heartbeat_round`.
const HEARTBEAT_CHILDREN: &[&str] = &[
    "heartbeat/aggregate_stats",
    "heartbeat/policy_decide",
    "heartbeat/assign_tasks",
];

/// Whether span `s` lies wholly inside `window`.
pub fn within(s: &SpanRecord, window: &Range<u64>) -> bool {
    s.start_us >= window.start && s.start_us.saturating_add(s.dur_us) <= window.end
}

/// Span totals by `cat/name`: (calls, summed duration µs).
#[derive(Default, Clone)]
pub struct SpanTotals {
    by_name: BTreeMap<String, (u64, u64)>,
    pub dropped: u64,
}

impl SpanTotals {
    /// Add every span `telem` recorded.
    pub fn absorb(&mut self, telem: &Telemetry) {
        self.absorb_window(telem, 0..u64::MAX);
    }

    /// Add the spans `telem` recorded that lie wholly inside `window`
    /// (µs on the telemetry clock).
    pub fn absorb_window(&mut self, telem: &Telemetry, window: Range<u64>) {
        telem.with_spans(|spans| {
            for s in spans.filter(|s| within(s, &window)) {
                let e = self
                    .by_name
                    .entry(format!("{}/{}", s.cat, s.name))
                    .or_default();
                e.0 += 1;
                e.1 += s.dur_us;
            }
        });
        self.dropped += telem.dropped_spans();
    }

    pub fn merge(&mut self, other: &SpanTotals) {
        for (k, (calls, us)) in &other.by_name {
            let e = self.by_name.entry(k.clone()).or_default();
            e.0 += calls;
            e.1 += us;
        }
        self.dropped += other.dropped;
    }

    pub fn calls(&self, key: &str) -> u64 {
        self.by_name.get(key).map_or(0, |e| e.0)
    }

    pub fn us(&self, key: &str) -> u64 {
        self.by_name.get(key).map_or(0, |e| e.1)
    }

    /// Self time of a phase: its spans' summed duration, minus children
    /// for the heartbeat round.
    fn self_us(&self, spans: &[&str]) -> f64 {
        let mut us: f64 = spans.iter().map(|k| self.us(k) as f64).sum();
        if spans == ["engine/heartbeat_round"] {
            us -= HEARTBEAT_CHILDREN
                .iter()
                .map(|k| self.us(k) as f64)
                .sum::<f64>();
        }
        us
    }

    /// The engine phase rows, and each phase's per-layer metric set to
    /// its self time per engine run (`runs` runs; `run_us` their summed
    /// wall time). `mapreduce.unattributed_us` is run time no span covers:
    /// hash fold, fault transitions, reclaim, report building.
    pub fn engine_rows(&self, out: &mut Outcome, runs: f64, run_us: f64) -> Vec<PhaseRow> {
        let mut rows = Vec::new();
        for (row, metric, spans) in ENGINE_PHASES {
            let self_us = self.self_us(spans);
            if !metric.is_empty() {
                out.set(metric, self_us / runs.max(1.0));
            }
            rows.push(PhaseRow {
                name: row.to_string(),
                calls: spans.iter().map(|k| self.calls(k)).sum(),
                self_us,
            });
        }
        let covered: f64 = rows.iter().map(|r| r.self_us).sum();
        out.set(
            "mapreduce.unattributed_us",
            (run_us - covered) / runs.max(1.0),
        );
        rows
    }
}

/// Phase table of traced engine time `run_us` over `runs` runs (engine
/// runs, or service ticks), setting the engine per-layer metrics and the
/// telemetry ones.
pub fn engine_table(
    title: &str,
    spans: &SpanTotals,
    out: &mut Outcome,
    runs: f64,
    run_us: f64,
    overhead: f64,
) -> PhaseTable {
    let rows = spans.engine_rows(out, runs, run_us);
    out.set("telemetry.dropped_spans", spans.dropped as f64);
    out.set("telemetry.trace_overhead_share", overhead);
    PhaseTable {
        title: title.to_string(),
        total_us: run_us,
        rows,
        trace_overhead_share: overhead,
    }
}

/// Calls, directives and time spent in the wrapped policy's `decide`.
#[derive(Default, Clone, Copy)]
pub struct PolicyCounts {
    pub calls: u64,
    pub directives: u64,
    pub decide_ns: u64,
}

impl PolicyCounts {
    pub fn add(&mut self, other: PolicyCounts) {
        self.calls += other.calls;
        self.directives += other.directives;
        self.decide_ns += other.decide_ns;
    }

    pub fn report(&self, out: &mut Outcome, passes: f64) {
        out.set("policy.decide_calls", self.calls as f64 / passes.max(1.0));
        out.set(
            "policy.directives",
            self.directives as f64 / passes.max(1.0),
        );
        out.set(
            "policy.decide_us",
            self.decide_ns as f64 / 1e3 / (self.calls.max(1) as f64),
        );
    }
}

/// A [`SlotPolicy`] that delegates every method and counts decisions.
pub struct CountingPolicy {
    inner: Box<dyn SlotPolicy>,
    pub counts: PolicyCounts,
}

impl CountingPolicy {
    pub fn new(inner: Box<dyn SlotPolicy>) -> CountingPolicy {
        CountingPolicy {
            inner,
            counts: PolicyCounts::default(),
        }
    }
}

impl SlotPolicy for CountingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<SlotDirective> {
        let t0 = Instant::now();
        let directives = self.inner.decide(ctx);
        self.counts.decide_ns += t0.elapsed().as_nanos() as u64;
        self.counts.calls += 1;
        self.counts.directives += directives.len() as u64;
        directives
    }

    fn directive_overhead_ms(&self) -> u64 {
        self.inner.directive_overhead_ms()
    }

    fn attach_telemetry(&mut self, telem: &Telemetry) {
        self.inner.attach_telemetry(telem)
    }

    fn decision_records(&self) -> Vec<PolicyDecisionRecord> {
        self.inner.decision_records()
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}
