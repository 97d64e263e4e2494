//! Metric catalogue, sample statistics and the output lines.
//!
//! Every workload reports every metric of the list its mode prints: the
//! end-to-end list on untraced runs, the per-layer list on traced runs.
//! A per-layer metric of a layer the workload bypasses reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Same names and units as
/// `BENCHMARK.json`, which `run.py` checks the output against.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("ns_per_step_node", "ns"),
    ("sim_s_per_wall_s", "sim-s/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("observe_p50_ms", "ms"),
    ("observe_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simgrid.fabric_allocate_us", "us"),
    ("simgrid.node_allocate_us", "us"),
    ("mapreduce.event_horizon_us", "us"),
    ("mapreduce.advance_us", "us"),
    ("mapreduce.assign_tasks_us", "us"),
    ("mapreduce.aggregate_stats_us", "us"),
    ("mapreduce.heartbeat_other_us", "us"),
    ("mapreduce.sample_us", "us"),
    ("mapreduce.unattributed_us", "us"),
    ("mapreduce.steps", "count"),
    ("mapreduce.prepare_ms", "ms"),
    ("mapreduce.run_ms", "ms"),
    ("mapreduce.audit_ms", "ms"),
    ("workloads.jobgen_ms", "ms"),
    ("policy.decide_calls", "count"),
    ("policy.directives", "count"),
    ("policy.decide_us", "us"),
    ("sweepengine.busy_share", "ratio"),
    ("sweepengine.max_cell_ms", "ms"),
    ("sweepengine.arena_growth_events", "count"),
    ("sweepengine.intern_ms", "ms"),
    ("sweepengine.dedup_hit_ratio", "ratio"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.capsule_kb", "KiB"),
    ("realtime.drain_p50_us", "us"),
    ("realtime.drain_p99_us", "us"),
    ("realtime.advance_p50_us", "us"),
    ("realtime.advance_p99_us", "us"),
    ("realtime.publish_p50_us", "us"),
    ("realtime.publish_p99_us", "us"),
    ("realtime.apply_wait_p50_us", "us"),
    ("realtime.apply_wait_p99_us", "us"),
    ("realtime.wire_overhead_p50_us", "us"),
    ("realtime.missed_tick_share", "ratio"),
    ("realtime.publish_skip_share", "ratio"),
    ("realtime.frames_reclaimed_share", "ratio"),
    ("realtime.staleness_ticks_max", "ticks"),
    ("realtime.shutdown_s", "s"),
    ("telemetry.trace_overhead_share", "ratio"),
    ("telemetry.dropped_spans", "count"),
    ("ops_failed_share", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells, runs, wire requests.
    pub attempted: u64,
    /// Operations that failed (errored, failed audit or digest, error
    /// reply, torn frame).
    pub failed: u64,
    /// Correctness-gate violations beyond per-operation failures.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Repeats measured (grid passes, runs, or fleet windows).
    pub repeats: u64,
    /// Timing samples behind the latency percentiles.
    pub samples: u64,
    /// Set-ups timed for `setup_s`.
    pub setups: u64,
    /// The traced run's phase tables.
    pub phases: Vec<PhaseTable>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(reason);
        }
    }

    /// Record a correctness-gate violation.
    pub fn problem(&mut self, reason: String) {
        self.problems.push(reason);
    }
}

/// One row of the traced run's phase table: self time summed over the
/// traced repeats.
pub struct PhaseRow {
    pub name: String,
    pub calls: u64,
    pub self_us: f64,
}

/// Where the traced run's time went, with the remainder no span covers.
pub struct PhaseTable {
    /// What `total_us` is.
    pub title: String,
    /// The time the rows divide, µs.
    pub total_us: f64,
    pub rows: Vec<PhaseRow>,
    pub trace_overhead_share: f64,
}

impl PhaseTable {
    /// Text table, `unattributed` row last.
    pub fn render(&self) -> String {
        let mut out = format!(
            "phase table: {} ({:.0} us; tracing overhead {:+.1}%)\n",
            self.title,
            self.total_us,
            self.trace_overhead_share * 100.0
        );
        out.push_str(&format!(
            "  {:<34} {:>10} {:>14} {:>7}\n",
            "phase", "calls", "self_us", "share"
        ));
        let covered: f64 = self.rows.iter().map(|r| r.self_us).sum();
        let unattributed = PhaseRow {
            name: "unattributed".into(),
            calls: 0,
            self_us: self.total_us - covered,
        };
        for row in self.rows.iter().chain(std::iter::once(&unattributed)) {
            let share = if self.total_us > 0.0 {
                row.self_us / self.total_us
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<34} {:>10} {:>14.0} {:>6.1}%\n",
                row.name,
                row.calls,
                row.self_us,
                share * 100.0
            ));
        }
        out
    }
}

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated between
/// closest ranks. Sorts in place; 0 for no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = (samples.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Restart the peak-resident-set count (VmHWM) from the current resident
/// set, so a later [`peak_rss_mb`] covers only what follows. Best effort:
/// kernels without the `clear_refs` reset keep the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings always encode")
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the mode's list, in list order.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    let mut correct = out.attempted > 0 && out.failed == 0 && out.problems.is_empty();
    for (name, unit) in list {
        let value = out.values.get(name).copied();
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            // bypassed layers read 0; an end-to-end metric must be measured
            None if traced => 0.0,
            None => {
                correct = false;
                0.0
            }
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            fmt_num(value),
            json_str(unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
pub fn fmt_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}
