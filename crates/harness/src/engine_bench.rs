//! Fixed-vs-adaptive engine comparison: the same paper-scale workload run
//! under both stepping modes, timed, with the step counts that explain
//! the difference. `reproduce engine-bench` renders this and writes
//! `BENCH_engine.json`.

use crate::runner::{run_once, System};
use crate::scale::Scale;
use mapreduce::EngineConfig;
use serde::{Deserialize, Serialize};
use simgrid::time::{SimTime, SteppingMode};
use workloads::Puma;

/// One stepping mode's measurements over the benchmark workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModeRow {
    pub mode: String,
    /// Engine steps summed over all runs.
    pub steps: u64,
    /// Simulated seconds summed over all runs.
    pub sim_seconds: f64,
    /// Wall-clock seconds for the whole workload.
    pub wall_seconds: f64,
    /// steps / sim_seconds — the cost of advancing one simulated second.
    pub steps_per_sim_second: f64,
}

/// The full comparison plus the two acceptance ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineBench {
    pub fixed: ModeRow,
    pub adaptive: ModeRow,
    /// fixed.steps / adaptive.steps (target: >= 5).
    pub step_ratio: f64,
    /// fixed.wall_seconds / adaptive.wall_seconds (target: >= 2).
    pub speedup: f64,
}

/// Input size per job (MB): a 2 GB miniature, big enough to cross the
/// reduce slow-start and exercise the whole pipeline in a short run.
const INPUT_MB: f64 = 2.0 * 1024.0;

/// The workload both modes run: one map-heavy and one reduce-heavy PUMA
/// benchmark on the paper testbed, under the slot manager (the system
/// whose reallocations exercise the event horizon hardest). Full scale
/// repeats the pair to stabilise the wall-clock measurement.
fn workload() -> Vec<(EngineConfig, mapreduce::JobSpec)> {
    [Puma::Grep, Puma::Terasort]
        .into_iter()
        .map(|bench| {
            let cfg = EngineConfig::paper_default();
            let job = bench.job(0, INPUT_MB, 16, SimTime::ZERO);
            (cfg, job)
        })
        .collect()
}

fn run_mode(mode: SteppingMode, scale: Scale) -> ModeRow {
    let repeats = match scale {
        Scale::Full => 5,
        Scale::Quick => 1,
    };
    let start = std::time::Instant::now();
    let mut steps = 0u64;
    let mut sim_ms = 0u64;
    for _ in 0..repeats {
        for (mut cfg, job) in workload() {
            cfg.tick.mode = mode;
            let report = run_once(&cfg, vec![job], &System::SMapReduce, cfg.seed)
                .expect("bench run completes");
            steps += report.steps;
            sim_ms += report
                .jobs
                .iter()
                .map(|j| j.finished_at.as_millis())
                .max()
                .unwrap_or(0);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let sim_seconds = sim_ms as f64 / 1000.0;
    ModeRow {
        mode: match mode {
            SteppingMode::Fixed => "fixed".to_string(),
            SteppingMode::Adaptive => "adaptive".to_string(),
        },
        steps,
        sim_seconds,
        wall_seconds: wall,
        steps_per_sim_second: if sim_seconds > 0.0 {
            steps as f64 / sim_seconds
        } else {
            0.0
        },
    }
}

/// Run the comparison. Note: meaningless if `runner::set_engine_mode` has
/// pinned a mode in this process (the pin would override both rows), so
/// the `reproduce` binary rejects `engine-bench` combined with `--engine`.
pub fn run(scale: Scale) -> EngineBench {
    let fixed = run_mode(SteppingMode::Fixed, scale);
    let adaptive = run_mode(SteppingMode::Adaptive, scale);
    let step_ratio = if adaptive.steps > 0 {
        fixed.steps as f64 / adaptive.steps as f64
    } else {
        0.0
    };
    let speedup = if adaptive.wall_seconds > 0.0 {
        fixed.wall_seconds / adaptive.wall_seconds
    } else {
        0.0
    };
    EngineBench {
        fixed,
        adaptive,
        step_ratio,
        speedup,
    }
}

pub fn render(b: &EngineBench) -> String {
    let mut out = String::new();
    out.push_str("engine stepping: fixed 100 ms ticks vs adaptive event horizon\n");
    out.push_str("(Grep + Terasort on the paper testbed, SMapReduce policy)\n\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>16}\n",
        "mode", "steps", "sim (s)", "wall (s)", "steps/sim-s"
    ));
    for row in [&b.fixed, &b.adaptive] {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12.1} {:>12.3} {:>16.1}\n",
            row.mode, row.steps, row.sim_seconds, row.wall_seconds, row.steps_per_sim_second
        ));
    }
    out.push_str(&format!(
        "\nstep ratio (fixed/adaptive): {:.1}x   wall speedup: {:.1}x\n",
        b.step_ratio, b.speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_shows_step_reduction() {
        let b = run(Scale::Quick);
        assert!(b.fixed.steps > 0 && b.adaptive.steps > 0);
        assert!(
            b.step_ratio >= 5.0,
            "adaptive must take >=5x fewer steps (ratio {:.2})",
            b.step_ratio
        );
        // Fixed mode detects every completion on the 100 ms grid, so each
        // serial phase transition finishes up to a tick late and the delays
        // accumulate along the map->shuffle->sort->reduce chain; adaptive
        // lands on the exact event times. The spans therefore differ by a
        // bounded quantization error, not by model drift.
        let rel = (b.fixed.sim_seconds - b.adaptive.sim_seconds).abs() / b.fixed.sim_seconds;
        assert!(rel < 0.10, "sim spans diverged ({rel:.3})");
    }
}
