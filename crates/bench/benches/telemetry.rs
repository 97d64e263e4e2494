//! `telemetry_overhead` — what instrumentation costs the engine.
//!
//! Three states matter: telemetry disabled (the default build's hot path —
//! must be a branch, nothing more), enabled (preallocated rings), and
//! enabled under `--features profiling` (adds the per-tick duration
//! histogram). The profiling variant is a compile-time state, so run this
//! bench twice — `cargo bench -p smr-bench --bench telemetry` with and
//! without `--features profiling`; the bench labels itself accordingly.

use criterion::{criterion_group, criterion_main, Criterion};
use mapreduce::{Engine, EngineArena};
use smr_bench::{bench_config, mini_job};
use std::hint::black_box;
use workloads::Puma;

fn enabled_label() -> &'static str {
    if telemetry::PROFILING_ENABLED {
        "enabled_profiling"
    } else {
        "enabled"
    }
}

/// Raw per-call costs of the operations the tick loop performs.
fn telemetry_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    let disabled = telemetry::Telemetry::disabled();
    group.bench_function("span_call_disabled", |b| {
        b.iter(|| {
            let t0 = disabled.clock_us();
            disabled.record_span("tick", "allocate_nodes", black_box(t0), black_box(1));
        });
    });
    let enabled = telemetry::Telemetry::enabled();
    group.bench_function(format!("span_call_{}", enabled_label()), |b| {
        b.iter(|| {
            let t0 = enabled.clock_us();
            enabled.record_span("tick", "allocate_nodes", black_box(t0), black_box(1));
        });
    });
    group.finish();
}

/// Whole-run overhead: the same seeded engine run with and without a sink.
fn engine_run_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let cfg = bench_config();
    group.bench_function("engine_run_disabled", |b| {
        b.iter(|| {
            let mut p = smapreduce::SlotManagerPolicy::paper_default();
            black_box(
                Engine::new(cfg.clone())
                    .run(vec![mini_job(Puma::Grep)], &mut p)
                    .expect("run"),
            )
        });
    });
    group.bench_function(format!("engine_run_{}", enabled_label()), |b| {
        b.iter(|| {
            let mut p = smapreduce::SlotManagerPolicy::paper_default();
            let telem = telemetry::Telemetry::enabled();
            black_box(
                Engine::new(cfg.clone())
                    .run_in(
                        vec![mini_job(Puma::Grep)],
                        &mut p,
                        &telem,
                        &mut EngineArena::new(),
                    )
                    .expect("run"),
            )
        });
    });
    group.finish();
}

criterion_group! {
    name = telemetry_overhead;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = telemetry_calls, engine_run_overhead
}
criterion_main!(telemetry_overhead);
