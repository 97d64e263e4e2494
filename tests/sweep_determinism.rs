//! Batched-sweep determinism guarantees: the bounded worker pool is an
//! execution strategy, not a semantic change. The same grid must produce
//! byte-identical per-cell reports at every worker count and match the
//! legacy sequential path cell for cell, and the arena recycling that
//! makes the pool allocation-free must never leak one cell's state into
//! the next cell run in the same slot.

use harness::runner::{bind_warm, drive_audited, prepare_warm, run_once, run_once_in};
use harness::{run_cells_with, CellRequest, System};
use mapreduce::{EngineArena, EngineConfig, EngineState, JobSpec, RunReport};
use proptest::proptest;
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use std::sync::Arc;
use workloads::Puma;

fn job(input_mb: f64) -> JobSpec {
    Puma::Grep.job(0, input_mb, 8, SimTime::ZERO)
}

/// One warm cell run sequentially, outside the pool.
fn drive_warm(warm: &EngineState, cfg: &EngineConfig, sys: &System, seed: u64) -> RunReport {
    let state = bind_warm(warm, cfg, sys, seed).unwrap();
    drive_audited(state, sys, None, false, &mut EngineArena::new())
        .unwrap()
        .into_report()
}

/// A mixed grid: cold and warm cells, all three systems, two loads, and
/// one faulted cell — every dispatch shape the drivers use.
fn grid() -> Vec<CellRequest> {
    let cfg = EngineConfig::small_test(4, 0);
    let warm = Arc::new(prepare_warm(&cfg, vec![job(1024.0)], 9).expect("prepare"));
    let mut faulted = cfg.clone();
    faulted.fault_plan = FaultPlan::new(vec![NodeFault::transient(
        NodeId(1),
        SimTime::from_secs(30),
        SimDuration::from_secs(90),
    )]);
    let mut cells = Vec::new();
    for (i, sys) in System::all().into_iter().enumerate() {
        cells.push(CellRequest::cold(
            cfg.clone(),
            vec![job(512.0)],
            sys.clone(),
            i as u64 + 1,
        ));
        cells.push(CellRequest::cold(
            cfg.clone(),
            vec![job(1536.0)],
            sys.clone(),
            i as u64 + 100,
        ));
        cells.push(CellRequest::warm(
            Arc::clone(&warm),
            cfg.clone(),
            sys.clone(),
            9,
        ));
        cells.push(CellRequest::warm(
            Arc::clone(&warm),
            faulted.clone(),
            sys,
            9,
        ));
    }
    cells
}

fn fingerprints(cells: &[CellRequest], workers: usize) -> Vec<String> {
    run_cells_with(workers, cells)
        .reports
        .iter()
        .map(|r| serde_json::to_string(r.as_ref().expect("cell completes")).unwrap())
        .collect()
}

#[test]
fn per_cell_reports_are_identical_across_worker_counts() {
    let cells = grid();
    let one = fingerprints(&cells, 1);
    let two = fingerprints(&cells, 2);
    let many = fingerprints(
        &cells,
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    assert_eq!(one.len(), cells.len());
    for (i, a) in one.iter().enumerate() {
        assert_eq!(a, &two[i], "cell {i}: 1 vs 2 workers");
        assert_eq!(a, &many[i], "cell {i}: 1 vs available_parallelism workers");
    }
}

#[test]
fn pooled_reports_match_the_legacy_sequential_path() {
    let cfg = EngineConfig::small_test(4, 0);
    let warm = Arc::new(prepare_warm(&cfg, vec![job(1024.0)], 9).expect("prepare"));
    let mut faulted = cfg.clone();
    faulted.fault_plan = FaultPlan::new(vec![NodeFault::transient(
        NodeId(1),
        SimTime::from_secs(30),
        SimDuration::from_secs(90),
    )]);
    let pooled = fingerprints(&grid(), 3);
    let mut legacy = Vec::new();
    for (i, sys) in System::all().into_iter().enumerate() {
        legacy.push(run_once(&cfg, vec![job(512.0)], &sys, i as u64 + 1).unwrap());
        legacy.push(run_once(&cfg, vec![job(1536.0)], &sys, i as u64 + 100).unwrap());
        legacy.push(drive_warm(&warm, &cfg, &sys, 9));
        legacy.push(drive_warm(&warm, &faulted, &sys, 9));
    }
    assert_eq!(pooled.len(), legacy.len());
    for (i, want) in legacy.iter().enumerate() {
        assert_eq!(
            pooled[i],
            serde_json::to_string(want).unwrap(),
            "cell {i} diverged from the legacy path"
        );
    }
}

proptest! {
    /// Arena reset-in-place leaks nothing: whatever cell A left behind in
    /// the recycled buffers, cell B run after it in the same arena slot is
    /// byte-identical to cell B run in a fresh arena.
    #[test]
    fn arena_recycling_leaks_no_state_between_cells(
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
        load_a in 0usize..3,
        load_b in 0usize..3,
        sys_pick in 0usize..9,
    ) {
        let loads = [512.0, 1024.0, 1536.0];
        let systems = System::all();
        let sys_a = &systems[sys_pick % 3];
        let sys_b = &systems[sys_pick / 3];
        // cells deliberately differ in shape so A's leftovers would be
        // the wrong size for B if reset-in-place ever missed a buffer
        let cfg_a = EngineConfig::small_test(4, seed_a);
        let cfg_b = EngineConfig::small_test(3, seed_b);

        let mut shared = EngineArena::new();
        let _a = run_once_in(&cfg_a, vec![job(loads[load_a])], sys_a, seed_a, &mut shared)
            .expect("cell A completes");
        let recycled = run_once_in(&cfg_b, vec![job(loads[load_b])], sys_b, seed_b, &mut shared)
            .expect("cell B completes recycled");

        let mut fresh_arena = EngineArena::new();
        let fresh = run_once_in(&cfg_b, vec![job(loads[load_b])], sys_b, seed_b, &mut fresh_arena)
            .expect("cell B completes fresh");

        assert_eq!(
            serde_json::to_string(&recycled).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "recycled arena changed cell B's result"
        );
        assert_eq!(shared.cells_served(), 2);
        assert_eq!(shared.cells_recycled(), 1, "cell B recycled A's arena");
    }
}
