//! Reusable per-cell engine allocations for batched sweeps.
//!
//! Each simulated cell needs a fixed family of scratch buffers: per-node
//! rate arrays rewritten by every allocate phase, the per-node task lists
//! and demand vector the node allocator walks, and the flow/purpose lists
//! handed to the fabric. A thread-per-cell sweep pays for all of them on
//! every cell; a pool worker driving thousands of cells should pay once.
//!
//! [`EngineArena`] owns that family between cells. The engine checks the
//! buffers out at cell start (reset **in place**: cleared and re-sized
//! into the existing backing allocation, never reconstructed), threads
//! them through the run as its ordinary scratch fields, and checks them
//! back in when the cell finishes. The arena counts **growth events** —
//! any checkout or run that had to enlarge a backing allocation — so the
//! steady state is testable: after one warm-up cell of a given shape,
//! subsequent same-shape cells must report zero growth.
//!
//! Reset-in-place invariants (what makes recycled buffers bit-safe):
//!
//! * every checked-out buffer is cleared and refilled to exactly the
//!   length a fresh `vec![fill; n]` would have, so reads never observe a
//!   previous cell's values;
//! * spare *capacity* beyond that length is invisible to the engine: all
//!   consumers iterate by length, never by capacity;
//! * no pointer, index, or id derived from a previous cell survives in
//!   the arena — only raw allocations do.
//!
//! Consequently a run produces byte-identical reports whether its scratch
//! came from a fresh allocation or a recycled arena; the determinism
//! suite in `tests/sweep_determinism.rs` holds this to the letter.

use crate::engine::{FetchPost, FlowPurpose, TaskRef};
use crate::policy::TrackerSnapshot;
use crate::task::MapAttemptId;
use simgrid::cluster::NodeId;
use simgrid::network::{FabricScratch, Flow, FlowId};
use simgrid::node::TaskDemand;

/// The number of distinct buffer families an arena recycles (used to size
/// the capacity-footprint snapshot taken at checkout).
const FAMILIES: usize = 18;

/// Reusable scratch allocations for one engine run at a time.
///
/// An arena is owned by one pool worker (or one sequential loop) and
/// passed to [`crate::Engine::run_in`] / [`crate::Engine::resume_in`];
/// it is not shareable across concurrent runs.
#[derive(Debug, Default)]
pub struct EngineArena {
    node_cpu: Vec<f64>,
    node_disk: Vec<f64>,
    nic_in: Vec<f64>,
    nic_out: Vec<f64>,
    occ_map: Vec<usize>,
    occ_reduce: Vec<usize>,
    node_tasks: Vec<Vec<(TaskRef, TaskDemand)>>,
    demands: Vec<TaskDemand>,
    flows: Vec<Flow>,
    purposes: Vec<(FlowId, FlowPurpose)>,
    fabric: FabricScratch,
    rates: Vec<f64>,
    scales: Vec<(TaskRef, f64)>,
    map_posts: Vec<(MapAttemptId, f64)>,
    fetch_posts: Vec<FetchPost>,
    shares: Vec<f64>,
    sources: Vec<(NodeId, f64)>,
    snapshots: Vec<TrackerSnapshot>,
    /// Capacity footprint of the buffers currently checked out, recorded
    /// so check-in can detect growth that happened *during* the run.
    handed_caps: [usize; FAMILIES],
    growth_events: u64,
    cells: u64,
}

/// The scratch family one run threads through its step loop. Fresh runs
/// build it with [`Scratch::fresh`]; arena-backed runs check it out of an
/// [`EngineArena`] and return it on completion.
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) node_cpu: Vec<f64>,
    pub(crate) node_disk: Vec<f64>,
    pub(crate) nic_in: Vec<f64>,
    pub(crate) nic_out: Vec<f64>,
    pub(crate) occ_map: Vec<usize>,
    pub(crate) occ_reduce: Vec<usize>,
    pub(crate) node_tasks: Vec<Vec<(TaskRef, TaskDemand)>>,
    pub(crate) demands: Vec<TaskDemand>,
    pub(crate) flows: Vec<Flow>,
    pub(crate) purposes: Vec<(FlowId, FlowPurpose)>,
    pub(crate) fabric: FabricScratch,
    pub(crate) rates: Vec<f64>,
    pub(crate) scales: Vec<(TaskRef, f64)>,
    pub(crate) map_posts: Vec<(MapAttemptId, f64)>,
    pub(crate) fetch_posts: Vec<FetchPost>,
    pub(crate) shares: Vec<f64>,
    pub(crate) sources: Vec<(NodeId, f64)>,
    pub(crate) snapshots: Vec<TrackerSnapshot>,
}

impl Scratch {
    /// Exactly the allocations a pre-arena run performed at construction.
    pub(crate) fn fresh(workers: usize) -> Scratch {
        Scratch {
            node_cpu: vec![0.0; workers],
            node_disk: vec![0.0; workers],
            nic_in: vec![0.0; workers],
            nic_out: vec![0.0; workers],
            occ_map: vec![0; workers],
            occ_reduce: vec![0; workers],
            node_tasks: vec![Vec::new(); workers],
            demands: Vec::new(),
            flows: Vec::new(),
            purposes: Vec::new(),
            fabric: FabricScratch::new(),
            rates: Vec::new(),
            scales: Vec::new(),
            map_posts: Vec::new(),
            fetch_posts: Vec::new(),
            shares: vec![0.0; workers],
            sources: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Capacity footprint per buffer family. For the nested task lists the
    /// footprint folds the inner capacities in, so a run that grew any
    /// per-node list is visible at check-in.
    fn caps(&self) -> [usize; FAMILIES] {
        [
            self.node_cpu.capacity(),
            self.node_disk.capacity(),
            self.nic_in.capacity(),
            self.nic_out.capacity(),
            self.occ_map.capacity(),
            self.occ_reduce.capacity(),
            self.node_tasks.capacity()
                + self.node_tasks.iter().map(|v| v.capacity()).sum::<usize>(),
            self.demands.capacity(),
            self.flows.capacity(),
            self.purposes.capacity(),
            self.fabric.footprint(),
            self.rates.capacity(),
            self.scales.capacity(),
            self.map_posts.capacity(),
            self.fetch_posts.capacity(),
            self.shares.capacity(),
            self.sources.capacity(),
            self.snapshots.capacity(),
        ]
    }
}

/// Clear `vec` and refill it in place to `len` copies of `fill`.
/// Returns `true` when the backing allocation had to grow.
fn reset_filled<T: Clone>(vec: &mut Vec<T>, len: usize, fill: T) -> bool {
    let grew = vec.capacity() < len;
    vec.clear();
    vec.resize(len, fill);
    grew
}

impl EngineArena {
    pub fn new() -> EngineArena {
        EngineArena::default()
    }

    /// Cells whose scratch came out of recycled buffers — every checkout
    /// after this arena's first, which had to allocate fresh.
    pub fn cells_recycled(&self) -> u64 {
        self.cells.saturating_sub(1)
    }

    /// Total cells this arena has served, the fresh first one included.
    pub fn cells_served(&self) -> u64 {
        self.cells
    }

    /// Buffer-family growths observed so far: resizes at checkout plus
    /// any in-run growth detected at check-in. Constant across a
    /// steady-state loop of same-shape cells after the first.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Approximate resident bytes held by the recycled buffer families —
    /// the scale bench's peak-memory proxy. Counts backing capacity, not
    /// live length, because capacity is what the process actually keeps.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.node_cpu.capacity() * size_of::<f64>()
            + self.node_disk.capacity() * size_of::<f64>()
            + self.nic_in.capacity() * size_of::<f64>()
            + self.nic_out.capacity() * size_of::<f64>()
            + self.occ_map.capacity() * size_of::<usize>()
            + self.occ_reduce.capacity() * size_of::<usize>()
            + self.node_tasks.capacity() * size_of::<Vec<(TaskRef, TaskDemand)>>()
            + self
                .node_tasks
                .iter()
                .map(|v| v.capacity() * size_of::<(TaskRef, TaskDemand)>())
                .sum::<usize>()
            + self.demands.capacity() * size_of::<TaskDemand>()
            + self.flows.capacity() * size_of::<Flow>()
            + self.purposes.capacity() * size_of::<(FlowId, FlowPurpose)>()
            + self.fabric.approx_bytes()
            + self.rates.capacity() * size_of::<f64>()
            + self.scales.capacity() * size_of::<(TaskRef, f64)>()
            + self.map_posts.capacity() * size_of::<(MapAttemptId, f64)>()
            + self.fetch_posts.capacity() * size_of::<FetchPost>()
            + self.shares.capacity() * size_of::<f64>()
            + self.sources.capacity() * size_of::<(NodeId, f64)>()
            + self.snapshots.capacity() * size_of::<TrackerSnapshot>()
    }

    /// Reset every buffer in place for a `workers`-node cell and hand the
    /// family out. The caller returns it via [`EngineArena::check_in`].
    pub(crate) fn checkout(&mut self, workers: usize) -> Scratch {
        let mut grew = 0u64;
        grew += u64::from(reset_filled(&mut self.node_cpu, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.node_disk, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.nic_in, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.nic_out, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.occ_map, workers, 0));
        grew += u64::from(reset_filled(&mut self.occ_reduce, workers, 0));
        grew += u64::from(reset_filled(&mut self.shares, workers, 0.0));
        grew += u64::from(self.node_tasks.capacity() < workers);
        for tasks in &mut self.node_tasks {
            tasks.clear();
        }
        self.node_tasks.resize_with(workers, Vec::new);
        self.demands.clear();
        self.flows.clear();
        self.purposes.clear();
        // the fabric scratch needs no reset: its slabs are epoch-stamped,
        // so stale lanes are invisible to the next allocation
        self.rates.clear();
        self.scales.clear();
        self.map_posts.clear();
        self.fetch_posts.clear();
        self.sources.clear();
        self.snapshots.clear();
        self.growth_events += grew;
        let scratch = Scratch {
            node_cpu: std::mem::take(&mut self.node_cpu),
            node_disk: std::mem::take(&mut self.node_disk),
            nic_in: std::mem::take(&mut self.nic_in),
            nic_out: std::mem::take(&mut self.nic_out),
            occ_map: std::mem::take(&mut self.occ_map),
            occ_reduce: std::mem::take(&mut self.occ_reduce),
            node_tasks: std::mem::take(&mut self.node_tasks),
            demands: std::mem::take(&mut self.demands),
            flows: std::mem::take(&mut self.flows),
            purposes: std::mem::take(&mut self.purposes),
            fabric: std::mem::take(&mut self.fabric),
            rates: std::mem::take(&mut self.rates),
            scales: std::mem::take(&mut self.scales),
            map_posts: std::mem::take(&mut self.map_posts),
            fetch_posts: std::mem::take(&mut self.fetch_posts),
            shares: std::mem::take(&mut self.shares),
            sources: std::mem::take(&mut self.sources),
            snapshots: std::mem::take(&mut self.snapshots),
        };
        self.handed_caps = scratch.caps();
        scratch
    }

    /// Take the family back after a run, folding in-run capacity growth
    /// into the growth counter.
    pub(crate) fn check_in(&mut self, scratch: Scratch) {
        for (before, after) in self.handed_caps.iter().zip(scratch.caps()) {
            if after > *before {
                self.growth_events += 1;
            }
        }
        self.node_cpu = scratch.node_cpu;
        self.node_disk = scratch.node_disk;
        self.nic_in = scratch.nic_in;
        self.nic_out = scratch.nic_out;
        self.occ_map = scratch.occ_map;
        self.occ_reduce = scratch.occ_reduce;
        self.node_tasks = scratch.node_tasks;
        self.demands = scratch.demands;
        self.flows = scratch.flows;
        self.purposes = scratch.purposes;
        self.fabric = scratch.fabric;
        self.rates = scratch.rates;
        self.scales = scratch.scales;
        self.map_posts = scratch.map_posts;
        self.fetch_posts = scratch.fetch_posts;
        self.shares = scratch.shares;
        self.sources = scratch.sources;
        self.snapshots = scratch.snapshots;
        self.cells += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_resets_lengths_and_counts_first_growth() {
        let mut arena = EngineArena::new();
        let s = arena.checkout(4);
        assert_eq!(s.node_cpu, vec![0.0; 4]);
        assert_eq!(s.occ_map, vec![0; 4]);
        assert_eq!(s.node_tasks.len(), 4);
        let first_growth = arena.growth_events();
        assert!(first_growth > 0, "cold checkout must allocate");
        arena.check_in(s);
        assert_eq!(arena.cells_served(), 1);
        assert_eq!(arena.cells_recycled(), 0, "first cell allocated fresh");

        // same shape again: everything fits in place, zero growth
        let s = arena.checkout(4);
        arena.check_in(s);
        assert_eq!(arena.growth_events(), first_growth);
        assert_eq!(arena.cells_served(), 2);
        assert_eq!(arena.cells_recycled(), 1);
    }

    #[test]
    fn checkout_scrubs_previous_cell_contents() {
        let mut arena = EngineArena::new();
        let mut s = arena.checkout(2);
        s.node_cpu[0] = 7.5;
        s.occ_map[1] = 3;
        s.demands.push(TaskDemand {
            cpu_cores: 1.0,
            threads: 1,
            mem_mb: 1.0,
            disk_read: 1.0,
            disk_write: 1.0,
        });
        arena.check_in(s);

        let s = arena.checkout(2);
        assert_eq!(s.node_cpu, vec![0.0; 2]);
        assert_eq!(s.occ_map, vec![0; 2]);
        assert!(s.demands.is_empty());
        arena.check_in(s);
    }

    #[test]
    fn in_run_growth_is_detected_at_check_in() {
        let mut arena = EngineArena::new();
        let s = arena.checkout(2);
        arena.check_in(s);
        let before = arena.growth_events();
        let mut s = arena.checkout(2);
        s.flows.reserve(1024); // a run that outgrew its flow list
        arena.check_in(s);
        assert!(arena.growth_events() > before);
    }

    #[test]
    fn wider_cluster_grows_then_stabilises() {
        let mut arena = EngineArena::new();
        for workers in [2usize, 8, 8, 8] {
            let s = arena.checkout(workers);
            arena.check_in(s);
        }
        let after_wide = arena.growth_events();
        // shrinking back re-uses the wide allocation: no growth
        let s = arena.checkout(4);
        arena.check_in(s);
        assert_eq!(arena.growth_events(), after_wide);
    }
}
