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
//! them through the run as its one `scratch` field, and checks them back
//! in when the cell finishes. The arena counts **growth events** —
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
//! Consequently a run produces byte-identical reports whether its arena
//! is fresh or recycled; the determinism suite in
//! `tests/sweep_determinism.rs` holds this to the letter.

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
/// passed to [`crate::Engine::drive`] through [`crate::Drive`]; it is not
/// shareable across concurrent runs. Every run draws its scratch from an
/// arena — a caller with nothing to recycle passes a fresh one.
#[derive(Debug, Default)]
pub struct EngineArena {
    scratch: Scratch,
    /// Capacity footprint of the buffers currently checked out, recorded
    /// so check-in can detect growth that happened *during* the run.
    handed_caps: [usize; FAMILIES],
    growth_events: u64,
    cells: u64,
}

/// The scratch family one run threads through its step loop, checked out
/// of an [`EngineArena`] at the start and returned on completion.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-node rates rewritten by every allocate phase and read by the
    /// following integrate: granted CPU cores, disk MB/s, NIC MB/s per
    /// direction, and step-start slot occupancy.
    pub(crate) node_cpu: Vec<f64>,
    pub(crate) node_disk: Vec<f64>,
    pub(crate) nic_in: Vec<f64>,
    pub(crate) nic_out: Vec<f64>,
    pub(crate) occ_map: Vec<usize>,
    pub(crate) occ_reduce: Vec<usize>,
    /// Per-node task lists and the flattened demand vector the node
    /// allocator walks.
    pub(crate) node_tasks: Vec<Vec<(TaskRef, TaskDemand)>>,
    pub(crate) demands: Vec<TaskDemand>,
    /// Flow list and the purpose tags indexing its grants, the dense
    /// water-filling slabs, and the positional grant vector.
    pub(crate) flows: Vec<Flow>,
    pub(crate) purposes: Vec<(FlowId, FlowPurpose)>,
    pub(crate) fabric: FabricScratch,
    pub(crate) rates: Vec<f64>,
    /// Backing stores of the step's `StepRates`, lent out at allocate and
    /// reclaimed after integrate.
    pub(crate) scales: Vec<(TaskRef, f64)>,
    pub(crate) map_posts: Vec<(MapAttemptId, f64)>,
    pub(crate) fetch_posts: Vec<FetchPost>,
    /// Per-node shares of the job whose reduces the flow build is visiting
    /// (refilled once per job per step), and one reduce's selected fetch
    /// sources (at most `shuffle_fetchers` long).
    pub(crate) shares: Vec<f64>,
    pub(crate) sources: Vec<(NodeId, f64)>,
    /// Live-tracker snapshots rebuilt by every heartbeat fan-in.
    pub(crate) snapshots: Vec<TrackerSnapshot>,
}

impl Scratch {
    /// Reset every buffer in place for a `workers`-node run: the per-node
    /// arrays refilled to exactly the length a fresh `vec![0; n]` would
    /// have, the rest emptied. Returns how many families had to grow.
    fn reset(&mut self, workers: usize) -> u64 {
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
        grew
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

    /// Backing bytes across every family (capacity, not live length).
    fn approx_bytes(&self) -> usize {
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
        self.scratch.approx_bytes()
    }

    /// Reset every buffer in place for a `workers`-node cell and hand the
    /// family out. The caller returns it via [`EngineArena::check_in`].
    pub(crate) fn checkout(&mut self, workers: usize) -> Scratch {
        self.growth_events += self.scratch.reset(workers);
        let scratch = std::mem::take(&mut self.scratch);
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
        self.scratch = scratch;
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
