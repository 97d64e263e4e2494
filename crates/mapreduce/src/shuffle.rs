//! Map-output availability and shuffle accounting for one job.
//!
//! Each finished map task leaves its output on the node that ran it, split
//! uniformly across the job's reduce partitions (the same uniformity
//! assumption the paper's slot manager makes when estimating `R_m`,
//! §IV-A3). A reduce task may fetch, from source node `s`, one `1/R` share
//! of all map output produced on `s` so far. The shuffle of a reduce can
//! only *complete* once the job's last map has finished — the
//! synchronisation barrier.

use crate::task::ReduceTask;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;

/// Shuffle-side state of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShuffleState {
    /// Map output MB accumulated on each worker node (by `NodeId.0`).
    avail_by_src: Vec<f64>,
    /// Total map output so far (MB).
    total_output_mb: f64,
    num_reduces: usize,
    maps_all_done: bool,
}

impl ShuffleState {
    pub fn new(workers: usize, num_reduces: usize) -> ShuffleState {
        assert!(num_reduces > 0);
        ShuffleState {
            avail_by_src: vec![0.0; workers],
            total_output_mb: 0.0,
            num_reduces,
            maps_all_done: false,
        }
    }

    /// Record a finished map's output on `node`.
    pub fn on_map_complete(&mut self, node: NodeId, output_mb: f64) {
        debug_assert!(output_mb >= 0.0);
        self.avail_by_src[node.0] += output_mb;
        self.total_output_mb += output_mb;
    }

    /// Mark the barrier: no more map output will appear.
    pub fn set_maps_all_done(&mut self) {
        self.maps_all_done = true;
    }

    /// Re-open the barrier after a node loss forces completed maps back
    /// into the pending queue. Reduces already past their shuffle keep
    /// going; reduces still shuffling wait for the re-executed output.
    pub fn clear_maps_all_done(&mut self) {
        self.maps_all_done = false;
    }

    /// Drop all map output stored on `node` (the node crashed). Reducers
    /// see their fetch sources dry up — `remaining_from(node)` clamps to
    /// zero even for partially-fetched shares — and the lost MB leaves the
    /// partition totals until the maps are re-executed elsewhere. Returns
    /// the MB lost.
    pub fn on_node_lost(&mut self, node: NodeId) -> f64 {
        let lost = std::mem::take(&mut self.avail_by_src[node.0]);
        self.total_output_mb -= lost;
        lost
    }

    pub fn maps_all_done(&self) -> bool {
        self.maps_all_done
    }

    pub fn total_output_mb(&self) -> f64 {
        self.total_output_mb
    }

    /// The final size of each reduce partition; `None` until the barrier.
    pub fn partition_mb(&self) -> Option<f64> {
        if self.maps_all_done {
            Some(self.total_output_mb / self.num_reduces as f64)
        } else {
            None
        }
    }

    /// MB still fetchable *right now* by `reduce` from source node `src`.
    pub fn remaining_from(&self, reduce: &ReduceTask, src: NodeId) -> f64 {
        let share = self.avail_by_src[src.0] / self.num_reduces as f64;
        (share - reduce.fetched_by_src[src.0]).max(0.0)
    }

    /// Total MB still fetchable right now by `reduce` across all sources.
    pub fn remaining_total(&self, reduce: &ReduceTask) -> f64 {
        (0..self.avail_by_src.len())
            .map(|s| self.remaining_from(reduce, NodeId(s)))
            .sum()
    }

    /// True when `reduce` has fetched its entire partition *and* the
    /// barrier has been crossed — the conditions for leaving the shuffle
    /// phase.
    pub fn shuffle_complete(&self, reduce: &ReduceTask) -> bool {
        self.maps_all_done && self.remaining_total(reduce) <= 1e-6
    }

    /// Write each source's per-reduce share, `avail / R` MB, into `shares`
    /// (indexed by `NodeId.0`). A reduce's remaining backlog from `s` is
    /// `(shares[s] - fetched_by_src[s]).max(0.0)`, the exact float
    /// [`ShuffleState::remaining_from`] computes; the flow build fills the
    /// slab once per job per step and every shuffling reduce of the job
    /// selects against it via [`fetch_sources_into`].
    pub fn shares_into(&self, shares: &mut Vec<f64>) {
        let r = self.num_reduces as f64;
        shares.clear();
        shares.extend(self.avail_by_src.iter().map(|&avail| avail / r));
    }
}

/// Source nodes with data still fetchable by a reduce that has fetched
/// `fetched[s]` MB of its `shares[s]` MB share from each source (see
/// [`ShuffleState::shares_into`]): largest backlog first, ties broken by
/// ascending node id, at most `max_sources` (the parallel-copies limit).
///
/// One pass keeps a sorted buffer of the best `max_sources` candidates, so
/// the cost grows with the source count times the (small) fetcher count,
/// not with a full sort of every source; `out` never holds more than
/// `max_sources` entries, whatever the cluster width.
pub fn fetch_sources_into(
    shares: &[f64],
    fetched: &[f64],
    max_sources: usize,
    out: &mut Vec<(NodeId, f64)>,
) {
    debug_assert_eq!(shares.len(), fetched.len());
    out.clear();
    if max_sources == 0 {
        return;
    }
    out.reserve_exact(max_sources.min(shares.len()));
    for (s, (&share, &got)) in shares.iter().zip(fetched).enumerate() {
        let rem = (share - got).max(0.0);
        if rem <= 1e-9 {
            continue;
        }
        if out.len() == max_sources {
            // candidates arrive in ascending node id, so an equal backlog
            // loses the tie-break to the one already kept
            if rem <= out[max_sources - 1].1 {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|kept| kept.1 >= rem);
        out.insert(at, (NodeId(s), rem));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::ReduceTaskId;
    use simgrid::time::SimTime;

    fn reduce(node: usize, workers: usize) -> ReduceTask {
        ReduceTask::new(
            ReduceTaskId {
                job: JobId(0),
                partition: 0,
            },
            NodeId(node),
            workers,
            1.0,
            SimTime::ZERO,
        )
    }

    /// Shares then selection, the way the flow build calls them.
    fn select(sh: &ShuffleState, r: &ReduceTask, max_sources: usize) -> Vec<(NodeId, f64)> {
        let mut shares = Vec::new();
        sh.shares_into(&mut shares);
        let mut out = Vec::new();
        fetch_sources_into(&shares, &r.fetched_by_src, max_sources, &mut out);
        out
    }

    /// The retired sort-then-truncate selection, kept verbatim as the
    /// differential reference: the bounded top-k must reproduce its
    /// sources, their order and every float bit for bit.
    fn reference_fetch_sources_into(
        sh: &ShuffleState,
        reduce: &ReduceTask,
        max_sources: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        out.clear();
        out.extend((0..sh.avail_by_src.len()).filter_map(|s| {
            let rem = sh.remaining_from(reduce, NodeId(s));
            (rem > 1e-9).then_some((NodeId(s), rem))
        }));
        // largest-first; tie-break on node id for determinism
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
        out.truncate(max_sources);
    }

    #[test]
    fn availability_accrues_per_source() {
        let mut sh = ShuffleState::new(4, 2);
        sh.on_map_complete(NodeId(1), 100.0);
        sh.on_map_complete(NodeId(1), 60.0);
        sh.on_map_complete(NodeId(3), 40.0);
        let r = reduce(0, 4);
        assert!((sh.remaining_from(&r, NodeId(1)) - 80.0).abs() < 1e-12);
        assert!((sh.remaining_from(&r, NodeId(3)) - 20.0).abs() < 1e-12);
        assert_eq!(sh.remaining_from(&r, NodeId(0)), 0.0);
        assert!((sh.remaining_total(&r) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fetch_reduces_remaining() {
        let mut sh = ShuffleState::new(2, 2);
        sh.on_map_complete(NodeId(0), 100.0);
        let mut r = reduce(1, 2);
        r.record_fetch(NodeId(0), 30.0);
        assert!((sh.remaining_from(&r, NodeId(0)) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_gates_completion() {
        let mut sh = ShuffleState::new(2, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        let mut r = reduce(1, 2);
        r.record_fetch(NodeId(0), 10.0);
        // everything fetched, but maps not done: not complete
        assert!(!sh.shuffle_complete(&r));
        assert_eq!(sh.partition_mb(), None);
        sh.set_maps_all_done();
        assert!(sh.shuffle_complete(&r));
        assert_eq!(sh.partition_mb(), Some(10.0));
    }

    #[test]
    fn incomplete_fetch_blocks_completion_after_barrier() {
        let mut sh = ShuffleState::new(2, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        sh.set_maps_all_done();
        let r = reduce(1, 2);
        assert!(!sh.shuffle_complete(&r));
    }

    #[test]
    fn fetch_sources_ordered_and_truncated() {
        let mut sh = ShuffleState::new(5, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        sh.on_map_complete(NodeId(2), 50.0);
        sh.on_map_complete(NodeId(4), 30.0);
        let r = reduce(1, 5);
        let srcs = select(&sh, &r, 2);
        assert_eq!(srcs.len(), 2);
        assert_eq!(srcs[0].0, NodeId(2));
        assert_eq!(srcs[1].0, NodeId(4));
    }

    #[test]
    fn deterministic_tiebreak_by_node_id() {
        let mut sh = ShuffleState::new(3, 1);
        sh.on_map_complete(NodeId(2), 10.0);
        sh.on_map_complete(NodeId(0), 10.0);
        let r = reduce(1, 3);
        let srcs = select(&sh, &r, 3);
        assert_eq!(srcs[0].0, NodeId(0));
        assert_eq!(srcs[1].0, NodeId(2));
    }

    proptest::proptest! {
        /// Conservation: however fetches interleave, the total a reduce can
        /// ever fetch equals its exact partition share, and remaining never
        /// goes negative.
        #[test]
        fn prop_fetch_conservation(
            outputs in proptest::collection::vec((0usize..4, 0.0f64..500.0), 1..20),
            fetch_fracs in proptest::collection::vec(0.0f64..1.5, 1..40),
        ) {
            let workers = 4;
            let reduces = 3;
            let mut sh = ShuffleState::new(workers, reduces);
            for &(node, mb) in &outputs {
                sh.on_map_complete(NodeId(node), mb);
            }
            let mut r = reduce(0, workers);
            // greedy fetches in arbitrary fractional steps
            for (i, frac) in fetch_fracs.into_iter().enumerate() {
                let src = NodeId(i % workers);
                let rem = sh.remaining_from(&r, src);
                let step = (rem * frac).min(rem);
                if step > 0.0 {
                    r.record_fetch(src, step);
                }
                proptest::prop_assert!(sh.remaining_from(&r, src) >= -1e-9);
            }
            // drain completely
            for w in 0..workers {
                let rem = sh.remaining_from(&r, NodeId(w));
                if rem > 0.0 {
                    r.record_fetch(NodeId(w), rem);
                }
            }
            let total_out: f64 = outputs.iter().map(|(_, mb)| mb).sum();
            let share = total_out / reduces as f64;
            proptest::prop_assert!((r.fetched_mb - share).abs() < 1e-6,
                "fetched {} vs share {}", r.fetched_mb, share);
            sh.set_maps_all_done();
            proptest::prop_assert!(sh.shuffle_complete(&r));
        }
    }

    proptest::proptest! {
        /// Differential pinning: the bounded top-k reproduces the retired
        /// sort-then-truncate selection bit for bit. Each source draws a
        /// shape — empty, tied round figures, a sub-1e-9 or exactly-zero
        /// remainder, an over-fetched share, a random partial fetch, or a
        /// crashed source whose partially fetched share was zeroed — and
        /// every fetcher limit from 0 past the source count is checked
        /// against one output buffer reused dirty across calls.
        #[test]
        fn prop_top_k_matches_sort_reference(
            cells in proptest::collection::vec((0u8..8, 0u8..4, 0.0f64..200.0), 1..48),
            num_reduces in 1usize..6,
            own in 0usize..48,
        ) {
            let workers = cells.len();
            let mut sh = ShuffleState::new(workers, num_reduces);
            let mut r = reduce(own % workers, workers);
            let mut lost = Vec::new();
            for (s, &(shape, tier, x)) in cells.iter().enumerate() {
                let tied = f64::from(tier) * 30.0;
                let output = match shape {
                    0 => 0.0,
                    1 | 6 => tied,
                    _ => x,
                };
                sh.on_map_complete(NodeId(s), output);
                let share = output / num_reduces as f64;
                r.fetched_by_src[s] = match shape {
                    2 => share - 5e-10,
                    3 => share,
                    4 => share + x,
                    5 => share * f64::from(tier) / 4.0,
                    6 => {
                        lost.push(NodeId(s));
                        share / 2.0
                    }
                    _ => 0.0,
                };
            }
            for node in lost {
                sh.on_node_lost(node);
            }
            let mut shares = vec![f64::NAN; 3];
            sh.shares_into(&mut shares);
            let mut got = vec![(NodeId(usize::MAX), -1.0); 7];
            let mut want = Vec::new();
            for k in [0, 1, 2, 5, workers, workers + 3, usize::MAX] {
                fetch_sources_into(&shares, &r.fetched_by_src, k, &mut got);
                reference_fetch_sources_into(&sh, &r, k, &mut want);
                proptest::prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    proptest::prop_assert_eq!(g.0, w.0);
                    proptest::prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn node_loss_drains_source_and_reopens_barrier() {
        let mut sh = ShuffleState::new(3, 2);
        sh.on_map_complete(NodeId(0), 100.0);
        sh.on_map_complete(NodeId(1), 60.0);
        sh.set_maps_all_done();
        let mut r = reduce(2, 3);
        r.record_fetch(NodeId(0), 20.0);
        let lost = sh.on_node_lost(NodeId(0));
        assert!((lost - 100.0).abs() < 1e-12);
        assert!((sh.total_output_mb() - 60.0).abs() < 1e-12);
        // the partially fetched share clamps to zero, it does not go negative
        assert_eq!(sh.remaining_from(&r, NodeId(0)), 0.0);
        sh.clear_maps_all_done();
        assert!(!sh.maps_all_done());
        assert_eq!(sh.partition_mb(), None);
        // the re-executed map lands on a survivor and is fetchable again
        sh.on_map_complete(NodeId(1), 100.0);
        sh.set_maps_all_done();
        assert!((sh.total_output_mb() - 160.0).abs() < 1e-12);
        // losing an empty source is a no-op
        assert_eq!(sh.on_node_lost(NodeId(2)), 0.0);
    }

    #[test]
    fn partitions_split_uniformly() {
        let mut sh = ShuffleState::new(2, 4);
        sh.on_map_complete(NodeId(0), 100.0);
        sh.set_maps_all_done();
        assert_eq!(sh.partition_mb(), Some(25.0));
        let r = reduce(1, 2);
        assert!((sh.remaining_from(&r, NodeId(0)) - 25.0).abs() < 1e-12);
    }
}
