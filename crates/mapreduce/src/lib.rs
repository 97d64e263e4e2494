//! # mapreduce — the slot-based framework SMapReduce patches
//!
//! A faithful functional model of Hadoop 1.x MapReduce running on the
//! [`simgrid`] substrate:
//!
//! * a **job tracker** with a FIFO task scheduler and a heartbeat handler;
//! * **task trackers** that run map tasks in map slots and reduce tasks in
//!   reduce slots, launch tasks, and piggy-back runtime statistics (map
//!   input rate, map output rate, shuffle rate) on each heartbeat;
//! * **map tasks** with map + sort/spill phases, preferring data-local
//!   blocks and paying network cost for remote reads;
//! * **reduce tasks** with shuffle → sort → reduce phases, the shuffle
//!   overlapping the map waves but blocked on the **synchronisation
//!   barrier** (it cannot finish before the last map does);
//! * **lazy slot changing**: shrinking a tracker's slot target never kills
//!   a running task — slots retire as tasks finish (§III-D / §IV-B of the
//!   paper).
//!
//! Which *slot targets* each tracker has at any moment is delegated to a
//! [`policy::SlotPolicy`]. HadoopV1 is the [`policy::StaticSlotPolicy`];
//! the `yarn` crate provides the container-based baseline; the
//! `smapreduce` crate provides the paper's dynamic slot manager.
//!
//! ```
//! use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
//! use mapreduce::policy::StaticSlotPolicy;
//! use simgrid::SimTime;
//!
//! let config = EngineConfig::small_test(4, 7);
//! let job = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 1024.0, 8, SimTime::ZERO);
//! let mut policy = StaticSlotPolicy;
//! let report = Engine::new(config).run(vec![job], &mut policy).unwrap();
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].total_time().as_secs_f64() > 0.0);
//! ```

pub mod arena;
pub mod auditor;
pub mod counters;
pub mod engine;
pub mod events;
pub mod job;
pub mod policy;
pub mod report;
pub mod scheduler;
pub mod shuffle;
pub mod slots;
pub mod stats;
pub mod task;

pub use arena::EngineArena;
pub use auditor::{audit_phase_spans, phase_means, AuditSetup, PhaseBudget, PhaseMeans, Violation};
pub use counters::{Counter, CounterLedger};
pub use engine::{
    fold_hash, initial_state_hash, Drive, Driven, Engine, EngineConfig, EngineObservation,
    EngineState, HashPoint, JobObservation, NodeObservation,
};
pub use events::{Event, EventLog};
pub use job::{JobId, JobProfile, JobSpec};
pub use policy::{
    PolicyContext, PolicyDecisionRecord, SlotDirective, SlotPolicy, StaticSlotPolicy,
    TrackerSnapshot,
};
pub use report::{JobReport, RunReport};
pub use scheduler::SchedKind;
pub use stats::ClusterStats;
/// The telemetry handle [`Drive`] threads into a run.
pub use telemetry::Telemetry;
