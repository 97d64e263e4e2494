//! Checkpoint & replay guarantees at the workspace level: resume
//! equivalence for every figure's representative run, snapshot/restore at
//! random instants of random-fault-plan runs, divergence bisection on a
//! deliberately corrupted capsule stream, and the JSON dump of capsules.

use checkpoint::{
    bisect_dirs, codec, prove_resume_equivalence, prove_resume_equivalence_full, CapsuleError,
    CapsuleFormat, SimSnapshot,
};
use harness::dashboard::representative;
use harness::runner::{drive_audited, prepare_warm};
use harness::{Scale, System};
use mapreduce::{EngineArena, EngineConfig, EngineState, JobProfile, JobSpec, RunReport};
use proptest::proptest;
use simgrid::cluster::NodeId;
use simgrid::error::SimError;
use simgrid::time::{SimDuration, SimTime, SteppingMode};
use simgrid::{FaultPlan, NodeFault};
use std::path::PathBuf;

/// An audited straight run of `jobs` under `system` capturing a capsule
/// at every multiple of `every`: the final report and the capsules.
fn captured_run(
    cfg: &EngineConfig,
    jobs: Vec<JobSpec>,
    system: &System,
    seed: u64,
    every: SimDuration,
) -> Result<(RunReport, Vec<EngineState>), SimError> {
    let state = prepare_warm(cfg, jobs, seed)?;
    let run = drive_audited(state, system, Some(every), false, &mut EngineArena::new())?;
    Ok((
        run.report.expect("an unbounded drive finishes"),
        run.snapshots,
    ))
}

/// Every target `reproduce fingerprint` accepts.
const TARGETS: &[&str] = &[
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ext-hetero",
    "ext-stragglers",
    "ext-fair",
    "ext-load",
    "ext-faults",
    "ablations",
    "model-check",
    "headline",
];

#[test]
fn resume_equivalence_holds_for_every_target() {
    // Several targets share a representative configuration; prove each
    // distinct (config, system) pair once.
    let mut proven: Vec<String> = Vec::new();
    for target in TARGETS {
        let (cfg, jobs, system, _) =
            representative(target, Scale::Quick).expect("representative run");
        let key = format!(
            "{}|{}",
            system.label(),
            serde_json::to_string(&cfg).unwrap()
        );
        if proven.contains(&key) {
            continue;
        }
        let proof = prove_resume_equivalence(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
            system.make_policy()
        })
        .unwrap_or_else(|e| panic!("{target}: {e}"));
        assert!(
            proof.holds(),
            "{target}: resumed run diverged from the straight run \
             (straight {:#018x}, resumed {:#018x} from capsule {:?}/{})",
            proof.straight_fingerprint,
            proof.resumed_fingerprint,
            proof.resumed_from,
            proof.capsules,
        );
        proven.push(key);
    }
    assert!(
        proven.len() >= 3,
        "expected several distinct configurations"
    );
}

proptest! {
    /// Snapshot at a random instant of a random-fault-plan run, restore,
    /// and finish: byte-identical to the uninterrupted run under both the
    /// static policy and the slot manager, in both stepping modes.
    #[test]
    fn random_instant_restore_never_diverges(
        seed in 0u64..10_000,
        fault_s in 4u64..40,
        pick in 0usize..64,
    ) {
        let mut cfg = EngineConfig::small_test(4, seed);
        cfg.tick.mode = if seed % 2 == 0 {
            SteppingMode::Adaptive
        } else {
            SteppingMode::Fixed
        };
        // a transient crash on the heartbeat grid, sparing node 0 so a
        // replica always survives; a generous re-replication budget keeps
        // the run completable at every fault instant
        cfg.rereplication_rate = 400.0;
        cfg.fault_plan = FaultPlan::new(vec![NodeFault::transient(
            NodeId(1 + (seed as usize % 3)),
            SimTime::from_secs((fault_s / 3).max(1) * 3),
            SimDuration::from_secs(90),
        )]);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1536.0,
            6,
            SimTime::ZERO,
        );
        for system in [System::HadoopV1, System::SMapReduce] {
            let (straight, capsules) = captured_run(
                &cfg,
                vec![job.clone()],
                &system,
                cfg.seed,
                SimDuration::from_secs(10),
            )
            .expect("straight run");
            let state = capsules[pick % capsules.len()].clone();
            let from = state.at();
            let resumed = drive_audited(state, &system, None, false, &mut EngineArena::new())
                .expect("resumed run")
                .into_report();
            assert_eq!(
                serde_json::to_string(&straight).unwrap(),
                serde_json::to_string(&resumed).unwrap(),
                "{}: restore at t={:?} diverged",
                system.label(),
                from,
            );
        }
    }
}

/// Unique temp dir per test invocation.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smr-ws-capsule-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bisect_pinpoints_a_deliberately_corrupted_stream() {
    let cfg = EngineConfig::small_test(4, 11);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let (_, capsules) = captured_run(
        &cfg,
        vec![job],
        &System::SMapReduce,
        cfg.seed,
        SimDuration::from_secs(5),
    )
    .expect("recorded run");
    assert!(capsules.len() >= 4, "need a few checkpoints to bisect");
    let good = tmp_dir("good");
    let bad = tmp_dir("bad");
    let good_files = checkpoint::write_stream(&good, &capsules).expect("write good stream");
    checkpoint::write_stream(&bad, &capsules).expect("write bad stream");

    // corrupt every capsule from index `k` onward: nudge the step counter,
    // the way a silently divergent replay would
    let k = capsules.len() / 2;
    for path in &good_files[k..] {
        let bad_path = bad.join(path.file_name().unwrap());
        let bytes = std::fs::read(&bad_path).unwrap();
        let mut v = codec::from_binary(&bytes).expect("own capsule decodes");
        let mut state = v.get("state").unwrap().clone();
        let steps = state.get("steps").unwrap().as_u64().unwrap();
        state.set("steps", serde_json::Value::U64(steps + 7));
        v.set("state", state);
        std::fs::write(&bad_path, codec::to_binary(&v)).unwrap();
    }

    let div = bisect_dirs(&good, &bad)
        .expect("bisect runs")
        .expect("corruption must be found");
    assert_eq!(div.index, k, "first divergent checkpoint");
    assert_eq!(div.at, capsules[k].at());
    assert!(
        div.diffs.iter().any(|d| d.path == "state.steps"),
        "diff must name the corrupted field, got {:?}",
        div.diffs,
    );

    // sanity: the corrupted file still parses as a structurally valid
    // capsule (the divergence is semantic, not syntactic)
    let snap: SimSnapshot =
        checkpoint::load(&bad.join(good_files[k].file_name().unwrap())).expect("still loads");
    assert_eq!(snap.at, capsules[k].at());

    let _ = std::fs::remove_dir_all(&good);
    let _ = std::fs::remove_dir_all(&bad);
}

/// The per-step hash trace (one u64 per step) and the full byte-level
/// report comparison must agree: on the fig1 and ext-faults
/// representative runs, both the cheap proof and the exhaustive proof
/// hold, and they see the same run (same fingerprints, same step count).
#[test]
fn hash_trace_agrees_with_full_report_comparison() {
    for target in ["fig1", "ext-faults"] {
        let (cfg, jobs, system, _) =
            representative(target, Scale::Quick).expect("representative run");
        let cheap = prove_resume_equivalence(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
            system.make_policy()
        })
        .unwrap_or_else(|e| panic!("{target}: {e}"));
        let full =
            prove_resume_equivalence_full(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
                system.make_policy()
            })
            .unwrap_or_else(|e| panic!("{target}: {e}"));
        assert!(
            cheap.holds(),
            "{target}: hash-trace proof failed at {:?}",
            cheap.first_divergence
        );
        assert!(full.holds(), "{target}: full proof failed");
        assert_eq!(
            cheap.byte_identical, None,
            "{target}: cheap proof did bytes"
        );
        assert_eq!(
            full.byte_identical,
            Some(true),
            "{target}: resumed report not byte-identical"
        );
        assert_eq!(
            (cheap.straight_fingerprint, cheap.resumed_fingerprint),
            (full.straight_fingerprint, full.resumed_fingerprint),
            "{target}: the two proofs saw different runs"
        );
        assert_eq!(
            cheap.steps_compared, full.steps_compared,
            "{target}: the two proofs compared different step ranges"
        );
        assert!(cheap.steps_compared > 0, "{target}: no steps compared");
    }
}

/// A stream recorded while JSON capsules were still written cannot be
/// bisected byte for byte against a binary one: the JSON-vs-binary pair
/// is an error naming both files, never a reported divergence.
#[test]
fn bisect_rejects_a_json_vs_binary_pair() {
    let cfg = EngineConfig::small_test(4, 13);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        1024.0,
        8,
        SimTime::ZERO,
    );
    let (_, capsules) = captured_run(
        &cfg,
        vec![job],
        &System::SMapReduce,
        cfg.seed,
        SimDuration::from_secs(10),
    )
    .expect("recorded run");
    let legacy = tmp_dir("mixed-json");
    let binary = tmp_dir("mixed-bin");
    let bin_files = checkpoint::write_stream(&binary, &capsules).expect("write binary");
    std::fs::create_dir_all(&legacy).unwrap();
    for path in &bin_files {
        let json = checkpoint::dump(path).expect("dump");
        let name = path.with_extension("json");
        std::fs::write(legacy.join(name.file_name().unwrap()), json).unwrap();
    }
    match bisect_dirs(&legacy, &binary) {
        Err(CapsuleError::MixedEncodings(a, b)) => {
            assert_eq!(a.extension().unwrap(), "json");
            assert_eq!(b, bin_files[0]);
        }
        other => panic!("expected a mixed-encodings error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&legacy);
    let _ = std::fs::remove_dir_all(&binary);
}

/// `dump` is the human view of a capsule: for every capsule of a recorded
/// stream it prints exactly the JSON encoding of the snapshot, and the
/// committed v1 fixtures dump to JSON that loads back to the same state.
#[test]
fn dump_prints_every_capsule_as_its_json_encoding() {
    let cfg = EngineConfig::small_test(4, 17);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        1024.0,
        6,
        SimTime::ZERO,
    );
    let (_, capsules) = captured_run(
        &cfg,
        vec![job],
        &System::SMapReduce,
        cfg.seed,
        SimDuration::from_secs(10),
    )
    .expect("recorded run");
    let dir = tmp_dir("dump");
    let files = checkpoint::write_stream(&dir, &capsules).expect("write stream");
    for (path, state) in files.iter().zip(&capsules) {
        let snap = SimSnapshot::new(state.clone());
        assert_eq!(
            checkpoint::dump(path).expect("dump"),
            checkpoint::to_bytes(&snap, CapsuleFormat::Json),
            "{}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for name in [
        "capsule_pr6_fig1_t60.json",
        "capsule_pr6_ext_faults_t60.json",
    ] {
        let path = fixtures.join(name);
        let json = checkpoint::dump(&path).expect("v1 fixture dumps");
        let back = checkpoint::from_bytes(&path, &json).expect("dump loads back");
        let loaded = checkpoint::load(&path).expect("fixture loads");
        assert_eq!(back.format_version, 1, "{name}: dump kept the v1 envelope");
        assert_eq!(
            serde_json::to_string(&back.state).unwrap(),
            serde_json::to_string(&loaded.state).unwrap(),
            "{name}: dump changed the state"
        );
    }
}
