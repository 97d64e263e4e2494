//! Resume-equivalence proofs: run → capture → restore → run must retrace
//! the straight run exactly, step for step.
//!
//! This is the property that makes capsules trustworthy. Capture is
//! purely observational (it happens at step boundaries both stepping
//! modes already land on, and draws nothing from the RNG), so a run
//! interrupted at any checkpoint and resumed from the capsule must
//! produce the *identical* trajectory — same per-step state hashes, same
//! auditor fingerprint, bit-equal floats.
//!
//! [`prove_resume_equivalence`] checks this with the engine's rolling
//! per-step hash: the resumed run's hash trace must equal the straight
//! run's trace over the post-resume suffix, one `u64` comparison per
//! step. That is both *cheaper* than re-serializing two full reports and
//! *sharper* — a divergence is pinned to the exact step it first
//! happened, not discovered at the end of the run.
//! [`prove_resume_equivalence_full`] additionally byte-compares the two
//! serialized reports, the belt-and-braces form used by the slower
//! integration gates.

use mapreduce::auditor;
use mapreduce::policy::SlotPolicy;
use mapreduce::{Drive, Engine, EngineArena, EngineConfig, JobSpec, Telemetry};
use simgrid::error::SimError;
use simgrid::time::{SimDuration, SimTime};

/// The first step at which the straight and resumed hash traces disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashMismatch {
    /// 1-based completed-step count at the divergence.
    pub step: u64,
    /// Simulated time (ms) after that step on the straight run.
    pub at_ms: u64,
    /// Rolling state hash on the straight run; 0 when the straight trace
    /// ended before `step` (the resumed run took extra steps).
    pub straight: u64,
    /// Rolling state hash on the resumed run; 0 when the resumed trace
    /// ended before `step`.
    pub resumed: u64,
}

/// The outcome of one resume-equivalence check.
#[derive(Debug, Clone)]
pub struct EquivalenceProof {
    /// Policy name the cell ran under.
    pub policy: String,
    /// How many capsules the straight run captured.
    pub capsules: usize,
    /// The checkpoint instant the interrupted run resumed from (the
    /// midpoint capsule — past cluster warm-up, before the tail).
    pub resumed_from: SimTime,
    /// Auditor fingerprint of the uninterrupted run.
    pub straight_fingerprint: u64,
    /// Auditor fingerprint of the capture-then-resume run.
    pub resumed_fingerprint: u64,
    /// How many post-resume steps had their hashes compared (the whole
    /// shared suffix when the traces agree).
    pub steps_compared: usize,
    /// The first step whose rolling hashes disagree, if any.
    pub first_divergence: Option<HashMismatch>,
    /// Whether the two full reports (counters, events, series, floats)
    /// serialize to identical bytes. `None` when the check was not run
    /// ([`prove_resume_equivalence`] proves through hashes alone);
    /// `Some(_)` only from [`prove_resume_equivalence_full`].
    pub byte_identical: Option<bool>,
}

impl EquivalenceProof {
    /// The proof holds when the resumed run retraced the straight run's
    /// every post-resume step and the auditor fingerprints match (and,
    /// when the byte-level check ran, the reports are byte-identical).
    pub fn holds(&self) -> bool {
        self.first_divergence.is_none()
            && self.steps_compared > 0
            && self.straight_fingerprint == self.resumed_fingerprint
            && self.byte_identical != Some(false)
    }
}

/// Prove resume equivalence for one cell: run `jobs` under a policy from
/// `make_policy` capturing a capsule every `every`, then resume the
/// midpoint capsule under a *fresh* policy instance and compare the two
/// hash traces step by step. `make_policy` is called twice and must
/// return equivalent fresh instances (the restored one is handed the
/// captured state).
pub fn prove_resume_equivalence(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    every: SimDuration,
    make_policy: &mut dyn FnMut() -> Box<dyn SlotPolicy>,
) -> Result<EquivalenceProof, SimError> {
    prove(cfg, jobs, every, make_policy, false)
}

/// [`prove_resume_equivalence`] plus the byte-level report comparison —
/// strictly stronger (it also covers report fields the per-step hash
/// does not fold, such as event logs and sampled series).
pub fn prove_resume_equivalence_full(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    every: SimDuration,
    make_policy: &mut dyn FnMut() -> Box<dyn SlotPolicy>,
) -> Result<EquivalenceProof, SimError> {
    prove(cfg, jobs, every, make_policy, true)
}

fn prove(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    every: SimDuration,
    make_policy: &mut dyn FnMut() -> Box<dyn SlotPolicy>,
    byte_level: bool,
) -> Result<EquivalenceProof, SimError> {
    let (telem, mut arena) = (Telemetry::disabled(), EngineArena::new());
    let mut straight_policy = make_policy();
    let straight = Engine::drive(
        Engine::new(cfg.clone()).prepare(jobs.to_vec())?,
        straight_policy.as_mut(),
        Drive {
            snapshot_every: Some(every),
            trace_hashes: true,
            ..Drive::new(&telem, &mut arena)
        },
    )?;
    let capsules = straight.snapshots;
    let straight_trace = straight.hash_trace;
    let straight = straight.report.expect("an unbounded drive finishes");
    // t=0 is a multiple of every period, so a completed run always
    // captures at least one capsule — but guard rather than index: a
    // refactor that breaks that invariant must not turn into a panic
    if capsules.is_empty() {
        return Err(SimError::InvalidConfig(
            "resume-equivalence proof: the straight run captured no capsules \
             (is the snapshot period longer than the run?)"
                .into(),
        ));
    }
    let mid = capsules[capsules.len() / 2].clone();
    let resumed_from = mid.at();
    let mut resumed_policy = make_policy();
    let resumed = Engine::drive(
        mid,
        resumed_policy.as_mut(),
        Drive {
            trace_hashes: true,
            ..Drive::new(&telem, &mut arena)
        },
    )?;
    let resumed_trace = resumed.hash_trace;
    let resumed = resumed.report.expect("an unbounded drive finishes");
    let (steps_compared, first_divergence) = compare_traces(&straight_trace, &resumed_trace);
    let byte_identical = byte_level.then(|| {
        let straight_bytes = serde_json::to_string(&straight).expect("report serialises");
        let resumed_bytes = serde_json::to_string(&resumed).expect("report serialises");
        straight_bytes == resumed_bytes
    });
    Ok(EquivalenceProof {
        policy: straight.policy.clone(),
        capsules: capsules.len(),
        resumed_from,
        straight_fingerprint: auditor::fingerprint(&straight),
        resumed_fingerprint: auditor::fingerprint(&resumed),
        steps_compared,
        first_divergence,
        byte_identical,
    })
}

/// Align the resumed trace against the straight trace's suffix by step
/// number and compare hashes pointwise. Returns how many steps agreed
/// and the first mismatch, if any.
pub fn compare_traces(
    straight: &[mapreduce::HashPoint],
    resumed: &[mapreduce::HashPoint],
) -> (usize, Option<HashMismatch>) {
    let Some(first) = resumed.first() else {
        // a resume at the final checkpoint legitimately takes zero steps;
        // `holds()` separately requires steps_compared > 0, so callers
        // that expect a mid-run resume still reject this
        return (0, None);
    };
    let Some(start) = straight.iter().position(|p| p.step == first.step) else {
        return (
            0,
            Some(HashMismatch {
                step: first.step,
                at_ms: first.at_ms,
                straight: 0,
                resumed: first.hash,
            }),
        );
    };
    let suffix = &straight[start..];
    let mut compared = 0usize;
    for (s, r) in suffix.iter().zip(resumed.iter()) {
        if s.step != r.step || s.at_ms != r.at_ms || s.hash != r.hash {
            return (
                compared,
                Some(HashMismatch {
                    step: s.step,
                    at_ms: s.at_ms,
                    straight: s.hash,
                    resumed: r.hash,
                }),
            );
        }
        compared += 1;
    }
    // one run taking more steps than the other is itself a divergence
    if suffix.len() != resumed.len() {
        let (extra_is_straight, extra) = if suffix.len() > resumed.len() {
            (true, suffix[compared])
        } else {
            (false, resumed[compared])
        };
        return (
            compared,
            Some(HashMismatch {
                step: extra.step,
                at_ms: extra.at_ms,
                straight: if extra_is_straight { extra.hash } else { 0 },
                resumed: if extra_is_straight { 0 } else { extra.hash },
            }),
        );
    }
    (compared, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::policy::StaticSlotPolicy;
    use mapreduce::{HashPoint, JobProfile};
    use simgrid::time::SimTime;

    #[test]
    fn equivalence_holds_for_a_small_static_run() {
        let cfg = EngineConfig::small_test(4, 9);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1536.0,
            8,
            SimTime::ZERO,
        );
        let proof = prove_resume_equivalence(&cfg, &[job], SimDuration::from_secs(10), &mut || {
            Box::new(StaticSlotPolicy)
        })
        .expect("both runs complete");
        assert!(proof.holds(), "{proof:?}");
        assert_eq!(proof.policy, "HadoopV1");
        assert!(proof.capsules >= 2);
        assert!(proof.resumed_from > SimTime::ZERO, "midpoint is mid-run");
        assert!(proof.steps_compared > 0, "suffix was actually compared");
        assert_eq!(proof.byte_identical, None, "hash proof skips byte check");
    }

    #[test]
    fn equivalence_holds_for_the_slot_manager() {
        let cfg = EngineConfig::small_test(4, 21);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let proof =
            prove_resume_equivalence_full(&cfg, &[job], SimDuration::from_secs(20), &mut || {
                Box::new(smapreduce::SlotManagerPolicy::paper_default())
            })
            .expect("both runs complete");
        assert!(proof.holds(), "{proof:?}");
        assert_eq!(proof.policy, "SMapReduce");
        assert_eq!(proof.byte_identical, Some(true));
    }

    fn pt(step: u64, hash: u64) -> HashPoint {
        HashPoint {
            step,
            at_ms: step * 1_000,
            hash,
        }
    }

    #[test]
    fn trace_comparison_pins_the_first_divergent_step() {
        let straight = vec![pt(1, 10), pt(2, 20), pt(3, 30), pt(4, 40)];
        // resumed from the capsule captured after step 2
        let resumed_good = vec![pt(3, 30), pt(4, 40)];
        assert_eq!(compare_traces(&straight, &resumed_good), (2, None));

        let resumed_bad = vec![pt(3, 30), pt(4, 41)];
        let (compared, div) = compare_traces(&straight, &resumed_bad);
        assert_eq!(compared, 1);
        let div = div.expect("diverges at step 4");
        assert_eq!((div.step, div.straight, div.resumed), (4, 40, 41));

        // a resumed run that takes extra (or fewer) steps diverges too
        let resumed_long = vec![pt(3, 30), pt(4, 40), pt(5, 50)];
        let (_, div) = compare_traces(&straight, &resumed_long);
        let div = div.expect("extra step is a divergence");
        assert_eq!((div.step, div.straight, div.resumed), (5, 0, 50));
    }
}
