//! Divergence bisection: find the first checkpoint where two capsule
//! streams disagree, and explain *which fields* disagree.
//!
//! The intended workflow: a run that should be deterministic produced two
//! different results (different machine, different build, a suspected
//! nondeterminism bug). Record both with `--checkpoint-every` into two
//! directories, then bisect. Real divergences are **monotone** — once the
//! two states differ, they stay different (state only accumulates) — so a
//! binary search over the paired capsules finds the first divergent
//! instant in `O(log n)` comparisons, and a field-by-field diff of that
//! capsule names the subsystem that forked first.
//!
//! Paired capsules are compared byte for byte: every capsule is written
//! by one deterministic encoder, so byte inequality is value inequality.
//! A JSON capsule paired with a binary one (only a stream recorded while
//! JSON capsules were still written can produce such a pair) is a
//! [`CapsuleError::MixedEncodings`] error, not a divergence.
//!
//! [`bisect_hash_traces`] is the cheaper route: it scans the two runs'
//! per-step hash traces first (one u64 comparison per step, no capsule
//! I/O at all) and then parses only the single capsule pair at the
//! divergent instant.
//!
//! The binary search verifies its answer (the found capsule differs, its
//! predecessor does not), so even on a non-monotone stream — e.g. one
//! corrupted file in an otherwise identical pair — the result is still a
//! genuine *locally first* divergence.

use crate::{list_capsules, load, read_hash_trace, CapsuleError, HASH_TRACE_FILE};
use simgrid::time::SimTime;
use std::path::{Path, PathBuf};

/// One leaf-level disagreement between the two capsules.
#[derive(Debug, Clone)]
pub struct FieldDiff {
    /// Dotted path into the capsule JSON, e.g. `state.rng.state[2]`.
    pub path: String,
    pub a: String,
    pub b: String,
}

/// The first divergent checkpoint of two streams.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the paired stream (0-based).
    pub index: usize,
    /// The capture instant of the divergent pair.
    pub at: SimTime,
    /// The divergent capsule on each side. When `stream_truncated`, only
    /// the longer stream has a capsule here — the other path is the
    /// truncated stream's *directory* (there is no file to point at).
    pub path_a: PathBuf,
    pub path_b: PathBuf,
    /// True when the streams are identical over their shared horizon and
    /// the divergence is one stream simply ending early.
    pub stream_truncated: bool,
    /// Leaf fields that disagree, in capsule order.
    pub diffs: Vec<FieldDiff>,
}

/// Decode one capsule file through the crate's one decode path into the
/// value tree the field diff walks.
fn capsule_value(path: &Path) -> Result<serde_json::Value, CapsuleError> {
    serde_json::to_value(&load(path)?)
        .map_err(|e| CapsuleError::Malformed(path.to_path_buf(), e.to_string()))
}

/// Bisect two capsule streams to their first divergent checkpoint.
/// Returns `None` when every paired capsule is equivalent and the
/// streams have the same length.
pub fn bisect_dirs(dir_a: &Path, dir_b: &Path) -> Result<Option<Divergence>, CapsuleError> {
    let list_a = list_capsules(dir_a)?;
    let list_b = list_capsules(dir_b)?;
    if list_a.is_empty() {
        return Err(CapsuleError::EmptyStream(dir_a.to_path_buf()));
    }
    if list_b.is_empty() {
        return Err(CapsuleError::EmptyStream(dir_b.to_path_buf()));
    }
    let common = list_a.len().min(list_b.len());
    for (i, ((at_a, path_a), (at_b, path_b))) in list_a.iter().zip(&list_b).enumerate() {
        if at_a != at_b {
            return Err(CapsuleError::Malformed(
                dir_b.to_path_buf(),
                format!(
                    "streams were captured on different grids: pair {i} is {} ms vs {} ms \
                     (same --checkpoint-every required)",
                    at_a.as_millis(),
                    at_b.as_millis()
                ),
            ));
        }
        if path_a.extension() != path_b.extension() {
            return Err(CapsuleError::MixedEncodings(path_a.clone(), path_b.clone()));
        }
    }
    let differs = |i: usize| -> Result<bool, CapsuleError> {
        let read = |p: &PathBuf| std::fs::read(p).map_err(|e| CapsuleError::Io(p.clone(), e));
        Ok(read(&list_a[i].1)? != read(&list_b[i].1)?)
    };

    if !differs(common - 1)? {
        // identical up to the shared horizon; a length mismatch means one
        // run kept checkpointing past the other's end
        if list_a.len() != list_b.len() {
            let a_longer = list_a.len() > list_b.len();
            let (extra, longer_dir) = if a_longer {
                (&list_a[common], dir_a)
            } else {
                (&list_b[common], dir_b)
            };
            return Ok(Some(Divergence {
                index: common,
                at: extra.0,
                path_a: if a_longer {
                    extra.1.clone()
                } else {
                    dir_a.to_path_buf()
                },
                path_b: if a_longer {
                    dir_b.to_path_buf()
                } else {
                    extra.1.clone()
                },
                stream_truncated: true,
                diffs: vec![FieldDiff {
                    path: "(stream length)".into(),
                    a: format!("{} capsules", list_a.len()),
                    b: format!(
                        "{} capsules ({} continues at {} ms)",
                        list_b.len(),
                        longer_dir.display(),
                        extra.0.as_millis()
                    ),
                }],
            }));
        }
        return Ok(None);
    }

    // first differing index, assuming monotone divergence; the loop
    // invariant (differs(hi), !differs(lo - 1)) makes the answer a
    // verified locally-first divergence even if the assumption is broken
    let (mut lo, mut hi) = (0usize, common - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if differs(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    let va = capsule_value(&list_a[lo].1)?;
    let vb = capsule_value(&list_b[lo].1)?;
    let mut diffs = Vec::new();
    diff_value("", &va, &vb, &mut diffs);
    Ok(Some(Divergence {
        index: lo,
        at: list_a[lo].0,
        path_a: list_a[lo].1.clone(),
        path_b: list_b[lo].1.clone(),
        stream_truncated: false,
        diffs,
    }))
}

/// The first step at which two runs' hash traces disagree — found without
/// reading any capsule except the one divergent pair.
#[derive(Debug, Clone)]
pub struct TraceDivergence {
    /// First step whose hashes disagree (or the first step past the
    /// shorter trace, when one trace is a prefix of the other).
    pub step: u64,
    pub at: SimTime,
    /// The rolling digests on each side; 0 for a side whose trace ended
    /// before `step`.
    pub hash_a: u64,
    pub hash_b: u64,
    /// Field-level diff of the first capsule pair captured at or after
    /// the divergent step — the only capsules parsed. `None` when the
    /// streams hold no paired capsule at or past that instant (the
    /// divergence happened after the last checkpoint).
    pub capsule_diff: Option<Divergence>,
}

/// Compare the hash traces recorded alongside two capsule streams
/// (`<dir>/hash-trace.txt`), and on divergence parse only the first
/// capsule pair at or after the divergent instant. One u64 comparison
/// per step, `O(1)` capsule reads.
pub fn bisect_hash_traces(
    dir_a: &Path,
    dir_b: &Path,
) -> Result<Option<TraceDivergence>, CapsuleError> {
    let trace_a = read_hash_trace(&dir_a.join(HASH_TRACE_FILE))?;
    let trace_b = read_hash_trace(&dir_b.join(HASH_TRACE_FILE))?;
    let common = trace_a.len().min(trace_b.len());
    for i in 0..common {
        let (pa, pb) = (trace_a[i], trace_b[i]);
        if pa.step != pb.step || pa.at_ms != pb.at_ms {
            return Err(CapsuleError::Malformed(
                dir_b.join(HASH_TRACE_FILE),
                format!(
                    "traces run on different step grids at line {}: \
                     step {} @ {} ms vs step {} @ {} ms",
                    i + 1,
                    pa.step,
                    pa.at_ms,
                    pb.step,
                    pb.at_ms
                ),
            ));
        }
        if pa.hash != pb.hash {
            let at = SimTime::from_millis(pa.at_ms);
            return Ok(Some(TraceDivergence {
                step: pa.step,
                at,
                hash_a: pa.hash,
                hash_b: pb.hash,
                capsule_diff: diff_pair_at(dir_a, dir_b, at)?,
            }));
        }
    }
    if trace_a.len() != trace_b.len() {
        let extra = if trace_a.len() > trace_b.len() {
            trace_a[common]
        } else {
            trace_b[common]
        };
        return Ok(Some(TraceDivergence {
            step: extra.step,
            at: SimTime::from_millis(extra.at_ms),
            hash_a: if trace_a.len() > common {
                extra.hash
            } else {
                0
            },
            hash_b: if trace_b.len() > common {
                extra.hash
            } else {
                0
            },
            capsule_diff: diff_pair_at(dir_a, dir_b, SimTime::from_millis(extra.at_ms))?,
        }));
    }
    Ok(None)
}

/// Diff the first capsule pair captured at or after `at`: the earliest
/// checkpoint that can exhibit the divergence.
fn diff_pair_at(
    dir_a: &Path,
    dir_b: &Path,
    at: SimTime,
) -> Result<Option<Divergence>, CapsuleError> {
    let list_a = list_capsules(dir_a)?;
    let list_b = list_capsules(dir_b)?;
    for (index, (instant_a, path_a)) in list_a.iter().enumerate() {
        if *instant_a < at {
            continue;
        }
        let Some((_, path_b)) = list_b.iter().find(|(instant_b, _)| instant_b == instant_a) else {
            continue;
        };
        let va = capsule_value(path_a)?;
        let vb = capsule_value(path_b)?;
        let mut diffs = Vec::new();
        diff_value("", &va, &vb, &mut diffs);
        return Ok(Some(Divergence {
            index,
            at: *instant_a,
            path_a: path_a.clone(),
            path_b: path_b.clone(),
            stream_truncated: false,
            diffs,
        }));
    }
    Ok(None)
}

/// Recursively collect leaf-level differences between two JSON values.
fn diff_value(path: &str, a: &serde_json::Value, b: &serde_json::Value, out: &mut Vec<FieldDiff>) {
    use serde_json::Value;
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            // capsule objects carry identical field orders (they come from
            // the same serializer); walk a's order, then b-only keys
            for (key, va) in fa {
                let sub = join(path, key);
                match fb.iter().find(|(k, _)| k == key) {
                    Some((_, vb)) => diff_value(&sub, va, vb, out),
                    None => out.push(FieldDiff {
                        path: sub,
                        a: render(va),
                        b: "(absent)".into(),
                    }),
                }
            }
            for (key, vb) in fb {
                if !fa.iter().any(|(k, _)| k == key) {
                    out.push(FieldDiff {
                        path: join(path, key),
                        a: "(absent)".into(),
                        b: render(vb),
                    });
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            for i in 0..xa.len().max(xb.len()) {
                let sub = format!("{path}[{i}]");
                match (xa.get(i), xb.get(i)) {
                    (Some(va), Some(vb)) => diff_value(&sub, va, vb, out),
                    (Some(va), None) => out.push(FieldDiff {
                        path: sub,
                        a: render(va),
                        b: "(absent)".into(),
                    }),
                    (None, Some(vb)) => out.push(FieldDiff {
                        path: sub,
                        a: "(absent)".into(),
                        b: render(vb),
                    }),
                    (None, None) => unreachable!(),
                }
            }
        }
        _ => {
            if a != b {
                out.push(FieldDiff {
                    path: path.to_string(),
                    a: render(a),
                    b: render(b),
                });
            }
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Short, single-line rendering of a leaf value for diff output.
fn render(v: &serde_json::Value) -> String {
    let mut s = serde_json::to_string(v).unwrap_or_else(|_| "(unprintable)".into());
    if s.len() > 96 {
        s.truncate(93);
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capsule_file_name, codec, write_stream};
    use mapreduce::policy::StaticSlotPolicy;
    use mapreduce::Telemetry;
    use mapreduce::{Drive, Engine, EngineArena, EngineConfig, HashPoint, JobProfile, JobSpec};
    use serde_json::Value;
    use simgrid::time::SimDuration;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn fresh_dirs(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("smr-bisect-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (dir_a, dir_b) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&dir_a).unwrap();
        std::fs::create_dir_all(&dir_b).unwrap();
        (base, dir_a, dir_b)
    }

    /// Record one small run into both `dir_a` and `dir_b`, then bump the
    /// step counter of every `dir_b` capsule from index `from` on — the
    /// way a silently divergent replay would. Returns the capture instants.
    fn diverging_streams(dir_a: &Path, dir_b: &Path, from: usize) -> Vec<SimTime> {
        let cfg = EngineConfig::small_test(4, 5);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let (telem, mut arena) = (Telemetry::disabled(), EngineArena::new());
        let drive = Drive {
            snapshot_every: Some(SimDuration::from_secs(5)),
            ..Drive::new(&telem, &mut arena)
        };
        let state = Engine::new(cfg).prepare(vec![job]).expect("boots");
        let run = Engine::drive(state, &mut StaticSlotPolicy, drive).expect("runs");
        write_stream(dir_a, &run.snapshots).expect("write a");
        let paths = write_stream(dir_b, &run.snapshots).expect("write b");
        for path in &paths[from..] {
            let mut v = codec::from_binary(&std::fs::read(path).unwrap()).expect("decodes");
            let mut state = v.get("state").unwrap().clone();
            let steps = state.get("steps").unwrap().as_u64().unwrap();
            state.set("steps", Value::U64(steps + 100));
            v.set("state", state);
            std::fs::write(path, codec::to_binary(&v)).unwrap();
        }
        run.snapshots.iter().map(|s| s.at()).collect()
    }

    #[test]
    fn diff_names_the_paths_that_disagree() {
        let a = obj(vec![
            ("now", Value::U64(12000)),
            (
                "rng",
                obj(vec![(
                    "state",
                    Value::Array(vec![Value::U64(1), Value::U64(2)]),
                )]),
            ),
            ("steps", Value::U64(7)),
        ]);
        let b = obj(vec![
            ("now", Value::U64(12000)),
            (
                "rng",
                obj(vec![(
                    "state",
                    Value::Array(vec![Value::U64(1), Value::U64(9)]),
                )]),
            ),
            ("steps", Value::U64(8)),
        ]);
        let mut diffs = Vec::new();
        diff_value("", &a, &b, &mut diffs);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, vec!["rng.state[1]", "steps"]);
        assert_eq!(diffs[0].a, "2");
        assert_eq!(diffs[0].b, "9");
    }

    #[test]
    fn diff_reports_missing_fields_and_lengths() {
        let a = obj(vec![("xs", Value::Array(vec![Value::U64(1)]))]);
        let b = obj(vec![
            ("xs", Value::Array(vec![Value::U64(1), Value::U64(2)])),
            ("extra", Value::Bool(true)),
        ]);
        let mut diffs = Vec::new();
        diff_value("", &a, &b, &mut diffs);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, vec!["xs[1]", "extra"]);
        assert_eq!(diffs[0].a, "(absent)");
    }

    #[test]
    fn bisect_finds_the_first_divergent_pair() {
        let (base, dir_a, dir_b) = fresh_dirs("first");
        let instants = diverging_streams(&dir_a, &dir_b, 3);
        assert!(instants.len() >= 5, "{} capsules", instants.len());
        let div = bisect_dirs(&dir_a, &dir_b)
            .expect("bisect runs")
            .expect("streams diverge");
        assert_eq!(div.index, 3);
        assert_eq!(div.at, instants[3]);
        assert!(!div.stream_truncated);
        assert_eq!(div.diffs.len(), 1, "{:?}", div.diffs);
        assert_eq!(div.diffs[0].path, "state.steps");
        let steps: u64 = div.diffs[0].a.parse().unwrap();
        assert_eq!(div.diffs[0].b, (steps + 100).to_string());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn identical_streams_bisect_to_none() {
        let (base, dir_a, dir_b) = fresh_dirs("eq");
        let name = |i: u64| capsule_file_name(SimTime::from_secs(i));
        for i in 0..4u64 {
            std::fs::write(dir_a.join(name(i)), [i as u8]).unwrap();
            std::fs::write(dir_b.join(name(i)), [i as u8]).unwrap();
        }
        assert!(bisect_dirs(&dir_a, &dir_b).expect("runs").is_none());
        // a truncated (but otherwise identical) stream diverges at the cut
        std::fs::remove_file(dir_b.join(name(3))).unwrap();
        let div = bisect_dirs(&dir_a, &dir_b)
            .expect("runs")
            .expect("length mismatch is a divergence");
        assert_eq!(div.index, 3);
        assert!(div.stream_truncated);
        // the longer stream's first unmatched capsule is a real file; the
        // truncated side is represented by its directory
        assert_eq!(div.path_a, dir_a.join(name(3)));
        assert_eq!(div.path_b, dir_b);
        assert_eq!(div.diffs[0].path, "(stream length)");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn hash_trace_bisect_parses_only_the_divergent_pair() {
        let (base, dir_a, dir_b) = fresh_dirs("trace");
        let instants = diverging_streams(&dir_a, &dir_b, 0);
        // the first capsule at or after 15 s, and the one before it
        let hit = instants
            .iter()
            .position(|t| *t >= SimTime::from_secs(15))
            .expect("capsule past 15 s");
        assert!(hit > 0, "need a capsule before the divergence");
        let mk = |hashes: &[u64]| -> Vec<HashPoint> {
            hashes
                .iter()
                .enumerate()
                .map(|(i, h)| HashPoint {
                    step: i as u64 + 1,
                    at_ms: (i as u64 + 1) * 5_000,
                    hash: *h,
                })
                .collect()
        };
        crate::write_hash_trace(&dir_a, &mk(&[10, 20, 30, 40, 50])).unwrap();
        crate::write_hash_trace(&dir_b, &mk(&[10, 20, 31, 41, 51])).unwrap();
        // step 3 diverges at 15 s, so the pair at `hit` is the one that
        // gets parsed. A deliberately corrupt capsule pair just before it
        // proves nothing earlier is read.
        for dir in [&dir_a, &dir_b] {
            let before = dir.join(capsule_file_name(instants[hit - 1]));
            std::fs::write(before, "SMRBcorrupt").unwrap();
        }
        let div = bisect_hash_traces(&dir_a, &dir_b)
            .expect("runs")
            .expect("traces diverge");
        assert_eq!(div.step, 3);
        assert_eq!(div.at, SimTime::from_millis(15_000));
        assert_eq!((div.hash_a, div.hash_b), (30, 31));
        let pair = div.capsule_diff.expect("capsule pair past 15 s");
        assert_eq!((pair.index, pair.at), (hit, instants[hit]));
        assert_eq!(pair.diffs[0].path, "state.steps");
        // identical traces bisect to none without touching any capsule
        crate::write_hash_trace(&dir_b, &mk(&[10, 20, 30, 40, 50])).unwrap();
        assert!(bisect_hash_traces(&dir_a, &dir_b).expect("runs").is_none());
        let _ = std::fs::remove_dir_all(&base);
    }
}
