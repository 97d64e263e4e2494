//! Warm-start prefix deduplication.
//!
//! Sweep cells that share a prefix — same cluster, seed, and job set, but
//! a different fault plan, policy, or knob bound at resume time — can all
//! warm-start from one `Engine::prepare` capsule (cluster booted, DFS
//! layouts materialised, t = 0). The cache keys capsules by an FNV-1a
//! fingerprint ([`mapreduce::fnv1a`]) of their packed *binary* encoding
//! ([`checkpoint::state_encoding`]): however many grid axes independently
//! prepare "the same" prefix, exactly one capsule stays resident and every
//! cell resumes a clone of it. The packed encoding is roughly a third of
//! the bytes of JSON and needs no float formatting on the hot sweep path
//! (so this key is not [`EngineState::fingerprint`], which hashes JSON).
//!
//! The 64-bit fingerprint is a key, not a proof of identity: every hit is
//! confirmed by comparing the full encoding the fingerprint was
//! computed from. A colliding pair of distinct prefixes therefore ends up
//! as two resident capsules (and a bumped collision counter) instead of
//! one cell silently resuming the other's state — which would break the
//! byte-identical determinism contract with no diagnostic.

use mapreduce::EngineState;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One interned capsule plus the packed encoding that identifies it.
#[derive(Debug)]
struct Resident {
    /// Packed binary encoding the fingerprint was computed from, compared
    /// in full on every fingerprint hit.
    encoding: Vec<u8>,
    capsule: Arc<EngineState>,
}

/// A fingerprint-keyed pool of shared warm-start capsules. Cheap to share
/// across pool workers (`&PrefixCache` is `Sync`).
#[derive(Debug, Default)]
pub struct PrefixCache {
    by_fingerprint: Mutex<HashMap<u64, Vec<Resident>>>,
    hits: AtomicU64,
    collisions: AtomicU64,
}

impl PrefixCache {
    pub fn new() -> PrefixCache {
        PrefixCache::default()
    }

    /// Deduplicate `state` against the cache: if a capsule with the same
    /// fingerprint *and* the same packed encoding is already resident,
    /// drop `state` and return the resident one (counting a hit);
    /// otherwise `state` becomes resident. A fingerprint hit whose
    /// packed encoding differs is a collision: the states stay
    /// distinct and [`PrefixCache::fingerprint_collisions`] is bumped.
    pub fn intern(&self, state: EngineState) -> Arc<EngineState> {
        let encoding = checkpoint::state_encoding(&state);
        let fingerprint = mapreduce::fnv1a(mapreduce::FNV_OFFSET, &encoding);
        self.intern_keyed(fingerprint, encoding, state)
    }

    /// [`PrefixCache::intern`] with the fingerprint supplied by the
    /// caller — split out so tests can force a collision.
    fn intern_keyed(
        &self,
        fingerprint: u64,
        encoding: Vec<u8>,
        state: EngineState,
    ) -> Arc<EngineState> {
        let mut map = self.by_fingerprint.lock().expect("prefix cache");
        let bucket = map.entry(fingerprint).or_default();
        if let Some(resident) = bucket.iter().find(|r| r.encoding == encoding) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&resident.capsule);
        }
        if !bucket.is_empty() {
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        let capsule = Arc::new(state);
        bucket.push(Resident {
            encoding,
            capsule: Arc::clone(&capsule),
        });
        capsule
    }

    /// Distinct capsules resident.
    pub fn capsules(&self) -> usize {
        self.by_fingerprint
            .lock()
            .expect("prefix cache")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Interns that collapsed onto an already-resident capsule.
    pub fn dedup_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fingerprint hits whose packed encodings differed — distinct
    /// prefixes that would have been silently aliased by a
    /// fingerprint-only cache.
    pub fn fingerprint_collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
    use simgrid::SimTime;

    fn capsule(seed: u64) -> EngineState {
        let cfg = EngineConfig::small_test(4, seed);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            8,
            SimTime::ZERO,
        );
        Engine::new(cfg).prepare(vec![job]).expect("prepare")
    }

    #[test]
    fn identical_prefixes_collapse_to_one_capsule() {
        let cache = PrefixCache::new();
        let a = cache.intern(capsule(7));
        let b = cache.intern(capsule(7));
        assert!(Arc::ptr_eq(&a, &b), "same prefix must share one capsule");
        assert_eq!(cache.capsules(), 1);
        assert_eq!(cache.dedup_hits(), 1);
        assert_eq!(cache.fingerprint_collisions(), 0);
    }

    #[test]
    fn different_seeds_stay_distinct() {
        let cache = PrefixCache::new();
        let a = cache.intern(capsule(1));
        let b = cache.intern(capsule(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.capsules(), 2);
        assert_eq!(cache.dedup_hits(), 0);
    }

    #[test]
    fn colliding_fingerprints_do_not_alias_distinct_prefixes() {
        // force two different states onto one fingerprint key: the cache
        // must keep them distinct instead of handing the second interner
        // the first state's capsule
        let cache = PrefixCache::new();
        let (one, two) = (capsule(1), capsule(2));
        let (canon_one, canon_two) = (
            checkpoint::state_encoding(&one),
            checkpoint::state_encoding(&two),
        );
        assert_ne!(canon_one, canon_two, "states must actually differ");
        let a = cache.intern_keyed(42, canon_one.clone(), one);
        let b = cache.intern_keyed(42, canon_two, two);
        assert!(!Arc::ptr_eq(&a, &b), "collision aliased distinct prefixes");
        assert_eq!(cache.capsules(), 2);
        assert_eq!(cache.dedup_hits(), 0);
        assert_eq!(cache.fingerprint_collisions(), 1);

        // a true re-intern under the colliding key still deduplicates
        let c = cache.intern_keyed(42, canon_one, capsule(1));
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.dedup_hits(), 1);
        assert_eq!(cache.fingerprint_collisions(), 1);
    }
}
