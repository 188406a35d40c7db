//! The shared entailment cache of the abstraction layer.
//!
//! CIRC's dominant cost is cube/predicate entailment queries: every
//! abstract post-image asks, per predicate, whether the pre-state
//! facts force it true or false. The per-[`AbsCtx`] post-image memos
//! (keyed on cubes) die with their context — a fresh `AbsCtx` is
//! built each outer round because the predicate set grew, and cube
//! keys are meaningless across predicate numberings.
//!
//! [`AbsCache`] memoizes one level lower, on the *concrete LIA atoms*
//! of each query. Atoms are stable across predicate growth: they are
//! built over solver variables fixed by the variable numbering of the
//! CFA (`pre(v) = 2·index`, `post(v) = 2·index + 1`), not by predicate
//! indices. A key is the canonicalized `(premises, goal)` pair —
//! premises sorted and deduplicated, every atom sign-normalized via
//! [`Atom::canonical`] (a semantics-preserving rewrite). Two queries
//! with the same key are therefore the same logical question, so a
//! cached answer can never change a [`crate::CircOutcome`]: the LIA
//! procedure is deterministic and the cache only replays its answers.
//!
//! The cache is an `Arc` handle over a frozen [`AbsSeed`] and a
//! [`ShardedMap`] pair of learned answers: cloning shares the store,
//! so one cache can serve every `AbsCtx` of a run — and every run of
//! a benchmark loop, which is where the CheckSim/ReachAndBuild
//! alternation re-asks the bulk of its questions. Lookups *compute
//! under the shard lock*, so per distinct key there is exactly one
//! miss under any thread interleaving: the hit/miss/query totals
//! reported by [`AbsCache::counters`] are identical between
//! `--jobs 1` and `--jobs N` for the same query multiset.
//!
//! [`AbsCtx`]: crate::AbsCtx

use circ_par::ShardedMap;
use circ_smt::persist::union;
use circ_smt::{lia, Atom};
use circ_stats::AbsCounters;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Canonical form of a premise list: sorted, deduplicated,
/// sign-normalized atoms.
fn canon_premises(premises: &[Atom]) -> Vec<Atom> {
    let mut v: Vec<Atom> = premises.iter().map(Atom::canonical).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[derive(Debug)]
struct CacheShared {
    /// Answers loaded from disk, shared by reference and never copied.
    seed: AbsSeed,
    /// What this cache learned: only keys the seed does not answer.
    entails: ShardedMap<(Vec<Atom>, Atom), bool>,
    sat: ShardedMap<Vec<Atom>, bool>,
    queries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

/// A shareable, thread-safe memo of abstraction-layer LIA queries
/// (see the module docs for the key discipline). Clones share one
/// store.
///
/// A warm cache ([`AbsCache::with_seed`]) holds its seed by reference:
/// a query is answered from the seed, then from what this cache
/// learned, and only then computed. A seed answer counts as a hit.
/// The learned maps never hold a seed key, so [`AbsCache::learned`] is
/// exactly what this cache would add to a flush.
#[derive(Debug, Clone)]
pub struct AbsCache {
    inner: Arc<CacheShared>,
}

impl Default for AbsCache {
    fn default() -> AbsCache {
        AbsCache::new()
    }
}

impl AbsCache {
    fn with_parts(seed: AbsSeed, enabled: bool) -> AbsCache {
        AbsCache {
            inner: Arc::new(CacheShared {
                seed,
                entails: ShardedMap::new(),
                sat: ShardedMap::new(),
                queries: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                enabled,
            }),
        }
    }

    /// A fresh, enabled cache.
    pub fn new() -> AbsCache {
        AbsCache::with_seed(&AbsSeed::empty())
    }

    /// A pass-through handle: queries are counted but never memoized.
    /// Used for the cached-vs-uncached differential.
    pub fn disabled() -> AbsCache {
        AbsCache::with_parts(AbsSeed::empty(), false)
    }

    /// A fresh, enabled cache warm-started from a frozen seed, shared
    /// by reference: a seeded key's first query counts as a *hit* —
    /// which is exactly the observable difference between a warm and
    /// a cold run.
    pub fn with_seed(seed: &AbsSeed) -> AbsCache {
        AbsCache::with_parts(seed.clone(), true)
    }

    /// Whether this handle memoizes results.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn record(&self, hit: bool) {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Does the conjunction of `premises` entail `goal`?
    pub fn entails(&self, premises: &[Atom], goal: &Atom) -> bool {
        if !self.inner.enabled {
            self.record(false);
            return lia::entails(premises, goal);
        }
        let key = (canon_premises(premises), goal.canonical());
        let seeded = self.inner.seed.inner.entails.get(&key).copied();
        self.lookup(seeded, &self.inner.entails, key, || lia::entails(premises, goal))
    }

    /// Is the conjunction of `atoms` satisfiable?
    pub fn is_sat_conj(&self, atoms: &[Atom]) -> bool {
        if !self.inner.enabled {
            self.record(false);
            return lia::is_sat_conj(atoms);
        }
        let key = canon_premises(atoms);
        let seeded = self.inner.seed.inner.sat.get(&key).copied();
        self.lookup(seeded, &self.inner.sat, key, || lia::is_sat_conj(atoms))
    }

    /// The seed's answer if it has one, else the learned map's. The
    /// seed goes first because it takes no lock; it never shares a
    /// key with the learned map, so the order changes no answer and
    /// no counter.
    fn lookup<K: Eq + Hash>(
        &self,
        seeded: Option<bool>,
        learned: &ShardedMap<K, bool>,
        key: K,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let (result, hit) = match seeded {
            Some(result) => (result, true),
            None => learned.get_or_compute(key, compute),
        };
        self.record(hit);
        result
    }

    /// Snapshot of the cumulative counters (use
    /// [`AbsCounters::since`] for per-run deltas on a shared cache).
    pub fn counters(&self) -> AbsCounters {
        AbsCounters {
            queries: self.inner.queries.load(Ordering::Relaxed),
            cache_hits: self.inner.hits.load(Ordering::Relaxed),
            cache_misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of entries answered without computing: seed plus
    /// learned (the two never share a key).
    pub fn len(&self) -> usize {
        self.inner.seed.len() + self.inner.entails.len() + self.inner.sat.len()
    }

    /// True when nothing is seeded or memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What this cache learned, seed excluded.
    pub fn learned(&self) -> AbsSeed {
        AbsSeed::from_entries(self.inner.entails.snapshot(), self.inner.sat.snapshot())
    }

    /// Seed plus learned: everything this cache would flush.
    pub fn snapshot(&self) -> AbsSeed {
        AbsSeed::union([&self.inner.seed, &self.learned()])
    }
}

/// An immutable, shareable set of [`AbsCache`] entries — what the
/// persistence layer loads and saves, and what warm-started caches
/// look answers up in. Cloning shares the maps.
///
/// Keeping the seed frozen (instead of handing concurrent runs one
/// live shared cache) is what makes batch counters deterministic:
/// every file sees exactly the seed, never a sibling's in-flight
/// discoveries, so its hit/miss totals are independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct AbsSeed {
    inner: Arc<AbsSeedInner>,
}

#[derive(Debug, Default)]
struct AbsSeedInner {
    entails: HashMap<(Vec<Atom>, Atom), bool>,
    sat: HashMap<Vec<Atom>, bool>,
}

impl AbsSeed {
    /// The empty seed (a cold start).
    pub fn empty() -> AbsSeed {
        AbsSeed::default()
    }

    /// Builds a seed from raw entry lists (the persistence loader).
    /// Keys are trusted to be canonical — they are either freshly
    /// parsed through the canonicalizing atom constructors or came
    /// from a cache.
    pub fn from_entries(
        entails: Vec<((Vec<Atom>, Atom), bool)>,
        sat: Vec<(Vec<Atom>, bool)>,
    ) -> AbsSeed {
        AbsSeed {
            inner: Arc::new(AbsSeedInner {
                entails: entails.into_iter().collect(),
                sat: sat.into_iter().collect(),
            }),
        }
    }

    /// The key-wise union of `parts`, a later part winning on a
    /// shared key (see [`circ_smt::persist::union`]).
    pub fn union<'a>(parts: impl IntoIterator<Item = &'a AbsSeed> + Clone) -> AbsSeed {
        AbsSeed {
            inner: Arc::new(AbsSeedInner {
                entails: union(parts.clone().into_iter().map(|p| &p.inner.entails)),
                sat: union(parts.into_iter().map(|p| &p.inner.sat)),
            }),
        }
    }

    /// Entailment entries, in unspecified order.
    pub fn entails_entries(&self) -> &HashMap<(Vec<Atom>, Atom), bool> {
        &self.inner.entails
    }

    /// Conjunction-satisfiability entries, in unspecified order.
    pub fn sat_entries(&self) -> &HashMap<Vec<Atom>, bool> {
        &self.inner.sat
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.inner.entails.len() + self.inner.sat.len()
    }

    /// True when the seed carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circ_smt::{LinExpr, SVar};

    fn x() -> LinExpr {
        LinExpr::var(SVar(0))
    }

    #[test]
    fn entailment_is_memoized_and_canonicalized() {
        let cache = AbsCache::new();
        // x = 0 ∧ x ≤ 3 ⊨ x ≤ 5
        let premises = [Atom::eq(x()), Atom::le(x() - LinExpr::constant(3))];
        let goal = Atom::le(x() - LinExpr::constant(5));
        assert!(cache.entails(&premises, &goal));
        // Same question, permuted and duplicated premises: a hit.
        let permuted = [Atom::le(x() - LinExpr::constant(3)), Atom::eq(x()), Atom::eq(x())];
        assert!(cache.entails(&permuted, &goal));
        let c = cache.counters();
        assert_eq!(c.queries, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sign_normalization_shares_entries() {
        let cache = AbsCache::new();
        // x = 0 and -x = 0 are the same atom up to canonical sign.
        assert!(cache.is_sat_conj(&[Atom::eq(x())]));
        assert!(cache.is_sat_conj(&[Atom::eq(-x())]));
        assert_eq!(cache.counters().cache_hits, 1);
    }

    #[test]
    fn clones_share_the_store() {
        let a = AbsCache::new();
        let b = a.clone();
        assert!(a.is_sat_conj(&[Atom::eq(x())]));
        assert!(b.is_sat_conj(&[Atom::eq(x())]));
        assert_eq!(a.counters().cache_hits, 1);
        assert_eq!(b.counters().cache_hits, 1);
    }

    #[test]
    fn disabled_cache_counts_but_never_stores() {
        let cache = AbsCache::disabled();
        let premises = [Atom::eq(x())];
        let goal = Atom::le(x());
        assert!(cache.entails(&premises, &goal));
        assert!(cache.entails(&premises, &goal));
        let c = cache.counters();
        assert_eq!(c.queries, 2);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.cache_misses, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn seeded_cache_hits_where_cold_misses() {
        let cold = AbsCache::new();
        let premises = [Atom::eq(x())];
        let goal = Atom::le(x());
        assert!(cold.entails(&premises, &goal));
        assert!(cold.is_sat_conj(&premises));
        assert_eq!(cold.counters().cache_misses, 2);

        let warm = AbsCache::with_seed(&cold.snapshot());
        assert!(warm.entails(&premises, &goal));
        assert!(warm.is_sat_conj(&premises));
        let c = warm.counters();
        assert_eq!(c.cache_hits, 2, "seeded keys must hit on first query");
        assert_eq!(c.cache_misses, 0);
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = AbsCache::new();
        let b = AbsCache::new();
        let k1 = [Atom::eq(x())];
        let k2 = [Atom::le(x() - LinExpr::constant(7))];
        a.is_sat_conj(&k1);
        a.is_sat_conj(&k2);
        b.is_sat_conj(&k2);
        b.is_sat_conj(&k1);
        assert_eq!(a.snapshot().sat_entries(), b.snapshot().sat_entries());
    }

    #[test]
    fn learned_excludes_the_seed_and_union_keeps_each_key_once() {
        let cold = AbsCache::new();
        cold.is_sat_conj(&[Atom::eq(x())]);
        let warm = AbsCache::with_seed(&cold.snapshot());
        warm.is_sat_conj(&[Atom::eq(x())]);
        warm.is_sat_conj(&[Atom::le(x())]);
        assert_eq!(warm.learned().len(), 1, "the seeded key is looked up, not learned");
        assert_eq!(warm.len(), 2);
        let both = AbsSeed::union([&cold.snapshot(), &warm.snapshot()]);
        assert_eq!(both.len(), 2);
        assert_eq!(warm.counters().queries, 2, "unions touch no counter");
    }

    #[test]
    fn concurrent_hammering_counts_one_miss_per_key() {
        let cache = AbsCache::new();
        let tasks: Vec<u32> = (0..64).collect();
        circ_par::Pool::new(4).map(&tasks, |_| {
            assert!(cache.is_sat_conj(&[Atom::eq(x())]));
        });
        let c = cache.counters();
        assert_eq!(c.queries, 64);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 63);
    }
}
