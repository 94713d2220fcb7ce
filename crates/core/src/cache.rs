//! Memoization for Algorithm 1: a sharded, thread-safe equilibrium cache.
//!
//! Parameter sweeps re-solve the same game many times — every seed, fault
//! plan, and policy variation of one `(GameConfig, DiscreteDensity,
//! SolverOptions)` triple shares one equilibrium. [`EquilibriumCache`]
//! keys solved equilibria by a canonical hash of that triple (every `f64`
//! hashed via its bit pattern, full-key equality checked on lookup, so
//! hash collisions can never alias two games) and guarantees
//! **single-flight** solves: when several workers ask for the same
//! uncached game at once, exactly one runs Algorithm 1 and the rest block
//! on its [`OnceLock`] — a sweep pays one miss per distinct game, no
//! matter how it is scheduled.
//!
//! Because the solver is deterministic, a cached equilibrium is
//! bit-identical to a fresh solve; caching changes wall-clock time and
//! nothing else. Non-convergence is cached too ([`GameError`] is stored
//! alongside success), so a pathological configuration is diagnosed once
//! instead of once per trial.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};
use sprint_stats::density::DiscreteDensity;
use sprint_telemetry::{Noop, Registry};

use crate::bellman::BellmanMethod;
use crate::config::GameConfig;
use crate::equilibrium::Equilibrium;
use crate::meanfield::{MeanFieldSolver, SolverOptions};
use crate::GameError;

/// Number of independently locked shards. Lookups hash to a shard, so
/// concurrent workers solving *different* games rarely contend.
const SHARDS: usize = 8;

/// Default total capacity (entries across all shards).
const DEFAULT_CAPACITY: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical cache key: one solvable game, byte-exact.
///
/// Two keys are equal iff every game parameter, every solver option, and
/// every density bin agree *bitwise* (`f64::to_bits`): configurations that
/// differ only in `SolverOptions` — or in the last bit of one probability —
/// occupy distinct entries.
#[derive(Debug, Clone)]
pub struct SolveKey {
    config: GameConfig,
    options: SolverOptions,
    lo: f64,
    hi: f64,
    pdf: Vec<f64>,
    hash: u64,
}

impl SolveKey {
    /// Build the canonical key for one solve.
    #[must_use]
    pub fn new(config: &GameConfig, options: &SolverOptions, density: &DiscreteDensity) -> Self {
        let mut key = SolveKey {
            config: *config,
            options: *options,
            lo: density.lo(),
            hi: density.hi(),
            pdf: density.pdf().to_vec(),
            hash: 0,
        };
        key.hash = key.words().fold(FNV_OFFSET, fnv1a);
        key
    }

    /// The canonical FNV-1a hash over the key's word stream. Stable across
    /// runs and platforms (little-endian byte order is imposed).
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        self.hash
    }

    /// The key serialized as a stream of `u64` words: game parameters,
    /// solver options, then the density grid.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let method = match self.options.method {
            BellmanMethod::ValueIteration => 0u64,
            BellmanMethod::PolicyIteration => 1u64,
        };
        [
            u64::from(self.config.n_agents()),
            self.config.n_min().to_bits(),
            self.config.n_max().to_bits(),
            self.config.p_cooling().to_bits(),
            self.config.p_recovery().to_bits(),
            self.config.discount().to_bits(),
            method,
            self.options.damping.to_bits(),
            self.options.tolerance.to_bits(),
            self.options.max_iterations as u64,
            // Unbounded solves encode as MAX: a budget that large is
            // indistinguishable from no budget at all.
            self.options.iteration_budget.map_or(u64::MAX, |b| b as u64),
            self.lo.to_bits(),
            self.hi.to_bits(),
            self.pdf.len() as u64,
        ]
        .into_iter()
        .chain(self.pdf.iter().map(|p| p.to_bits()))
    }
}

impl PartialEq for SolveKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words().eq(other.words())
    }
}

impl Eq for SolveKey {}

impl std::hash::Hash for SolveKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

type SolveResult = Result<Equilibrium, GameError>;
type Cell = Arc<OnceLock<SolveResult>>;

struct Entry {
    /// Global insertion sequence, for [`EquilibriumCache::latest`].
    seq: u64,
    cell: Cell,
}

#[derive(Default)]
struct Shard {
    map: HashMap<SolveKey, Entry>,
    /// Insertion order for capacity eviction (oldest first).
    order: VecDeque<SolveKey>,
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry (possibly still solving).
    pub hits: u64,
    /// Lookups that inserted a fresh entry and ran Algorithm 1.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0.0 before any lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, single-flight cache of mean-field equilibria.
///
/// Shareable across threads by reference (`&EquilibriumCache`): all
/// interior state is behind shard mutexes and atomics.
pub struct EquilibriumCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl std::fmt::Debug for EquilibriumCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquilibriumCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for EquilibriumCache {
    fn default() -> Self {
        EquilibriumCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EquilibriumCache {
    /// The process-wide shared cache: one lazily initialized
    /// [`EquilibriumCache`] for the whole process, so every subsystem
    /// that resolves equilibria through it — CLI one-shot commands, the
    /// `sprint serve` daemon's job workers, library callers — shares one
    /// memo table and one single-flight domain. Concurrent requests for
    /// the same `(config, options, density)` key run Algorithm 1 exactly
    /// once, no matter which entry point issued them.
    ///
    /// Callers that need isolated counters (tests, benchmarks) should
    /// construct their own cache instead.
    #[must_use]
    pub fn process() -> &'static EquilibriumCache {
        static PROCESS: OnceLock<EquilibriumCache> = OnceLock::new();
        PROCESS.get_or_init(EquilibriumCache::default)
    }

    /// A cache bounded to roughly `capacity` total entries (rounded up to
    /// a multiple of the shard count; at least one entry per shard).
    /// When a shard is full, its oldest entry is evicted.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EquilibriumCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Solve `density` under `solver`'s configuration, memoized.
    ///
    /// The first caller for a key runs Algorithm 1 from `P_trip = 1`
    /// (unobserved — cached work cannot narrate to one caller's
    /// recorder), so the result never depends on what else the cache
    /// holds; concurrent callers for the same key block until that solve
    /// completes and then share its result. Deterministic solving makes
    /// a cache hit bit-identical to the fresh solve.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`MeanFieldSolver::run`]; a failed solve is
    /// cached and re-returned on later lookups of the same key.
    pub fn solve(
        &self,
        solver: &MeanFieldSolver,
        density: &DiscreteDensity,
    ) -> crate::Result<Equilibrium> {
        let key = SolveKey::new(solver.config(), solver.options(), density);
        let shard_idx = (key.canonical_hash() % self.shards.len() as u64) as usize;
        let (cell, fresh) = {
            let mut shard = self.lock_shard(shard_idx);
            if let Some(entry) = shard.map.get(&key) {
                (Arc::clone(&entry.cell), false)
            } else {
                if shard.map.len() >= self.capacity_per_shard {
                    if let Some(victim) = shard.order.pop_front() {
                        shard.map.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let cell: Cell = Arc::new(OnceLock::new());
                let seq = self.inserts.fetch_add(1, Ordering::Relaxed);
                shard.map.insert(
                    key.clone(),
                    Entry {
                        seq,
                        cell: Arc::clone(&cell),
                    },
                );
                shard.order.push_back(key.clone());
                (cell, true)
            }
        };
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        // Single-flight: the solve runs outside the shard lock, and racing
        // threads block here instead of solving twice.
        cell.get_or_init(|| solver.solve_impl(density, &mut Noop))
            .clone()
    }

    /// The most recently inserted *successful* equilibrium, regardless
    /// of key — the "last cached assignment" tier of the degradation
    /// ladder. Callers must treat the result as stale: it was solved
    /// for whatever population the coordinator last saw, not the
    /// current one. `None` when no solve has ever succeeded.
    #[must_use]
    pub fn latest(&self) -> Option<Equilibrium> {
        let mut best: Option<(u64, Equilibrium)> = None;
        for i in 0..self.shards.len() {
            let shard = self.lock_shard(i);
            for entry in shard.map.values() {
                if let Some(Ok(eq)) = entry.cell.get() {
                    if best.as_ref().is_none_or(|(seq, _)| entry.seq > *seq) {
                        best = Some((entry.seq, *eq));
                    }
                }
            }
        }
        best.map(|(_, eq)| eq)
    }

    /// Current counters and entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let entries = (0..self.shards.len())
            .map(|i| self.lock_shard(i).map.len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drop every entry (counters are retained).
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            let mut shard = self.lock_shard(i);
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Export the counters into a metrics registry under
    /// `cache.equilibrium.*`. Counters accumulate on repeated export;
    /// call once per run.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let stats = self.stats();
        let hits = registry.counter("cache.equilibrium.hits");
        registry.inc(hits, stats.hits);
        let misses = registry.counter("cache.equilibrium.misses");
        registry.inc(misses, stats.misses);
        let evictions = registry.counter("cache.equilibrium.evictions");
        registry.inc(evictions, stats.evictions);
        let entries = registry.gauge("cache.equilibrium.entries");
        registry.set(entries, stats.entries as f64);
    }

    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, Shard> {
        // A panic inside Algorithm 1 happens outside the lock, so a
        // poisoned shard still holds consistent data; keep serving it.
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_telemetry::Telemetry;
    use sprint_workloads::Benchmark;

    fn density() -> DiscreteDensity {
        Benchmark::DecisionTree.utility_density(256).unwrap()
    }

    #[test]
    fn cached_equilibrium_is_bit_identical_to_fresh_solve() {
        let solver = MeanFieldSolver::new(GameConfig::paper_defaults());
        let d = density();
        let cache = EquilibriumCache::default();
        let fresh = solver.run(&d, &mut Telemetry::noop()).unwrap();
        let first = cache.solve(&solver, &d).unwrap();
        let second = cache.solve(&solver, &d).unwrap();
        assert_eq!(fresh, first);
        assert_eq!(fresh, second);
        // Byte-identical, not merely approximately equal.
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_distinguishes_solver_options() {
        // Same game, same density, different SolverOptions: two entries.
        let config = GameConfig::paper_defaults();
        let d = density();
        let default = MeanFieldSolver::new(config);
        let literal = MeanFieldSolver::with_options(config, SolverOptions::paper_literal());
        let ka = SolveKey::new(default.config(), default.options(), &d);
        let kb = SolveKey::new(literal.config(), literal.options(), &d);
        assert_ne!(ka, kb);

        let cache = EquilibriumCache::default();
        cache.solve(&default, &d).unwrap();
        cache.solve(&literal, &d).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));

        // And a tolerance-only change is a distinct key too.
        let mut opts = *default.options();
        opts.tolerance *= 0.5;
        let kc = SolveKey::new(&config, &opts, &d);
        assert_ne!(ka, kc);
    }

    #[test]
    fn key_distinguishes_densities_and_configs() {
        let config = GameConfig::paper_defaults();
        let opts = SolverOptions::default();
        let a = SolveKey::new(&config, &opts, &density());
        let b = SolveKey::new(
            &config,
            &opts,
            &Benchmark::PageRank.utility_density(256).unwrap(),
        );
        assert_ne!(a, b);
        let other = GameConfig::builder().n_min(251.0).build().unwrap();
        let c = SolveKey::new(&other, &opts, &density());
        assert_ne!(a, c);
        // Reflexivity across re-derivation: same inputs, same key & hash.
        let again = SolveKey::new(&config, &opts, &density());
        assert_eq!(a, again);
        assert_eq!(a.canonical_hash(), again.canonical_hash());
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        // Capacity 8 over 8 shards = 1 entry per shard: filling one shard
        // twice must evict.
        let cache = EquilibriumCache::with_capacity(1);
        let d = density();
        let mut evicted = false;
        for n_min in [250.0, 260.0, 270.0, 280.0] {
            let config = GameConfig::builder().n_min(n_min).build().unwrap();
            cache.solve(&MeanFieldSolver::new(config), &d).unwrap();
            evicted |= cache.stats().evictions > 0;
        }
        assert!(evicted, "4 distinct games through 8 single-entry shards");
        assert!(cache.stats().entries <= 8);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = EquilibriumCache::default();
        let solver = MeanFieldSolver::new(GameConfig::paper_defaults());
        cache.solve(&solver, &density()).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
        cache.solve(&solver, &density()).unwrap();
        assert_eq!(cache.stats().misses, 2, "cleared entry re-solves");
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        // Many threads, one key: exactly one miss, everyone agrees.
        let solver = MeanFieldSolver::new(GameConfig::paper_defaults());
        let d = density();
        let cache = EquilibriumCache::default();
        let results: Vec<Equilibrium> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.solve(&solver, &d).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single-flight: one solve per key");
        assert_eq!(stats.hits, 7);
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sixteen_concurrent_clients_trigger_exactly_one_solve() {
        // The serve-layer acceptance shape, pinned at the cache: sixteen
        // threads race the same equilibrium key, exactly one Algorithm-1
        // solve runs, and the registry counters prove it.
        let solver = MeanFieldSolver::new(GameConfig::paper_defaults());
        let d = density();
        let cache = EquilibriumCache::default();
        let results: Vec<Equilibrium> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| scope.spawn(|| cache.solve(&solver, &d).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let mut registry = Registry::default();
        cache.export_metrics(&mut registry);
        assert_eq!(
            registry.counter_value("cache.equilibrium.misses"),
            Some(1),
            "single-flight: one solve for sixteen concurrent clients"
        );
        assert_eq!(registry.counter_value("cache.equilibrium.hits"), Some(15));
        assert_eq!(registry.gauge_value("cache.equilibrium.entries"), Some(1.0));
    }

    #[test]
    fn process_cache_is_one_shared_instance() {
        let a = EquilibriumCache::process() as *const EquilibriumCache;
        let b = EquilibriumCache::process() as *const EquilibriumCache;
        assert_eq!(a, b, "every caller sees the same process-wide cache");
    }

    #[test]
    fn latest_returns_the_most_recent_success() {
        let cache = EquilibriumCache::default();
        let d = density();
        assert!(cache.latest().is_none());
        let first = GameConfig::builder().n_min(250.0).build().unwrap();
        let second = GameConfig::builder().n_min(300.0).build().unwrap();
        cache.solve(&MeanFieldSolver::new(first), &d).unwrap();
        let newer = cache.solve(&MeanFieldSolver::new(second), &d).unwrap();
        assert_eq!(cache.latest().unwrap(), newer);
        // A failed solve is cached but never surfaces through latest().
        let strangled = SolverOptions {
            tolerance: -1.0,
            ..SolverOptions::default()
        }
        .with_iteration_budget(3);
        let failing = MeanFieldSolver::with_options(second, strangled);
        assert!(cache.solve(&failing, &d).is_err());
        assert_eq!(
            cache.latest().unwrap(),
            newer,
            "latest() must skip cached failures"
        );
    }

    #[test]
    fn key_distinguishes_iteration_budgets() {
        let config = GameConfig::paper_defaults();
        let d = density();
        let unbounded = SolverOptions::default();
        let bounded = SolverOptions::default().with_iteration_budget(50_000);
        let ka = SolveKey::new(&config, &unbounded, &d);
        let kb = SolveKey::new(&config, &bounded, &d);
        assert_ne!(ka, kb, "budgeted and unbounded solves are distinct keys");
    }

    #[test]
    fn export_metrics_publishes_counters() {
        let cache = EquilibriumCache::default();
        let solver = MeanFieldSolver::new(GameConfig::paper_defaults());
        let d = density();
        cache.solve(&solver, &d).unwrap();
        cache.solve(&solver, &d).unwrap();
        let mut registry = Registry::new();
        cache.export_metrics(&mut registry);
        assert_eq!(registry.counter_value("cache.equilibrium.hits"), Some(1));
        assert_eq!(registry.counter_value("cache.equilibrium.misses"), Some(1));
        assert_eq!(
            registry.counter_value("cache.equilibrium.evictions"),
            Some(0)
        );
        assert_eq!(registry.gauge_value("cache.equilibrium.entries"), Some(1.0));
    }
}
