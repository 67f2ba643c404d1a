//! The engine's inter-query caches: the epoch-invalidated **result
//! cache**, the cross-session **plan cache**, and the **derived-artefact
//! cache** of fitted OPEN models and the replicates drawn from them.
//!
//! All three lean on [per-relation catalog epochs](crate::Catalog::relation_epoch)
//! to identify *over which data* an entry was made. An entry is valid
//! iff every relation it read still has the epoch recorded at insert
//! time — any DDL/DML/`CREATE SAMPLE`/metadata write against one of
//! those relations bumps its epoch under the catalog write lock, so
//! validity checks done under the read lock can never observe a torn
//! state. The result and plan caches identify *what* a query computes
//! by its [plan fingerprint](crate::plan::fingerprint); a derived
//! artefact by a [`DerivedKey`].
//!
//! Because the engine's determinism contract makes results bit-identical
//! at every thread count × partition count × optimizer setting, a valid
//! cached result **is** the result — caching is pure latency, with no
//! correctness ambiguity to manage. The same holds for a derived
//! artefact: a model fit and a replicate draw are deterministic
//! functions of their key and snapshot.
//!
//! The result and derived-artefact caches are bounded by bytes and evict
//! least-recently-used entries; the plan cache is bounded by entry
//! count. All three are engine-wide (shared by every session and wire
//! connection) and guarded by their own mutexes, held only for map
//! operations — never during execution, a model fit or a replicate
//! draw.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_sql::Visibility;
use mosaic_storage::Table;
use parking_lot::Mutex;

use crate::engine::QueryResult;
use crate::models::GenerativeModel;
use crate::Result;

/// Maximum entries the plan cache retains (LRU beyond this).
const PLAN_CACHE_ENTRIES: usize = 512;

/// Byte budget of the derived-artefact cache (LRU beyond this).
const DERIVED_CACHE_BYTES: usize = 64 << 20;

/// A point-in-time snapshot of the engine's cache counters, as rendered
/// by the CLI's `.cache stats` and served over the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Configured result-cache capacity in bytes (0 = off).
    pub capacity_bytes: usize,
    /// Live result entries.
    pub entries: usize,
    /// Approximate bytes held by live result entries.
    pub bytes: usize,
    /// Result-cache hits (valid entry returned).
    pub hits: u64,
    /// Result-cache misses (no entry, or entry invalidated).
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Entries dropped because a relation epoch moved.
    pub invalidations: u64,
    /// Plan-cache hits (parse/bind/optimize skipped).
    pub plan_hits: u64,
    /// Plan-cache misses (fresh bind, including epoch-stale rebinds).
    pub plan_misses: u64,
    /// Derived-artefact cache capacity in bytes.
    pub derived_capacity_bytes: usize,
    /// Live derived artefacts (fitted models and replicates), including
    /// those still being built.
    pub derived_entries: usize,
    /// Approximate bytes charged to live derived artefacts.
    pub derived_bytes: usize,
    /// Derived-artefact hits (a built artefact returned, or one waited
    /// for while another caller built it).
    pub derived_hits: u64,
    /// Derived-artefact misses (the caller fitted or drew it).
    pub derived_misses: u64,
    /// Derived artefacts evicted by the LRU byte budget.
    pub derived_evictions: u64,
    /// Derived artefacts dropped because their epoch snapshot moved.
    pub derived_invalidations: u64,
}

struct ResultEntry {
    result: QueryResult,
    /// `(relation, epoch)` at insert time, for every relation the plan
    /// reads. Valid iff all still match.
    epochs: Vec<(String, u64)>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct ResultCacheInner {
    map: HashMap<u64, ResultEntry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

/// The engine-wide result cache: fingerprint → result, LRU by bytes.
#[derive(Default)]
pub(crate) struct ResultCache {
    inner: Mutex<ResultCacheInner>,
}

impl ResultCache {
    /// Look up a fingerprint. `epoch_of` must read the *current*
    /// per-relation epochs (callers pass a closure over the catalog
    /// read guard they already hold, so the check and the alternative
    /// execution see the same catalog state). A present-but-stale entry
    /// is removed and counted as an invalidation plus a miss.
    pub fn get(&self, fp: u64, epoch_of: impl Fn(&str) -> u64) -> Option<QueryResult> {
        let mut inner = self.inner.lock();
        match inner.map.get(&fp) {
            None => {
                inner.misses += 1;
                None
            }
            Some(e) if e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.hits += 1;
                let e = inner.map.get_mut(&fp).expect("checked above");
                e.last_used = tick;
                Some(e.result.clone())
            }
            Some(_) => {
                let e = inner.map.remove(&fp).expect("checked above");
                inner.bytes -= e.bytes;
                inner.invalidations += 1;
                inner.misses += 1;
                None
            }
        }
    }

    /// Non-mutating probe (no counters, no LRU touch) — `EXPLAIN`'s
    /// "cached: yes/no" line.
    pub fn peek(&self, fp: u64, epoch_of: impl Fn(&str) -> u64) -> bool {
        let inner = self.inner.lock();
        inner
            .map
            .get(&fp)
            .is_some_and(|e| e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep))
    }

    /// Insert a result under the current epoch snapshot, then evict
    /// least-recently-used entries until the byte budget holds. Results
    /// larger than the whole budget are not admitted. Tables share
    /// their columns behind `Arc`s, so the stored clone (and every hit
    /// returned later) is O(1).
    pub fn insert(
        &self,
        fp: u64,
        result: &QueryResult,
        epochs: Vec<(String, u64)>,
        capacity_bytes: usize,
    ) {
        let bytes = result.table.approx_bytes()
            + result.notes.iter().map(String::len).sum::<usize>()
            + epochs.iter().map(|(r, _)| r.len() + 8).sum::<usize>()
            + 64;
        if bytes > capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&fp) {
            // A concurrent miss already inserted the (identical) result.
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            fp,
            ResultEntry {
                result: result.clone(),
                epochs,
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        inner.insertions += 1;
        while inner.bytes > capacity_bytes {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let e = inner.map.remove(&victim).expect("picked from map");
            inner.bytes -= e.bytes;
            inner.evictions += 1;
        }
    }

    /// Drop every entry (counters are kept — they are cumulative).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Fill the result-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        out.entries = inner.map.len();
        out.bytes = inner.bytes;
        out.hits = inner.hits;
        out.misses = inner.misses;
        out.insertions = inner.insertions;
        out.evictions = inner.evictions;
        out.invalidations = inner.invalidations;
    }
}

/// Plan-cache key: the verbatim SQL text plus the two option knobs that
/// participate in binding. (Visibility is baked into the bound
/// statement at bind time; the optimizer setting changes the plan the
/// bind produces.)
#[derive(PartialEq, Eq, Hash)]
struct PlanKey {
    sql: String,
    visibility: u8,
    optimizer: bool,
}

impl PlanKey {
    fn new(sql: &str, visibility: Visibility, optimizer: bool) -> PlanKey {
        PlanKey {
            sql: sql.trim().to_string(),
            visibility: match visibility {
                Visibility::Closed => 0,
                Visibility::SemiOpen => 1,
                Visibility::Open => 2,
            },
            optimizer,
        }
    }
}

struct PlanEntry {
    prepared: std::sync::Arc<crate::session::Prepared>,
    epochs: Vec<(String, u64)>,
    last_used: u64,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<PlanKey, PlanEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// The engine-wide prepared-plan cache for ad-hoc SQL: (SQL text,
/// default visibility, optimizer) → bound-and-optimized plan, valid
/// while the source relations' epochs are unchanged. This is what lets
/// hot `Query` frames over the wire skip parse/bind/optimize entirely.
#[derive(Default)]
pub(crate) struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    /// Look up a bound plan for `sql` under the given binding knobs.
    /// Stale entries (any source-relation epoch moved) are dropped so
    /// the caller rebinds against the current catalog.
    pub fn get(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        epoch_of: impl Fn(&str) -> u64,
    ) -> Option<std::sync::Arc<crate::session::Prepared>> {
        let key = PlanKey::new(sql, visibility, optimizer);
        let mut inner = self.inner.lock();
        match inner.map.get(&key) {
            Some(e) if e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.hits += 1;
                let e = inner.map.get_mut(&key).expect("checked above");
                e.last_used = tick;
                Some(std::sync::Arc::clone(&e.prepared))
            }
            Some(_) => {
                inner.map.remove(&key);
                inner.misses += 1;
                None
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Store a freshly bound plan under the current epoch snapshot.
    pub fn insert(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        prepared: std::sync::Arc<crate::session::Prepared>,
        epochs: Vec<(String, u64)>,
    ) {
        let key = PlanKey::new(sql, visibility, optimizer);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            PlanEntry {
                prepared,
                epochs,
                last_used: tick,
            },
        );
        while inner.map.len() > PLAN_CACHE_ENTRIES {
            let Some((victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let victim = PlanKey {
                sql: victim.sql.clone(),
                visibility: victim.visibility,
                optimizer: victim.optimizer,
            };
            inner.map.remove(&victim);
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Fill the plan-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        out.plan_hits = inner.hits;
        out.plan_misses = inner.misses;
    }
}

/// What a derived artefact is derived from, besides the epoch snapshot
/// it is stored under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DerivedKey {
    /// A fitted generative model: `population|model_shape`, which covers
    /// everything the fit reads beyond the catalog.
    Model(String),
    /// One replicate drawn from the model under `model`: its run seed
    /// and the rows drawn.
    Replicate {
        model: String,
        seed: u64,
        rows: usize,
    },
}

impl DerivedKey {
    /// The model key an artefact derives from.
    fn model(&self) -> &str {
        match self {
            DerivedKey::Model(model) | DerivedKey::Replicate { model, .. } => model,
        }
    }
}

/// A derived artefact. Cloning one copies no rows and refits nothing: a
/// model is shared behind an `Arc`, a table shares its column payloads.
#[derive(Clone)]
pub(crate) enum Derived {
    /// A fitted model and the bytes it is charged.
    Model(Arc<dyn GenerativeModel>, usize),
    /// A generated replicate and the uniform weight of its rows.
    Replicate(Table, f64),
}

impl Derived {
    fn bytes(&self) -> usize {
        match self {
            Derived::Model(_, bytes) => *bytes,
            Derived::Replicate(table, _) => table.approx_bytes() + 64,
        }
    }
}

/// An artefact's place in the map. Its builder locks it before
/// publishing it and holds the lock for the whole build, so every other
/// caller of the key blocks on it; `None` once the lock is free means the
/// build failed. Nobody waits on a slot while holding the map lock.
type Slot = Arc<Mutex<Option<Derived>>>;

struct DerivedEntry {
    /// `(relation, epoch)` of the catalog state the artefact is built for.
    snapshot: Vec<(String, u64)>,
    slot: Slot,
    /// Bytes charged; `None` while the artefact is being built.
    bytes: Option<usize>,
    last_used: u64,
}

#[derive(Default)]
struct DerivedInner {
    map: HashMap<DerivedKey, DerivedEntry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// The engine-wide cache of derived OPEN artefacts: fitted models and
/// generated replicates, valid for one epoch snapshot, LRU by bytes.
/// A miss builds outside the map lock, once per key: concurrent callers
/// of the key wait for that build, callers of other keys proceed. A
/// failed build is not kept, so the next caller retries.
pub(crate) struct DerivedCache {
    capacity_bytes: usize,
    inner: Mutex<DerivedInner>,
}

impl Default for DerivedCache {
    fn default() -> Self {
        DerivedCache::new(DERIVED_CACHE_BYTES)
    }
}

impl DerivedCache {
    pub fn new(capacity_bytes: usize) -> DerivedCache {
        DerivedCache {
            capacity_bytes,
            inner: Mutex::new(DerivedInner::default()),
        }
    }

    /// The artefact under `key` for the catalog state `snapshot` (the
    /// caller's current epochs), and whether it was a hit. An entry
    /// under another snapshot is stale: it is dropped and counted as an
    /// invalidation. On a miss, `build` runs outside the map lock; an
    /// artefact larger than the whole budget is returned but not kept.
    pub fn get_or_build(
        &self,
        key: &DerivedKey,
        snapshot: &[(String, u64)],
        build: impl FnOnce() -> Result<Derived>,
    ) -> Result<(Derived, bool)> {
        loop {
            let fresh: Slot;
            let mut fill;
            {
                let mut inner = self.inner.lock();
                inner.tick += 1;
                let tick = inner.tick;
                match inner.map.get_mut(key) {
                    Some(e) if e.snapshot == snapshot => {
                        e.last_used = tick;
                        let slot = Arc::clone(&e.slot);
                        drop(inner);
                        let built = slot.lock().clone();
                        let mut inner = self.inner.lock();
                        if let Some(artefact) = built {
                            inner.hits += 1;
                            return Ok((artefact, true));
                        }
                        // Its build failed, or panicked before its
                        // builder could drop the slot: drop it, then
                        // try again.
                        if inner
                            .map
                            .get(key)
                            .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot))
                        {
                            inner.map.remove(key);
                        }
                        continue;
                    }
                    Some(_) => inner.drop_stale(key.model(), snapshot),
                    None => {}
                }
                inner.misses += 1;
                fresh = Arc::new(Mutex::new(None));
                fill = fresh.lock();
                let entry = DerivedEntry {
                    snapshot: snapshot.to_vec(),
                    slot: Arc::clone(&fresh),
                    bytes: None,
                    last_used: tick,
                };
                inner.map.insert(key.clone(), entry);
            }
            let built = build();
            let mut inner = self.inner.lock();
            // A clear, or a caller under a newer snapshot, may have
            // dropped the slot meanwhile; then nothing is charged.
            let ours = inner
                .map
                .get(key)
                .is_some_and(|e| Arc::ptr_eq(&e.slot, &fresh));
            let artefact = match built {
                Ok(artefact) => artefact,
                Err(e) => {
                    if ours {
                        inner.map.remove(key);
                    }
                    return Err(e);
                }
            };
            if ours {
                let bytes = artefact.bytes();
                if bytes > self.capacity_bytes {
                    inner.map.remove(key);
                } else {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let e = inner.map.get_mut(key).expect("ours");
                    (e.bytes, e.last_used) = (Some(bytes), tick);
                    inner.bytes += bytes;
                    inner.evict_to(self.capacity_bytes);
                }
            }
            drop(inner);
            *fill = Some(artefact.clone());
            return Ok((artefact, false));
        }
    }

    /// A fitted model, through [`DerivedCache::get_or_build`].
    pub fn model(
        &self,
        key: String,
        snapshot: &[(String, u64)],
        fit: impl FnOnce() -> Result<(Arc<dyn GenerativeModel>, usize)>,
    ) -> Result<(Arc<dyn GenerativeModel>, bool)> {
        let build = || fit().map(|(model, bytes)| Derived::Model(model, bytes));
        match self.get_or_build(&DerivedKey::Model(key), snapshot, build)? {
            (Derived::Model(model, _), hit) => Ok((model, hit)),
            (Derived::Replicate(..), _) => unreachable!("a model key holds a model"),
        }
    }

    /// A generated replicate, through [`DerivedCache::get_or_build`].
    pub fn replicate(
        &self,
        key: DerivedKey,
        snapshot: &[(String, u64)],
        draw: impl FnOnce() -> Result<(Table, f64)>,
    ) -> Result<(Table, f64)> {
        let build = || draw().map(|(table, weight)| Derived::Replicate(table, weight));
        match self.get_or_build(&key, snapshot, build)?.0 {
            Derived::Replicate(table, weight) => Ok((table, weight)),
            Derived::Model(..) => unreachable!("a replicate key holds a replicate"),
        }
    }

    /// Drop every entry, in-flight builds included: they finish for
    /// their callers but are not kept. Counters are cumulative.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Fill the derived-artefact half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        out.derived_capacity_bytes = self.capacity_bytes;
        out.derived_entries = inner.map.len();
        out.derived_bytes = inner.bytes;
        out.derived_hits = inner.hits;
        out.derived_misses = inner.misses;
        out.derived_evictions = inner.evictions;
        out.derived_invalidations = inner.invalidations;
    }
}

impl DerivedInner {
    /// Drop every artefact of `model` stored under another snapshot than
    /// `snapshot`, counting each as an invalidation. Epochs only grow,
    /// so none of them can be served again; a replicate whose row count
    /// changed with its sample would otherwise never be looked up, and
    /// would hold its bytes until evicted.
    fn drop_stale(&mut self, model: &str, snapshot: &[(String, u64)]) {
        let before = self.map.len();
        let mut freed = 0;
        self.map.retain(|k, e| {
            let stale = k.model() == model && e.snapshot != snapshot;
            if stale {
                freed += e.bytes.unwrap_or(0);
            }
            !stale
        });
        self.bytes -= freed;
        self.invalidations += (before - self.map.len()) as u64;
    }

    /// Evict least-recently-used built entries until `bytes` fits the
    /// budget. An entry still being built is never a victim.
    fn evict_to(&mut self, capacity_bytes: usize) {
        while self.bytes > capacity_bytes {
            let Some(victim) = self
                .map
                .iter()
                .filter(|(_, e)| e.bytes.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let e = self.map.remove(&victim).expect("picked from map");
            self.bytes -= e.bytes.unwrap_or(0);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{Column, DataType, Field, Schema, Table};

    fn result_rows(n: usize) -> QueryResult {
        QueryResult {
            table: Table::new(
                Schema::new(vec![Field::new("x", DataType::Int)]),
                vec![Column::from_i64((0..n as i64).collect())],
            )
            .unwrap(),
            visibility: None,
            notes: Vec::new(),
        }
    }

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let cache = ResultCache::default();
        let epochs = vec![("t".to_string(), 3)];
        assert!(cache.get(1, |_| 3).is_none());
        cache.insert(1, &result_rows(4), epochs, 1 << 20);
        assert_eq!(cache.get(1, |_| 3).unwrap().table.num_rows(), 4);
        // The relation moved: the entry must die, not serve stale rows.
        assert!(cache.get(1, |_| 4).is_none());
        assert!(cache.get(1, |_| 3).is_none(), "invalidation is permanent");
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.hits, s.invalidations), (1, 1));
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let cache = ResultCache::default();
        let one = result_rows(64); // ~512 payload bytes + overhead
        let budget = 3 * (one.table.approx_bytes() + 64 + 9);
        for fp in 0..3u64 {
            cache.insert(fp, &one, vec![("t".into(), 1)], budget);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(0, |_| 1).is_some());
        cache.insert(3, &one, vec![("t".into(), 1)], budget);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert!(s.bytes <= budget, "{} > {budget}", s.bytes);
        assert_eq!(s.evictions, 1);
        assert!(cache.get(1, |_| 1).is_none(), "LRU entry evicted");
        assert!(cache.get(0, |_| 1).is_some());
        assert!(cache.get(3, |_| 1).is_some());
    }

    #[test]
    fn oversized_results_are_not_admitted() {
        let cache = ResultCache::default();
        cache.insert(9, &result_rows(1000), vec![], 16);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.entries, s.insertions), (0, 0));
    }

    fn replicate(rows: usize) -> Derived {
        Derived::Replicate(result_rows(rows).table, 1.0)
    }

    fn key(name: &str) -> DerivedKey {
        DerivedKey::Model(name.to_string())
    }

    fn stats(cache: &DerivedCache) -> CacheStats {
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        s
    }

    /// `get_or_build` under snapshot `[("p", 1)]`: whether it hit.
    fn fetch(cache: &DerivedCache, name: &str, rows: usize) -> bool {
        let snapshot = [("p".to_string(), 1)];
        let (_, hit) = cache
            .get_or_build(&key(name), &snapshot, || Ok(replicate(rows)))
            .unwrap();
        hit
    }

    #[test]
    fn derived_lru_eviction_keeps_bytes_within_budget() {
        let one = replicate(64).bytes();
        let cache = DerivedCache::new(3 * one);
        for name in ["a", "b", "c"] {
            assert!(!fetch(&cache, name, 64));
        }
        assert!(fetch(&cache, "a", 64), "built artefacts are kept");
        // Touching `a` made `b` the least recently used.
        assert!(!fetch(&cache, "d", 64));
        let s = stats(&cache);
        assert!(s.derived_bytes <= s.derived_capacity_bytes);
        assert_eq!((s.derived_entries, s.derived_evictions), (3, 1));
        assert!(fetch(&cache, "a", 64));
        assert!(fetch(&cache, "d", 64));
        assert!(!fetch(&cache, "b", 64), "the LRU artefact was evicted");
        let s = stats(&cache);
        assert_eq!(s.derived_bytes, 3 * one);
        assert_eq!((s.derived_hits, s.derived_misses), (3, 5));
    }

    #[test]
    fn derived_oversized_artefact_is_returned_not_kept() {
        let cache = DerivedCache::new(replicate(64).bytes());
        let snapshot = [("p".to_string(), 1)];
        let (big, hit) = cache
            .get_or_build(&key("big"), &snapshot, || Ok(replicate(1000)))
            .unwrap();
        assert!(!hit);
        let Derived::Replicate(table, _) = big else {
            panic!("built a replicate");
        };
        assert_eq!(table.num_rows(), 1000, "the caller gets its artefact");
        let s = stats(&cache);
        assert_eq!((s.derived_entries, s.derived_bytes), (0, 0));
        assert!(!fetch(&cache, "big", 1000), "but it is not kept");
    }

    #[test]
    fn derived_failed_build_is_not_cached() {
        let cache = DerivedCache::default();
        let snapshot = [("p".to_string(), 1)];
        let failed = cache.get_or_build(&key("m"), &snapshot, || {
            Err(crate::MosaicError::Execution("fit failed".into()))
        });
        assert!(failed.is_err());
        assert_eq!(stats(&cache).derived_entries, 0);
        assert!(!fetch(&cache, "m", 4), "the next caller builds again");
        assert!(fetch(&cache, "m", 4));
        // A build that panics leaves its slot behind, empty: the next
        // caller drops it and builds.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&key("p"), &snapshot, || panic!("draw panicked"))
        }));
        assert!(panicked.is_err());
        assert!(!fetch(&cache, "p", 4));
        assert!(fetch(&cache, "p", 4));
    }

    #[test]
    fn derived_stale_snapshot_is_an_invalidation() {
        let cache = DerivedCache::default();
        let old = [("p".to_string(), 1)];
        let drawn = |rows| DerivedKey::Replicate {
            model: "m".into(),
            seed: 1,
            rows,
        };
        assert!(!fetch(&cache, "m", 4));
        cache
            .replicate(drawn(4), &old, || Ok((result_rows(4).table, 1.0)))
            .unwrap();
        assert!(!fetch(&cache, "other", 4));
        let moved = [("p".to_string(), 2)];
        let (_, hit) = cache
            .get_or_build(&key("m"), &moved, || Ok(replicate(4)))
            .unwrap();
        assert!(!hit, "an artefact of another catalog state is never served");
        let s = stats(&cache);
        assert_eq!((s.derived_invalidations, s.derived_misses), (2, 4));
        assert_eq!(
            s.derived_entries, 2,
            "the stale model and its replicate are gone, another model's entry stays"
        );
        assert_eq!(s.derived_bytes, 2 * replicate(4).bytes());
        // A replicate drawn with the new sample size starts afresh.
        cache
            .replicate(drawn(5), &moved, || Ok((result_rows(5).table, 1.0)))
            .unwrap();
        assert_eq!(stats(&cache).derived_invalidations, 2);
    }

    #[test]
    fn derived_in_flight_slot_is_never_evicted() {
        use std::sync::mpsc;
        let one = replicate(64).bytes();
        let cache = DerivedCache::new(2 * one);
        let (release, gate) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // Owned here, so a failed assertion drops it and the gated
            // build fails instead of blocking the scope's join.
            let release = release;
            let builder = scope.spawn(|| fetch_gated(&cache, gate));
            while stats(&cache).derived_entries == 0 {
                std::thread::yield_now();
            }
            // A second caller of the in-flight key waits for its build.
            let waiter = scope.spawn(|| fetch(&cache, "slow", 64));
            for name in ["b", "c", "d"] {
                assert!(!fetch(&cache, name, 64));
                let s = stats(&cache);
                assert!(s.derived_bytes <= s.derived_capacity_bytes);
            }
            let s = stats(&cache);
            assert_eq!(s.derived_evictions, 1, "b made room for d");
            assert_eq!(s.derived_entries, 3, "the in-flight slot stays");
            release.send(()).unwrap();
            assert!(!builder.join().unwrap(), "the builder missed");
            assert!(waiter.join().unwrap(), "the waiter shares its build");
        });
        let s = stats(&cache);
        assert_eq!(s.derived_misses, 4, "one build per key");
        assert!(s.derived_bytes <= s.derived_capacity_bytes);
        assert!(fetch(&cache, "slow", 64), "the finished build is kept");
    }

    /// Build `slow` once `gate` receives.
    fn fetch_gated(cache: &DerivedCache, gate: std::sync::mpsc::Receiver<()>) -> bool {
        let snapshot = [("p".to_string(), 1)];
        let (_, hit) = cache
            .get_or_build(&key("slow"), &snapshot, || {
                gate.recv().unwrap();
                Ok(replicate(64))
            })
            .unwrap();
        hit
    }
}
