//! The engine's inter-query caches — the **result cache**, the
//! cross-session **plan cache** and the **derived-artefact cache** of
//! fitted OPEN models and the replicates drawn from them — and the one
//! store behind all three, [`EpochLru`].
//!
//! Every cached value is derived from one catalog state: a query result
//! and a bound plan from the relations the statement reads, a fitted
//! model and its replicates from the relations the population reads.
//! Each entry stores the [epoch](crate::Catalog::relation_epoch) of each
//! of those relations at build time, its *snapshot*, and is valid iff
//! every one is still current ([`is_current`], the one validity rule).
//! Any DDL/DML/`CREATE SAMPLE`/metadata write against a relation bumps
//! its epoch under the catalog write lock, so a check made under the
//! read lock can never observe a torn state. This module is the only
//! one that builds or reads a snapshot; callers hand it the catalog and
//! the relations an entry depends on.
//!
//! The three caches differ only in their keys, values and budgets:
//!
//! | cache   | key                                | value               | cost, budget                 |
//! |---------|------------------------------------|---------------------|------------------------------|
//! | result  | [plan fingerprint](crate::plan::fingerprint) | result table, notes | bytes, `result_cache_mb`     |
//! | plan    | SQL text, visibility, optimizer    | bound plan          | 1, [`PLAN_CACHE_ENTRIES`]    |
//! | derived | [`DerivedKey`]                     | model or replicate  | bytes, [`DERIVED_CACHE_BYTES`] |
//!
//! Because the engine's determinism contract makes results bit-identical
//! at every thread count × partition count × optimizer setting, a valid
//! cached result **is** the result — caching is pure latency, with no
//! correctness ambiguity to manage. The same holds for a derived
//! artefact: a model fit and a replicate draw are deterministic
//! functions of their key and snapshot.
//!
//! All three caches are engine-wide (shared by every session and wire
//! connection) and guarded by their own mutexes, held only for map
//! operations — never during execution, a model fit or a replicate
//! draw.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mosaic_sql::Visibility;
use mosaic_storage::Table;
use parking_lot::Mutex;

use crate::engine::QueryResult;
use crate::models::GenerativeModel;
use crate::session::Prepared;
use crate::{Catalog, Result};

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
    /// Plan-cache misses: single-SELECT scripts bound afresh, including
    /// epoch-stale rebinds.
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

/// `(relation, epoch)` for every relation a cached value was made from.
type Snapshot = Vec<(String, u64)>;

/// Snapshot the current epoch of every relation in `relations`.
fn epoch_snapshot(cat: &Catalog, relations: &[String]) -> Snapshot {
    relations
        .iter()
        .map(|r| (r.clone(), cat.relation_epoch(r)))
        .collect()
}

/// Whether a value made under `snapshot` is still valid in `cat`: every
/// relation it read still has the epoch it had then.
fn is_current(cat: &Catalog, snapshot: &[(String, u64)]) -> bool {
    snapshot
        .iter()
        .all(|(r, epoch)| cat.relation_epoch(r) == *epoch)
}

struct Entry<V> {
    value: V,
    snapshot: Snapshot,
    cost: usize,
    last_used: u64,
}

/// Cumulative counters of one [`EpochLru`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

/// The store behind every cache here: values valid while their snapshot
/// is current, bounded by a total cost, least-recently-used out first.
struct EpochLru<K, V> {
    map: HashMap<K, Entry<V>>,
    cost: usize,
    tick: u64,
    counts: Counts,
}

impl<K, V> Default for EpochLru<K, V> {
    fn default() -> Self {
        EpochLru {
            map: HashMap::new(),
            cost: 0,
            tick: 0,
            counts: Counts::default(),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> EpochLru<K, V> {
    /// The value under `key` if it is valid in `cat` (a hit, and an LRU
    /// touch). A stale entry is removed and counts as an invalidation
    /// plus a miss.
    fn get(&mut self, key: &K, cat: &Catalog) -> Option<V> {
        let found = self.lookup(key, cat);
        if found.is_none() {
            self.counts.misses += 1;
        }
        found
    }

    /// [`EpochLru::get`] without counting a miss, for a cache whose
    /// caller decides what a miss is. The key may be a borrowed form of
    /// `K`, so a probe need not build an owned key.
    fn lookup<Q>(&mut self, key: &Q, cat: &Catalog) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let e = self.map.get_mut(key)?;
        if is_current(cat, &e.snapshot) {
            self.tick += 1;
            e.last_used = self.tick;
            self.counts.hits += 1;
            return Some(e.value.clone());
        }
        let stale = self.map.remove(key).expect("found above");
        self.cost -= stale.cost;
        self.counts.invalidations += 1;
        None
    }

    /// Whether a valid value is stored under `key`: no counters, no
    /// touch (`EXPLAIN`'s probe).
    fn peek(&self, key: &K, cat: &Catalog) -> bool {
        self.map
            .get(key)
            .is_some_and(|e| is_current(cat, &e.snapshot))
    }

    /// Store `value` made under `snapshot`, then evict least-recently-used
    /// entries until the total cost is within `budget`. A value costing
    /// more than the whole budget is not kept, and a key already present
    /// keeps its entry: a concurrent miss stored the same value.
    fn insert(&mut self, key: K, value: V, snapshot: Snapshot, cost: usize, budget: usize) {
        if cost > budget || self.map.contains_key(&key) {
            return;
        }
        self.tick += 1;
        let last_used = self.tick;
        let entry = Entry {
            value,
            snapshot,
            cost,
            last_used,
        };
        self.map.insert(key, entry);
        self.cost += cost;
        self.counts.insertions += 1;
        while self.cost > budget {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("a cost over budget has an entry");
            let e = self.map.remove(&victim).expect("picked from the map");
            self.cost -= e.cost;
            self.counts.evictions += 1;
        }
    }

    /// Keep only the entries `keep` accepts; each dropped one counts as
    /// an invalidation.
    fn retain(&mut self, mut keep: impl FnMut(&K, &[(String, u64)]) -> bool) {
        let before = self.map.len();
        let mut freed = 0;
        self.map.retain(|k, e| {
            let kept = keep(k, &e.snapshot);
            if !kept {
                freed += e.cost;
            }
            kept
        });
        self.cost -= freed;
        self.counts.invalidations += (before - self.map.len()) as u64;
    }

    /// Drop every entry (counters are kept — they are cumulative).
    fn clear(&mut self) {
        self.map.clear();
        self.cost = 0;
    }
}

/// The engine-wide result cache: fingerprint → result, LRU by bytes.
#[derive(Default)]
pub(crate) struct ResultCache(Mutex<EpochLru<u64, QueryResult>>);

impl ResultCache {
    /// The result cached under `fp`, if valid in `cat`. Callers pass the
    /// catalog read guard they already hold, so the check and the
    /// alternative execution see the same catalog state.
    pub fn get(&self, fp: u64, cat: &Catalog) -> Option<QueryResult> {
        self.0.lock().get(&fp, cat)
    }

    /// Non-mutating probe — `EXPLAIN`'s "cached: yes/no" line.
    pub fn peek(&self, fp: u64, cat: &Catalog) -> bool {
        self.0.lock().peek(&fp, cat)
    }

    /// Insert a result computed from `relations` in `cat`, charged its
    /// approximate bytes. Tables share their columns behind `Arc`s, so
    /// the stored clone (and every hit returned later) is O(1).
    pub fn insert(
        &self,
        fp: u64,
        result: &QueryResult,
        cat: &Catalog,
        relations: &[String],
        capacity_bytes: usize,
    ) {
        let snapshot = epoch_snapshot(cat, relations);
        let bytes = result.table.approx_bytes()
            + result.notes.iter().map(String::len).sum::<usize>()
            + snapshot.iter().map(|(r, _)| r.len() + 8).sum::<usize>()
            + 64;
        self.0
            .lock()
            .insert(fp, result.clone(), snapshot, bytes, capacity_bytes);
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.0.lock().clear();
    }

    /// Fill the result-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let lru = self.0.lock();
        let c = lru.counts;
        (out.entries, out.bytes) = (lru.map.len(), lru.cost);
        (out.hits, out.misses, out.insertions) = (c.hits, c.misses, c.insertions);
        (out.evictions, out.invalidations) = (c.evictions, c.invalidations);
    }
}

/// Plan-cache key: the trimmed SQL text plus the two option knobs that
/// participate in binding. (Visibility is baked into the bound
/// statement at bind time; the optimizer setting changes the plan the
/// bind produces.) A probe borrows the caller's text as a
/// [`PlanKeyRef`]; only an insert copies it.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    sql: String,
    visibility: Visibility,
    optimizer: bool,
}

/// The borrowed form of a [`PlanKey`]. Its derived `Hash` feeds a hasher
/// exactly what `PlanKey`'s does (a `String` hashes as its `str`), as
/// the map's `Borrow` lookup requires.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKeyRef<'a> {
    sql: &'a str,
    visibility: Visibility,
    optimizer: bool,
}

impl<'a> PlanKeyRef<'a> {
    fn new(sql: &'a str, visibility: Visibility, optimizer: bool) -> PlanKeyRef<'a> {
        PlanKeyRef {
            sql: sql.trim(),
            visibility,
            optimizer,
        }
    }
}

/// Owned and borrowed plan keys, seen as one type the map can look up.
trait AsPlanKey {
    fn key(&self) -> PlanKeyRef<'_>;
}

impl AsPlanKey for PlanKey {
    fn key(&self) -> PlanKeyRef<'_> {
        PlanKeyRef {
            sql: &self.sql,
            visibility: self.visibility,
            optimizer: self.optimizer,
        }
    }
}

impl AsPlanKey for PlanKeyRef<'_> {
    fn key(&self) -> PlanKeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsPlanKey + 'a> for PlanKey {
    fn borrow(&self) -> &(dyn AsPlanKey + 'a) {
        self
    }
}

impl PartialEq for dyn AsPlanKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn AsPlanKey + '_ {}

impl Hash for dyn AsPlanKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// The engine-wide prepared-plan cache for ad-hoc SQL: (SQL text,
/// default visibility, optimizer) → bound-and-optimized plan, valid
/// while the source relations' epochs are unchanged. This is what lets
/// hot `Query` frames over the wire skip parse/bind/optimize entirely.
///
/// A miss counts a script that could have hit: one that binds as a
/// single SELECT and is stored. DDL, INSERT, multi-statement scripts,
/// EXPLAIN and text that does not parse or bind probe the cache but
/// never count a miss.
#[derive(Default)]
pub(crate) struct PlanCache(Mutex<EpochLru<PlanKey, Arc<Prepared>>>);

impl PlanCache {
    /// The bound plan for `sql` under the given binding knobs, if valid
    /// in `cat`. A stale entry is dropped so the caller rebinds against
    /// the current catalog.
    pub fn get(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        cat: &Catalog,
    ) -> Option<Arc<Prepared>> {
        let key = PlanKeyRef::new(sql, visibility, optimizer);
        self.0.lock().lookup(&key as &dyn AsPlanKey, cat)
    }

    /// Store a plan freshly bound against `cat` — the plan cache's miss.
    pub fn insert(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        prepared: Arc<Prepared>,
        cat: &Catalog,
    ) {
        let key = PlanKey {
            sql: sql.trim().to_string(),
            visibility,
            optimizer,
        };
        let snapshot = epoch_snapshot(cat, prepared.dependencies());
        let mut lru = self.0.lock();
        lru.counts.misses += 1;
        lru.insert(key, prepared, snapshot, 1, PLAN_CACHE_ENTRIES);
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.0.lock().clear();
    }

    /// Fill the plan-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let c = self.0.lock().counts;
        (out.plan_hits, out.plan_misses) = (c.hits, c.misses);
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

/// An artefact being built. Its builder locks it before publishing it
/// and holds the lock for the whole build, so every other caller of the
/// key blocks on it; `None` once the lock is free means the build
/// failed. Nobody waits on a slot while holding the map lock.
type Slot = Arc<Mutex<Option<Derived>>>;

#[derive(Default)]
struct Artefacts {
    /// Finished artefacts, LRU by bytes.
    built: EpochLru<DerivedKey, Derived>,
    /// Artefacts being built, with the snapshot each is built for. They
    /// are neither charged nor evicted; a finished one moves to `built`.
    building: HashMap<DerivedKey, (Snapshot, Slot)>,
}

/// The engine-wide cache of derived OPEN artefacts: fitted models and
/// generated replicates, valid for one epoch snapshot, LRU by bytes.
/// A miss builds outside the map lock, once per key: concurrent callers
/// of the key wait for that build, callers of other keys proceed. A
/// failed build is not kept, so the next caller retries.
pub(crate) struct DerivedCache {
    capacity_bytes: usize,
    inner: Mutex<Artefacts>,
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
            inner: Mutex::new(Artefacts::default()),
        }
    }

    /// The artefact under `key`, derived from `relations` as they are in
    /// `cat`, and whether it was a hit. A stale lookup also drops every
    /// artefact of the key's model stored under another snapshot, an
    /// invalidation each: epochs only grow, so none can be served again,
    /// and a replicate whose row count changed with its sample would
    /// never be looked up. On a miss, `build` runs outside the map lock;
    /// an artefact larger than the whole budget is returned but not kept.
    pub fn get_or_build(
        &self,
        key: &DerivedKey,
        cat: &Catalog,
        relations: &[String],
        build: impl FnOnce() -> Result<Derived>,
    ) -> Result<(Derived, bool)> {
        loop {
            let mut inner = self.inner.lock();
            if let Some((snapshot, slot)) = inner.building.get(key) {
                if !is_current(cat, snapshot) {
                    // Built for an older catalog state, or left behind by
                    // a build that panicked: never kept.
                    inner.building.remove(key);
                } else {
                    let slot = Arc::clone(slot);
                    drop(inner);
                    let built = slot.lock().clone();
                    let mut inner = self.inner.lock();
                    if let Some(artefact) = built {
                        inner.built.counts.hits += 1;
                        return Ok((artefact, true));
                    }
                    // Its build failed, or panicked before its builder
                    // could drop the slot: drop it, then try again.
                    if inner
                        .building
                        .get(key)
                        .is_some_and(|(_, s)| Arc::ptr_eq(s, &slot))
                    {
                        inner.building.remove(key);
                    }
                    continue;
                }
            }
            let invalidations = inner.built.counts.invalidations;
            if let Some(artefact) = inner.built.get(key, cat) {
                return Ok((artefact, true));
            }
            if inner.built.counts.invalidations > invalidations {
                // The key was stale, and with it its model's snapshot.
                let model = key.model();
                inner
                    .built
                    .retain(|k, snapshot| k.model() != model || is_current(cat, snapshot));
            }
            let fresh: Slot = Arc::new(Mutex::new(None));
            let mut fill = fresh.lock();
            let snapshot = epoch_snapshot(cat, relations);
            inner
                .building
                .insert(key.clone(), (snapshot, Arc::clone(&fresh)));
            drop(inner);
            let built = build();
            let mut inner = self.inner.lock();
            // A clear, or a caller under a newer catalog state, may have
            // dropped the slot meanwhile; then nothing is kept.
            let ours = inner
                .building
                .get(key)
                .is_some_and(|(_, s)| Arc::ptr_eq(s, &fresh));
            let snapshot = ours.then(|| inner.building.remove(key).expect("ours").0);
            let artefact = built?;
            if let Some(snapshot) = snapshot {
                let (value, bytes) = (artefact.clone(), artefact.bytes());
                inner
                    .built
                    .insert(key.clone(), value, snapshot, bytes, self.capacity_bytes);
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
        cat: &Catalog,
        relations: &[String],
        fit: impl FnOnce() -> Result<(Arc<dyn GenerativeModel>, usize)>,
    ) -> Result<(Arc<dyn GenerativeModel>, bool)> {
        let build = || fit().map(|(model, bytes)| Derived::Model(model, bytes));
        match self.get_or_build(&DerivedKey::Model(key), cat, relations, build)? {
            (Derived::Model(model, _), hit) => Ok((model, hit)),
            (Derived::Replicate(..), _) => unreachable!("a model key holds a model"),
        }
    }

    /// A generated replicate, through [`DerivedCache::get_or_build`].
    pub fn replicate(
        &self,
        key: DerivedKey,
        cat: &Catalog,
        relations: &[String],
        draw: impl FnOnce() -> Result<(Table, f64)>,
    ) -> Result<(Table, f64)> {
        let build = || draw().map(|(table, weight)| Derived::Replicate(table, weight));
        match self.get_or_build(&key, cat, relations, build)?.0 {
            Derived::Replicate(table, weight) => Ok((table, weight)),
            Derived::Model(..) => unreachable!("a replicate key holds a replicate"),
        }
    }

    /// Drop every entry, in-flight builds included: they finish for
    /// their callers but are not kept. Counters are cumulative.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.built.clear();
        inner.building.clear();
    }

    /// Fill the derived-artefact half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        let c = inner.built.counts;
        out.derived_capacity_bytes = self.capacity_bytes;
        out.derived_entries = inner.built.map.len() + inner.building.len();
        out.derived_bytes = inner.built.cost;
        (out.derived_hits, out.derived_misses) = (c.hits, c.misses);
        (out.derived_evictions, out.derived_invalidations) = (c.evictions, c.invalidations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Knobs;
    use mosaic_sql::Statement;
    use mosaic_storage::{Column, DataType, Field, Schema, Table};
    use proptest::prelude::*;

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

    /// A catalog whose one table, `relation`, is at `epoch` (≥ 1).
    fn at(relation: &str, epoch: u64) -> Catalog {
        let mut cat = Catalog::new();
        cat.create_aux(relation, result_rows(0).table).unwrap();
        for _ in 1..epoch {
            cat.replace_aux(relation, result_rows(0).table).unwrap();
        }
        cat
    }

    fn deps(relation: &str) -> Vec<String> {
        vec![relation.to_string()]
    }

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let cache = ResultCache::default();
        let (t3, t4) = (at("t", 3), at("t", 4));
        assert!(cache.get(1, &t3).is_none());
        cache.insert(1, &result_rows(4), &t3, &deps("t"), 1 << 20);
        assert_eq!(cache.get(1, &t3).unwrap().table.num_rows(), 4);
        // The relation moved: the entry must die, not serve stale rows.
        assert!(cache.get(1, &t4).is_none());
        assert!(cache.get(1, &t3).is_none(), "invalidation is permanent");
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.hits, s.invalidations), (1, 1));
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let cache = ResultCache::default();
        let t1 = at("t", 1);
        let one = result_rows(64); // ~512 payload bytes + overhead
        let budget = 3 * (one.table.approx_bytes() + 64 + 9);
        for fp in 0..3u64 {
            cache.insert(fp, &one, &t1, &deps("t"), budget);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(0, &t1).is_some());
        cache.insert(3, &one, &t1, &deps("t"), budget);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert!(s.bytes <= budget, "{} > {budget}", s.bytes);
        assert_eq!(s.evictions, 1);
        assert!(cache.get(1, &t1).is_none(), "LRU entry evicted");
        assert!(cache.get(0, &t1).is_some());
        assert!(cache.get(3, &t1).is_some());
    }

    #[test]
    fn oversized_results_are_not_admitted() {
        let cache = ResultCache::default();
        cache.insert(9, &result_rows(1000), &Catalog::new(), &[], 16);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.entries, s.insertions), (0, 0));
    }

    /// `SELECT x FROM p`, bound against `p` at epoch 1.
    fn plan_over_p() -> Arc<Prepared> {
        let Some(Statement::Select(stmt)) = mosaic_sql::parse("SELECT x FROM p").unwrap().pop()
        else {
            panic!("one SELECT");
        };
        Arc::new(Prepared::bind(&at("p", 1), &Knobs::default(), stmt, "").unwrap())
    }

    fn plan_stats(cache: &PlanCache) -> (usize, u64, u64, u64) {
        let lru = cache.0.lock();
        (
            lru.map.len(),
            lru.counts.hits,
            lru.counts.misses,
            lru.counts.evictions,
        )
    }

    #[test]
    fn plan_cache_keeps_the_most_recent_512_plans() {
        let cache = PlanCache::default();
        let (plan, p1) = (plan_over_p(), at("p", 1));
        let sql = |i: usize| format!("SELECT x FROM p -- {i}");
        let get = |i| cache.get(&sql(i), Visibility::Closed, true, &p1).is_some();
        for i in 0..PLAN_CACHE_ENTRIES {
            cache.insert(&sql(i), Visibility::Closed, true, Arc::clone(&plan), &p1);
        }
        // Every stored plan was a miss.
        let n = PLAN_CACHE_ENTRIES as u64;
        assert_eq!(plan_stats(&cache), (PLAN_CACHE_ENTRIES, 0, n, 0));
        // Touching plan 0 makes plan 1 the least recently used.
        assert!(get(0));
        let next = PLAN_CACHE_ENTRIES;
        cache.insert(&sql(next), Visibility::Closed, true, plan, &p1);
        assert_eq!(plan_stats(&cache), (PLAN_CACHE_ENTRIES, 1, n + 1, 1));
        assert!(!get(1), "the LRU plan was evicted");
        assert!(get(0) && get(2) && get(next));
        // The binding knobs are part of the key.
        assert!(cache.get(&sql(0), Visibility::Open, true, &p1).is_none());
        assert!(cache.get(&sql(0), Visibility::Closed, false, &p1).is_none());
    }

    /// A probe borrows the caller's text: any padding of the stored
    /// statement finds it, and owned and borrowed keys hash alike.
    #[test]
    fn plan_cache_probe_borrows_the_trimmed_text() {
        use std::hash::BuildHasher;
        let cache = PlanCache::default();
        let (plan, p1) = (plan_over_p(), at("p", 1));
        cache.insert("SELECT x FROM p", Visibility::Closed, true, plan, &p1);
        assert!(cache
            .get("\n  SELECT x FROM p\t", Visibility::Closed, true, &p1)
            .is_some());
        let owned = PlanKey {
            sql: "SELECT x FROM p".into(),
            visibility: Visibility::Closed,
            optimizer: true,
        };
        let borrowed = PlanKeyRef::new(" SELECT x FROM p ", Visibility::Closed, true);
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(
            state.hash_one(&owned),
            state.hash_one(&borrowed as &dyn AsPlanKey)
        );
    }

    #[test]
    fn plan_cache_drops_stale_plans() {
        let cache = PlanCache::default();
        let (plan, p1, p2) = (plan_over_p(), at("p", 1), at("p", 2));
        let sql = "  SELECT x FROM p ";
        cache.insert(sql, Visibility::SemiOpen, true, plan, &p1);
        assert!(cache
            .get(sql.trim(), Visibility::SemiOpen, true, &p1)
            .is_some());
        assert!(cache.get(sql, Visibility::SemiOpen, true, &p2).is_none());
        assert_eq!(plan_stats(&cache), (0, 1, 1, 0), "the stale plan is gone");
        assert!(cache.get(sql, Visibility::SemiOpen, true, &p1).is_none());
        // The one miss is the insert; lookups that find nothing count
        // none (the caller counts the rebind when it stores it).
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.plan_hits, s.plan_misses), (1, 1));
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

    /// `get_or_build` of an artefact of `p` at epoch 1: whether it hit.
    fn fetch(cache: &DerivedCache, name: &str, rows: usize) -> bool {
        let (_, hit) = cache
            .get_or_build(&key(name), &at("p", 1), &deps("p"), || Ok(replicate(rows)))
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
        let (big, hit) = cache
            .get_or_build(&key("big"), &at("p", 1), &deps("p"), || Ok(replicate(1000)))
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
        let (p1, p) = (at("p", 1), deps("p"));
        let failed = cache.get_or_build(&key("m"), &p1, &p, || {
            Err(crate::MosaicError::Execution("fit failed".into()))
        });
        assert!(failed.is_err());
        assert_eq!(stats(&cache).derived_entries, 0);
        assert!(!fetch(&cache, "m", 4), "the next caller builds again");
        assert!(fetch(&cache, "m", 4));
        // A build that panics leaves its slot behind, empty: the next
        // caller drops it and builds.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&key("p"), &p1, &p, || panic!("draw panicked"))
        }));
        assert!(panicked.is_err());
        assert!(!fetch(&cache, "p", 4));
        assert!(fetch(&cache, "p", 4));
    }

    #[test]
    fn derived_stale_snapshot_is_an_invalidation() {
        let cache = DerivedCache::default();
        let (old, p) = (at("p", 1), deps("p"));
        let drawn = |rows| DerivedKey::Replicate {
            model: "m".into(),
            seed: 1,
            rows,
        };
        assert!(!fetch(&cache, "m", 4));
        cache
            .replicate(drawn(4), &old, &p, || Ok((result_rows(4).table, 1.0)))
            .unwrap();
        assert!(!fetch(&cache, "other", 4));
        let moved = at("p", 2);
        let (_, hit) = cache
            .get_or_build(&key("m"), &moved, &p, || Ok(replicate(4)))
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
            .replicate(drawn(5), &moved, &p, || Ok((result_rows(5).table, 1.0)))
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
        let (_, hit) = cache
            .get_or_build(&key("slow"), &at("p", 1), &deps("p"), || {
                gate.recv().unwrap();
                Ok(replicate(64))
            })
            .unwrap();
        hit
    }

    const RELATIONS: [&str; 3] = ["r0", "r1", "r2"];
    const BUDGET: usize = 6;

    /// The reference LRU: entries least recently used first, each with
    /// the relation versions it was made under.
    #[derive(Default)]
    struct Reference {
        entries: Vec<(u8, u32, [u64; 3], usize)>,
        versions: [u64; 3],
        counts: Counts,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get / insert / epoch-bump / clear sequences against a
        /// `Vec` reference: the same entries survive (so every victim is
        /// the least recently used), the cost stays within budget, a
        /// stale value is never returned, and the counters agree.
        #[test]
        fn epoch_lru_matches_a_reference_lru(
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u8..8), 1..80),
        ) {
            let mut cat = Catalog::new();
            for r in RELATIONS {
                cat.create_aux(r, result_rows(0).table).unwrap();
            }
            let mut lru = EpochLru::<u8, u32>::default();
            let mut model = Reference::default();
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                // Relations read: a non-empty subset of r0..r2.
                let read: Vec<usize> = (0..3).filter(|r| ((b % 7 + 1) >> r) & 1 == 1).collect();
                match kind {
                    0..=2 => {
                        let want = model.get(a);
                        prop_assert_eq!(lru.get(&a, &cat), want, "op {} get {}", i, a);
                    }
                    3..=5 => {
                        let cost = 1 + (b as usize * 5 + a as usize) % (BUDGET + 1);
                        let value = i as u32;
                        let names: Vec<String> = read.iter().map(|&r| RELATIONS[r].to_string()).collect();
                        lru.insert(a, value, epoch_snapshot(&cat, &names), cost, BUDGET);
                        model.insert(a, value, &read, cost);
                    }
                    6 => {
                        let r = a as usize % 3;
                        cat.replace_aux(RELATIONS[r], result_rows(0).table).unwrap();
                        model.versions[r] += 1;
                    }
                    _ => {
                        lru.clear();
                        model.entries.clear();
                    }
                }
                let mut keys: Vec<u8> = lru.map.keys().copied().collect();
                keys.sort_unstable();
                let mut want: Vec<u8> = model.entries.iter().map(|e| e.0).collect();
                want.sort_unstable();
                prop_assert_eq!(keys, want, "op {}: live keys", i);
                let cost: usize = model.entries.iter().map(|e| e.3).sum();
                prop_assert_eq!(lru.cost, cost);
                prop_assert!(lru.cost <= BUDGET);
                prop_assert_eq!(lru.counts, model.counts, "op {}: counters", i);
            }
        }
    }

    impl Reference {
        fn current(&self, made: &[u64; 3]) -> bool {
            // A relation not read is recorded as u64::MAX.
            (0..3).all(|r| made[r] == u64::MAX || made[r] == self.versions[r])
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let Some(at) = self.entries.iter().position(|e| e.0 == key) else {
                self.counts.misses += 1;
                return None;
            };
            let e = self.entries.remove(at);
            if !self.current(&e.2) {
                self.counts.invalidations += 1;
                self.counts.misses += 1;
                return None;
            }
            self.counts.hits += 1;
            let value = e.1;
            self.entries.push(e);
            Some(value)
        }

        fn insert(&mut self, key: u8, value: u32, read: &[usize], cost: usize) {
            if cost > BUDGET || self.entries.iter().any(|e| e.0 == key) {
                return;
            }
            let mut made = [u64::MAX; 3];
            for &r in read {
                made[r] = self.versions[r];
            }
            self.entries.push((key, value, made, cost));
            self.counts.insertions += 1;
            while self.entries.iter().map(|e| e.3).sum::<usize>() > BUDGET {
                self.entries.remove(0);
                self.counts.evictions += 1;
            }
        }
    }
}
