//! The engine's inter-query caches: the epoch-invalidated **result
//! cache** and the cross-session **plan cache**.
//!
//! Both caches lean on the same two primitives. The
//! [plan fingerprint](crate::plan::fingerprint) identifies *what* a
//! query computes; [per-relation catalog epochs](crate::Catalog::relation_epoch)
//! identify *over which data*. An entry is valid iff every relation its
//! plan reads still has the epoch recorded at insert time — any
//! DDL/DML/`CREATE SAMPLE`/metadata write against one of those
//! relations bumps its epoch under the catalog write lock, so validity
//! checks done under the read lock can never observe a torn state.
//!
//! Because the engine's determinism contract makes results bit-identical
//! at every thread count × partition count × optimizer setting, a valid
//! cached result **is** the result — caching is pure latency, with no
//! correctness ambiguity to manage.
//!
//! The result cache is bounded by bytes and evicts least-recently-used
//! entries; the plan cache is bounded by entry count. Both are engine-
//! wide (shared by every session and wire connection) and guarded by
//! their own mutexes, held only for map operations — never during
//! execution.

use std::collections::HashMap;

use mosaic_sql::Visibility;
use parking_lot::Mutex;

use crate::engine::QueryResult;

/// Maximum entries the plan cache retains (LRU beyond this).
const PLAN_CACHE_ENTRIES: usize = 512;

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
}
