//! The predicate cache proper: exact-fingerprint entries, the shape-mode
//! subsumption index, and the LRU/cost-aware eviction policy.

use std::collections::HashMap;

use snowprune_storage::{DmlResult, PartitionId};
/// Shape-mode cache key (see [`snowprune_types::ShapeKey`]): carried by
/// shape-eligible entries and matched by
/// [`PredicateCache::lookup_with_shape`]'s subsumption rules.
pub use snowprune_types::ShapeKey;

/// What kind of result the entry caches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// Partitions containing rows matching a filter predicate.
    Filter,
    /// Partitions contributing rows to a top-k result over this ordering
    /// column.
    TopK {
        /// The ORDER BY column driving the top-k boundary.
        order_column: String,
    },
}

/// A cached contributing-partition set.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// What the partition set covers (filter survivors or top-k
    /// contributors).
    pub kind: EntryKind,
    /// The scanned table's name.
    pub table: String,
    /// Contributing partitions at record time.
    pub partitions: Vec<PartitionId>,
    /// Column names referenced by the plan's predicates. An UPDATE that
    /// touches any of these can move rows *into* the predicate's range
    /// inside a partition the entry never referenced, so such updates may
    /// not take the cached-partitions-only fast path (see
    /// [`PredicateCache::on_dml`]).
    pub predicate_columns: Vec<String>,
    /// Table version the entry was recorded at.
    pub table_version: u64,
    /// Partitions added by later (safe) DML, appended at lookup time.
    pub appended: Vec<PartitionId>,
    /// Shape-mode key, when the recording query was shape-eligible and the
    /// engine ran in shape mode; `None` entries serve exact lookups only.
    pub shape: Option<ShapeKey>,
    /// Auxiliary table dependencies, sorted and deduplicated: other tables
    /// the recording query scanned (a join's build or probe side) with the
    /// versions it saw. Replaying the entry's partition restriction is only
    /// sound while every auxiliary side of the join is byte-identical, so
    /// [`PredicateCache::lookup_with_aux`] rejects the entry once any
    /// auxiliary version moves, and [`PredicateCache::on_dml`] invalidates
    /// it eagerly when the DML'd table appears here. Empty for
    /// single-table entries.
    pub aux_tables: Vec<(String, u64)>,
    /// How many scan-set entries the recorded partition set saved on the
    /// recording run (total partitions minus cached contributors) — the
    /// cost signal for the eviction tiebreak: entries that save more loads
    /// evict last.
    pub saved_loads: u64,
}

/// Lookup outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// No servable entry.
    Miss,
    /// Exact-fingerprint hit: the partitions to scan — cached contributors
    /// plus any partitions added since (INSERT safety).
    Hit(Vec<PartitionId>),
    /// Shape-mode hit: a same-shape entry whose literal ranges subsume the
    /// query's served its (sound superset) partition set.
    ShapeHit(Vec<PartitionId>),
}

/// Classified DML statements, as the cache needs to distinguish them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmlKind {
    /// Row insertion (appends new partitions to every entry).
    Insert,
    /// Row deletion (invalidates top-k entries).
    Delete,
    /// Row update; carries the *measured* updated column names.
    Update(Vec<String>),
}

/// Hit/miss/invalidation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-fingerprint hits.
    pub hits: u64,
    /// Shape-mode subsumption hits (disjoint from `hits`).
    pub shape_hits: u64,
    /// Lookups that found no servable entry.
    pub misses: u64,
    /// Same-shape candidates examined whose stored ranges (or top-k row
    /// count) did not subsume the query's — each rejected candidate counts
    /// once.
    pub subsumption_rejections: u64,
    /// Entries recorded (including re-records of an existing fingerprint).
    pub insertions: u64,
    /// Entries dropped by the DML correctness rules.
    pub invalidations: u64,
    /// Entries dropped by the capacity policy (LRU with cost tiebreak).
    pub evictions: u64,
    /// Entries dropped because their recorded `table_version` fell out of
    /// step with the live table — DML happened that the cache was never
    /// told about. Detected both at lookup (counted as misses, never as
    /// hits; stale *shape candidates* included) and inside
    /// [`PredicateCache::on_dml`] (an entry whose version is not exactly
    /// one behind the statement's `new_version` missed an earlier
    /// statement).
    pub stale_rejections: u64,
}

/// Recency/ordering bookkeeping for one entry (parallel to `entries`).
#[derive(Clone, Copy, Debug)]
struct EntryMeta {
    /// Tick of the entry's most recent hit (exact or shape); 0 = never hit.
    last_hit: u64,
    /// Monotone insertion sequence (final, deterministic tiebreak).
    seq: u64,
}

/// A bounded predicate cache keyed by exact plan fingerprints
/// (`snowprune_plan::fingerprint` in `Exact` mode), with an optional
/// shape-mode fallback index over literal-abstracted fingerprints
/// (`snowprune_plan::shape_signature`).
///
/// Eviction is LRU keyed on **hit recency** with a cost-aware tiebreak:
/// never-hit entries evict before any entry that has served a hit, and
/// among equally-recent entries the one whose recorded partition set saved
/// the fewest loads goes first (oldest insertion breaks remaining ties).
/// The entry being inserted is never its own victim.
#[derive(Debug)]
pub struct PredicateCache {
    capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    meta: HashMap<u64, EntryMeta>,
    /// Shape fingerprint → exact fingerprints of entries with that shape,
    /// in insertion order (deterministic fallback scan).
    shape_index: HashMap<u64, Vec<u64>>,
    /// Monotone counter bumped on every insert and hit.
    tick: u64,
    stats: CacheStats,
}

impl PredicateCache {
    /// A cache holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PredicateCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            meta: HashMap::new(),
            shape_index: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact-fingerprint lookup against the live version of the entry's
    /// table. A hit returns the partitions to scan. An entry whose recorded
    /// `table_version` does not match `live_version` is unsound to replay
    /// (it missed at least one DML notification): it is dropped and the
    /// lookup counts as a stale rejection, not a hit.
    pub fn lookup(&mut self, fingerprint: u64, live_version: u64) -> CacheLookup {
        self.lookup_with_shape(fingerprint, None, live_version)
    }

    /// Exact lookup with shape-mode fallback: when `fingerprint` has no
    /// servable entry and `shape` is provided, entries sharing the shape
    /// fingerprint are scanned in insertion order for one whose stored key
    /// *subsumes* the query's —
    ///
    /// * **filter** entries: every stored interval contains the query's
    ///   interval for that column (`v >= 50` serves `v >= 60`;
    ///   `BETWEEN 10 AND 90` serves `BETWEEN 20 AND 80`), so the query
    ///   predicate implies the entry predicate and the entry's partitions
    ///   are a sound superset;
    /// * **top-k** entries: intervals exactly equal and
    ///   `entry.need >= query.need` — the entry's heap survivors plus its
    ///   boundary-tie partitions then cover the smaller top-k, ties
    ///   included. (A merely wider entry predicate is *not* sound here: its
    ///   top-k ranks over a larger row set, and the query's best rows may
    ///   not be among the entry's k survivors.)
    ///
    /// Candidates that fail the check count one `subsumption_rejections`
    /// each; stale candidates are dropped like stale exact entries.
    pub fn lookup_with_shape(
        &mut self,
        fingerprint: u64,
        shape: Option<&ShapeKey>,
        live_version: u64,
    ) -> CacheLookup {
        // No auxiliary-version resolver: entries *with* auxiliary
        // dependencies conservatively reject (their versions cannot be
        // verified), entries without pass vacuously.
        self.lookup_with_aux(fingerprint, shape, live_version, &|_| None)
    }

    /// [`Self::lookup_with_shape`] with auxiliary-table verification:
    /// `aux_live` resolves a table name to its live version (or `None`
    /// when the table is gone). An entry is servable only if the target
    /// version matches *and* every recorded auxiliary table still carries
    /// the version the entry saw — otherwise some other side of the
    /// recording join has changed, the cached contributor set may
    /// under-scan, and the entry is dropped as a stale rejection.
    pub fn lookup_with_aux(
        &mut self,
        fingerprint: u64,
        shape: Option<&ShapeKey>,
        live_version: u64,
        aux_live: &dyn Fn(&str) -> Option<u64>,
    ) -> CacheLookup {
        match self.entries.get(&fingerprint) {
            Some(entry) if entry.table_version != live_version || !aux_fresh(entry, aux_live) => {
                self.remove_entry(fingerprint);
                self.stats.stale_rejections += 1;
                // Fall through to the shape index: another same-shape entry
                // may have seen the DML this one missed.
            }
            Some(entry) => {
                let parts = replay_set(entry);
                self.stats.hits += 1;
                self.touch(fingerprint);
                return CacheLookup::Hit(parts);
            }
            None => {}
        }
        if let Some(query) = shape {
            if let Some(candidate) = self.find_subsuming(query, live_version, aux_live) {
                let parts = replay_set(&self.entries[&candidate]);
                self.stats.shape_hits += 1;
                self.touch(candidate);
                return CacheLookup::ShapeHit(parts);
            }
        }
        self.stats.misses += 1;
        CacheLookup::Miss
    }

    /// Scan the shape bucket for the first live candidate subsuming
    /// `query`, dropping stale candidates along the way.
    fn find_subsuming(
        &mut self,
        query: &ShapeKey,
        live_version: u64,
        aux_live: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<u64> {
        let candidates = self.shape_index.get(&query.fingerprint)?.clone();
        let mut found = None;
        for fp in candidates {
            let Some(entry) = self.entries.get(&fp) else {
                continue;
            };
            if entry.table_version != live_version || !aux_fresh(entry, aux_live) {
                self.remove_entry(fp);
                self.stats.stale_rejections += 1;
                continue;
            }
            let Some(key) = &entry.shape else { continue };
            if subsumes(&entry.kind, key, query) {
                found = Some(fp);
                break;
            }
            self.stats.subsumption_rejections += 1;
        }
        found
    }

    /// Bump the recency of a just-hit entry.
    fn touch(&mut self, fingerprint: u64) {
        self.tick += 1;
        if let Some(m) = self.meta.get_mut(&fingerprint) {
            m.last_hit = self.tick;
        }
    }

    /// Record an entry, evicting per the LRU/cost policy when over
    /// capacity. Re-inserting an existing fingerprint replaces the entry
    /// and resets its recency (it is a fresh recording, not a hit).
    pub fn insert(&mut self, fingerprint: u64, entry: CacheEntry) {
        self.tick += 1;
        let shape_fp = entry.shape.as_ref().map(|s| s.fingerprint);
        if let Some(old) = self.entries.insert(fingerprint, entry) {
            // Replacement: drop the old shape mapping; re-adding below
            // keeps bucket order deduplicated.
            self.unindex_shape(fingerprint, old.shape.as_ref().map(|s| s.fingerprint));
        }
        if let Some(sfp) = shape_fp {
            self.shape_index.entry(sfp).or_default().push(fingerprint);
        }
        self.meta.insert(
            fingerprint,
            EntryMeta {
                last_hit: 0,
                seq: self.tick,
            },
        );
        self.stats.insertions += 1;
        while self.entries.len() > self.capacity {
            // Victim: never-hit before hit (LRU on hit recency), then the
            // entry saving the fewest loads (cost tiebreak), then oldest
            // insertion. The just-inserted entry is never the victim.
            let victim = self
                .entries
                .iter()
                .filter(|(fp, _)| **fp != fingerprint)
                .map(|(fp, e)| {
                    let m = self.meta[fp];
                    (m.last_hit, e.saved_loads, m.seq, *fp)
                })
                .min();
            let Some((_, _, _, victim)) = victim else {
                break;
            };
            self.remove_entry(victim);
            self.stats.evictions += 1;
        }
    }

    /// Drop an entry and all its index bookkeeping.
    fn remove_entry(&mut self, fingerprint: u64) {
        let entry = self.entries.remove(&fingerprint);
        self.meta.remove(&fingerprint);
        self.unindex_shape(
            fingerprint,
            entry.and_then(|e| e.shape.map(|s| s.fingerprint)),
        );
    }

    /// Drop `fingerprint` from its shape bucket (`None` shape = no-op).
    fn unindex_shape(&mut self, fingerprint: u64, shape_fp: Option<u64>) {
        let Some(shape_fp) = shape_fp else { return };
        if let Some(bucket) = self.shape_index.get_mut(&shape_fp) {
            bucket.retain(|fp| *fp != fingerprint);
            if bucket.is_empty() {
                self.shape_index.remove(&shape_fp);
            }
        }
    }

    /// Apply a DML statement's effect to all entries of `table`, following
    /// the §8.2 correctness rules:
    ///
    /// * INSERT appends the new partitions to every entry (new rows may
    ///   enter any result).
    /// * DELETE invalidates top-k entries (the replacement k+1-th row may
    ///   live outside the cached partitions); filter entries just rewrite
    ///   removed partitions.
    /// * UPDATE of the ordering column — or of any column the entry's
    ///   predicate references — invalidates top-k entries: the update can
    ///   change which rows qualify or how they rank, and the new boundary
    ///   row may live in a never-cached, never-rewritten partition.
    /// * UPDATE touching a filter entry's predicate columns appends the
    ///   replacement partitions *unconditionally*: even when no cached
    ///   partition was rewritten, the update may have moved rows into the
    ///   predicate's range inside a previously non-matching partition.
    /// * All other updates (and filter-entry deletes) rewrite removed
    ///   partitions to their replacements only when a cached partition was
    ///   actually touched — untouched partitions keep their predicate
    ///   status, so adding replacements would be needlessly lossy.
    ///
    /// Shape-bearing entries follow the same rules: their
    /// `predicate_columns` cover every column their ranges constrain, so an
    /// entry kept alive here remains a sound shape-serving superset for any
    /// query it subsumes.
    ///
    /// Table versions advance by exactly one per DML statement, so an
    /// entry whose recorded version is not `result.new_version - 1` missed
    /// at least one notification (DML applied behind the cache's back).
    /// Stamping it with `new_version` would *resynchronize* it and defeat
    /// the lookup-time staleness check, so such entries are dropped here
    /// (counted as stale rejections).
    pub fn on_dml(&mut self, table: &str, kind: &DmlKind, result: &DmlResult) {
        let mut invalidated = Vec::new();
        let mut stale = Vec::new();
        for (fp, entry) in self.entries.iter_mut() {
            if entry.table != table {
                // DML on a table an entry recorded as an auxiliary join
                // dependency: the entry's target restriction was computed
                // against the old build/probe side, so it is invalidated
                // outright (the DML rules below only model single-table
                // effects, not how the join output shifts).
                if entry.aux_tables.iter().any(|(t, _)| t == table) {
                    invalidated.push(*fp);
                }
                continue;
            }
            if entry.table_version + 1 != result.new_version {
                stale.push(*fp);
                continue;
            }
            let predicate_hit = matches!(
                kind,
                DmlKind::Update(cols) if cols.iter().any(|c| entry.predicate_columns.contains(c))
            );
            let unsafe_for_topk = match (&entry.kind, kind) {
                (EntryKind::TopK { .. }, DmlKind::Delete) => true,
                (EntryKind::TopK { order_column }, DmlKind::Update(cols)) => {
                    predicate_hit || cols.iter().any(|c| c == order_column)
                }
                _ => false,
            };
            if unsafe_for_topk {
                invalidated.push(*fp);
                continue;
            }
            // Safe DML: rewrite removed partitions to their replacements and
            // append inserted partitions as additional candidates.
            let touched_cached = entry
                .partitions
                .iter()
                .chain(entry.appended.iter())
                .any(|p| result.partitions_removed.contains(p));
            entry
                .partitions
                .retain(|p| !result.partitions_removed.contains(p));
            entry
                .appended
                .retain(|p| !result.partitions_removed.contains(p));
            match kind {
                DmlKind::Insert => {
                    entry
                        .appended
                        .extend(result.partitions_added.iter().copied());
                }
                _ => {
                    // Rewrites: replacement partitions matter when a cached
                    // partition was rewritten — or when the update touched a
                    // predicate column, in which case a rewritten partition
                    // may hold newly-matching rows even though the entry
                    // never referenced it.
                    if touched_cached || predicate_hit {
                        entry
                            .appended
                            .extend(result.partitions_added.iter().copied());
                    }
                }
            }
            entry.table_version = result.new_version;
        }
        for fp in invalidated {
            self.remove_entry(fp);
            self.stats.invalidations += 1;
        }
        for fp in stale {
            self.remove_entry(fp);
            self.stats.stale_rejections += 1;
        }
    }
}

/// Every auxiliary table still carries the version the entry recorded.
/// Vacuously true for single-table entries, whatever the resolver.
fn aux_fresh(entry: &CacheEntry, aux_live: &dyn Fn(&str) -> Option<u64>) -> bool {
    entry
        .aux_tables
        .iter()
        .all(|(t, v)| aux_live(t) == Some(*v))
}

/// Cached contributors plus DML-appended partitions, sorted and deduped.
fn replay_set(entry: &CacheEntry) -> Vec<PartitionId> {
    let mut parts = entry.partitions.clone();
    parts.extend(entry.appended.iter().copied());
    parts.sort_unstable();
    parts.dedup();
    parts
}

/// The kind-dependent subsumption rule (range-compare over `Value` bounds).
fn subsumes(kind: &EntryKind, entry: &ShapeKey, query: &ShapeKey) -> bool {
    if entry.ranges.len() != query.ranges.len() {
        return false;
    }
    let columns_align = entry
        .ranges
        .iter()
        .zip(&query.ranges)
        .all(|(e, q)| e.column == q.column);
    if !columns_align {
        return false;
    }
    match kind {
        EntryKind::Filter => entry
            .ranges
            .iter()
            .zip(&query.ranges)
            .all(|(e, q)| e.contains(q)),
        EntryKind::TopK { .. } => {
            let (Some(have), Some(want)) = (entry.need, query.need) else {
                return false;
            };
            have >= want
                && entry
                    .ranges
                    .iter()
                    .zip(&query.ranges)
                    .all(|(e, q)| e.same_interval(q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_types::{LiteralRange, RangeBound, Value};

    fn topk_entry() -> CacheEntry {
        CacheEntry {
            kind: EntryKind::TopK {
                order_column: "num_sightings".into(),
            },
            table: "t".into(),
            partitions: vec![3, 7],
            predicate_columns: Vec::new(),
            table_version: 1,
            appended: Vec::new(),
            shape: None,
            saved_loads: 0,
            aux_tables: Vec::new(),
        }
    }

    fn ge_range(column: &str, lo: i64, inclusive: bool) -> LiteralRange {
        LiteralRange {
            column: column.into(),
            lo: Some(RangeBound {
                value: Value::Int(lo),
                inclusive,
            }),
            hi: None,
        }
    }

    fn filter_shape(lo: i64, inclusive: bool) -> ShapeKey {
        ShapeKey {
            fingerprint: 777,
            ranges: vec![ge_range("w", lo, inclusive)],
            need: None,
        }
    }

    fn shaped_filter_entry(lo: i64, inclusive: bool) -> CacheEntry {
        CacheEntry {
            kind: EntryKind::Filter,
            table: "t".into(),
            partitions: vec![1, 2],
            predicate_columns: vec!["w".into()],
            table_version: 1,
            appended: Vec::new(),
            shape: Some(filter_shape(lo, inclusive)),
            saved_loads: 0,
            aux_tables: Vec::new(),
        }
    }

    fn dml(added: Vec<u64>, removed: Vec<u64>) -> DmlResult {
        dml_at(added, removed, 2)
    }

    /// A DML result advancing the table to `new_version` (consecutive
    /// statements must advance by exactly one, as real tables do).
    fn dml_at(added: Vec<u64>, removed: Vec<u64>, new_version: u64) -> DmlResult {
        DmlResult {
            rows_affected: 1,
            partitions_added: added,
            partitions_removed: removed,
            new_version,
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = PredicateCache::new(4);
        assert_eq!(c.lookup(1, 1), CacheLookup::Miss);
        c.insert(1, topk_entry());
        assert_eq!(c.lookup(1, 1), CacheLookup::Hit(vec![3, 7]));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn stale_version_rejects_and_drops_entry() {
        // A lookup against a table version the entry never saw (DML the
        // cache was not told about) must reject — and keep rejecting.
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        assert_eq!(c.lookup(1, 5), CacheLookup::Miss);
        assert_eq!(c.stats().stale_rejections, 1);
        assert_eq!(c.stats().hits, 0);
        // Dropped, not retried: even the recorded version now misses.
        assert_eq!(c.lookup(1, 1), CacheLookup::Miss);
        assert_eq!(c.stats().stale_rejections, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn on_dml_drops_entries_that_missed_an_untracked_dml() {
        // Entry recorded at version 1; the table is mutated behind the
        // cache's back (version 1 -> 2), then a *tracked* DML lands
        // (2 -> 3). Stamping the entry with new_version 3 would
        // resynchronize it and serve a replay that misses the untracked
        // statement's partitions — it must be dropped instead.
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry()); // table_version 1
        let tracked = DmlResult {
            rows_affected: 1,
            partitions_added: vec![9],
            partitions_removed: vec![],
            new_version: 3, // implies an unseen version-2 statement
        };
        c.on_dml("t", &DmlKind::Insert, &tracked);
        assert_eq!(c.lookup(1, 3), CacheLookup::Miss);
        assert_eq!(c.stats().stale_rejections, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn on_dml_keeps_versions_in_sync() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        c.on_dml("t", &DmlKind::Insert, &dml(vec![9], vec![]));
        assert_eq!(c.lookup(1, 2), CacheLookup::Hit(vec![3, 7, 9]));
    }

    #[test]
    fn insert_appends_new_partitions() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        c.on_dml("t", &DmlKind::Insert, &dml(vec![9], vec![]));
        assert_eq!(c.lookup(1, 2), CacheLookup::Hit(vec![3, 7, 9]));
    }

    #[test]
    fn delete_invalidates_topk() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        c.on_dml("t", &DmlKind::Delete, &dml(vec![10], vec![3]));
        assert_eq!(c.lookup(1, 2), CacheLookup::Miss);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn update_order_column_invalidates_topk() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["num_sightings".into()]),
            &dml(vec![10], vec![7]),
        );
        assert_eq!(c.lookup(1, 2), CacheLookup::Miss);
    }

    #[test]
    fn update_predicate_column_invalidates_topk() {
        // Regression companion: a top-k entry whose predicate references
        // `species` cannot survive an UPDATE of `species` — the update may
        // disqualify a cached contributor, loosening the boundary so that a
        // row from a never-cached, never-rewritten partition enters the
        // result.
        let mut c = PredicateCache::new(4);
        let mut e = topk_entry();
        e.predicate_columns = vec!["species".into()];
        c.insert(1, e);
        // The rewritten partition (5) is NOT cached: the old fast path
        // would have treated this as a no-op for the entry.
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["species".into()]),
            &dml(vec![11], vec![5]),
        );
        assert_eq!(c.lookup(1, 2), CacheLookup::Miss);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn update_other_column_rewrites_partitions() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        // Partition 7 rewritten to 10 by an update of a non-ordering column.
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["species".into()]),
            &dml(vec![10], vec![7]),
        );
        assert_eq!(c.lookup(1, 2), CacheLookup::Hit(vec![3, 10]));
    }

    #[test]
    fn update_untouched_partition_is_noop_for_entry() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        // Rewrite of partition 5, which the entry does not reference, by an
        // update of a column the entry's predicate does not reference.
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["species".into()]),
            &dml(vec![11], vec![5]),
        );
        assert_eq!(c.lookup(1, 2), CacheLookup::Hit(vec![3, 7]));
    }

    #[test]
    fn update_of_predicate_column_appends_replacements_for_filter_entry() {
        // THE regression for the `touched_cached` UPDATE fast-path bug: a
        // filter entry caching partitions {1, 2}; an UPDATE of the
        // predicate column rewrites *non-cached* partition 5 into 9,
        // moving rows into the predicate's range. The old code appended
        // nothing (no cached partition was touched), silently under-
        // scanning; the replacement must now be appended unconditionally.
        let mut c = PredicateCache::new(4);
        c.insert(2, shaped_filter_entry(50, true));
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["w".into()]),
            &dml(vec![9], vec![5]),
        );
        assert_eq!(c.lookup(2, 2), CacheLookup::Hit(vec![1, 2, 9]));
        // An update of an unrelated column keeps the old lossless fast
        // path: untouched entry, no appends.
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["payload".into()]),
            &dml_at(vec![12], vec![6], 3),
        );
        assert_eq!(c.lookup(2, 3), CacheLookup::Hit(vec![1, 2, 9]));
    }

    #[test]
    fn filter_entries_survive_all_dml() {
        let mut c = PredicateCache::new(4);
        c.insert(
            2,
            CacheEntry {
                kind: EntryKind::Filter,
                table: "t".into(),
                partitions: vec![1, 2],
                predicate_columns: Vec::new(),
                table_version: 1,
                appended: Vec::new(),
                shape: None,
                saved_loads: 0,
                aux_tables: Vec::new(),
            },
        );
        c.on_dml("t", &DmlKind::Delete, &dml(vec![5], vec![2]));
        assert_eq!(c.lookup(2, 2), CacheLookup::Hit(vec![1, 5]));
        c.on_dml(
            "t",
            &DmlKind::Update(vec!["x".into()]),
            &dml_at(vec![6], vec![1], 3),
        );
        assert_eq!(c.lookup(2, 3), CacheLookup::Hit(vec![5, 6]));
    }

    #[test]
    fn other_tables_unaffected() {
        let mut c = PredicateCache::new(4);
        c.insert(1, topk_entry());
        c.on_dml("other", &DmlKind::Delete, &dml(vec![], vec![3]));
        assert_eq!(c.lookup(1, 1), CacheLookup::Hit(vec![3, 7]));
    }

    // ---- auxiliary join dependencies -------------------------------------

    fn aux_entry() -> CacheEntry {
        let mut e = topk_entry();
        e.aux_tables = vec![("dim".into(), 4)];
        e
    }

    #[test]
    fn aux_versions_verified_at_lookup() {
        let mut c = PredicateCache::new(4);
        c.insert(1, aux_entry());
        // Matching auxiliary version: serves.
        let fresh = |t: &str| (t == "dim").then_some(4);
        assert_eq!(
            c.lookup_with_aux(1, None, 1, &fresh),
            CacheLookup::Hit(vec![3, 7])
        );
        // Auxiliary table moved on (version 5): the join's other side
        // changed, the entry is dropped as stale.
        let moved = |t: &str| (t == "dim").then_some(5);
        assert_eq!(c.lookup_with_aux(1, None, 1, &moved), CacheLookup::Miss);
        assert_eq!(c.stats().stale_rejections, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn aux_entry_rejected_without_resolver() {
        // `lookup`/`lookup_with_shape` cannot verify auxiliary versions, so
        // aux-bearing entries conservatively reject there; aux-free entries
        // are unaffected.
        let mut c = PredicateCache::new(4);
        c.insert(1, aux_entry());
        c.insert(2, topk_entry());
        assert_eq!(c.lookup(1, 1), CacheLookup::Miss);
        assert_eq!(c.stats().stale_rejections, 1);
        assert_eq!(c.lookup(2, 1), CacheLookup::Hit(vec![3, 7]));
    }

    #[test]
    fn dml_on_aux_table_invalidates_dependent_entry() {
        // THE regression for join-shape admission: an entry over table "t"
        // recorded through a join against "dim" must die when "dim" is
        // mutated, even though the entry's own table never changed.
        let mut c = PredicateCache::new(4);
        c.insert(1, aux_entry());
        c.insert(2, topk_entry()); // no aux: must survive
        c.on_dml("dim", &DmlKind::Insert, &dml(vec![42], vec![]));
        let fresh = |t: &str| (t == "dim").then_some(5);
        assert_eq!(c.lookup_with_aux(1, None, 1, &fresh), CacheLookup::Miss);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.lookup(2, 1), CacheLookup::Hit(vec![3, 7]));
    }

    // ---- shape-mode subsumption -----------------------------------------

    #[test]
    fn shape_hit_serves_subsumed_filter_range() {
        let mut c = PredicateCache::new(4);
        // Entry for `w >= 50`; query `w >= 60` has a different exact
        // fingerprint but the same shape, and [60, inf) ⊆ [50, inf).
        c.insert(10, shaped_filter_entry(50, true));
        let query = filter_shape(60, true);
        assert_eq!(
            c.lookup_with_shape(99, Some(&query), 1),
            CacheLookup::ShapeHit(vec![1, 2])
        );
        let s = c.stats();
        assert_eq!((s.hits, s.shape_hits, s.misses), (0, 1, 0));
        // The reverse direction must NOT serve: [50, inf) ⊄ [60, inf).
        let mut c = PredicateCache::new(4);
        c.insert(10, shaped_filter_entry(60, true));
        assert_eq!(
            c.lookup_with_shape(99, Some(&filter_shape(50, true)), 1),
            CacheLookup::Miss
        );
        let s = c.stats();
        assert_eq!(
            (s.shape_hits, s.subsumption_rejections, s.misses),
            (0, 1, 1)
        );
    }

    #[test]
    fn shape_hit_equal_boundary_inclusivity() {
        // `w >= 50` entry serves `w > 50` (strictly narrower at the
        // shared endpoint) but `w > 50` must never serve `w >= 50`.
        let mut c = PredicateCache::new(4);
        c.insert(10, shaped_filter_entry(50, true));
        assert_eq!(
            c.lookup_with_shape(99, Some(&filter_shape(50, false)), 1),
            CacheLookup::ShapeHit(vec![1, 2])
        );
        let mut c = PredicateCache::new(4);
        c.insert(10, shaped_filter_entry(50, false));
        assert_eq!(
            c.lookup_with_shape(99, Some(&filter_shape(50, true)), 1),
            CacheLookup::Miss
        );
        assert_eq!(c.stats().subsumption_rejections, 1);
    }

    #[test]
    fn exact_hit_takes_precedence_over_shape() {
        let mut c = PredicateCache::new(4);
        c.insert(10, shaped_filter_entry(50, true));
        let mut wider = shaped_filter_entry(40, true);
        wider.partitions = vec![8, 9];
        c.insert(11, wider);
        // Fingerprint 10 exists: exact hit, even though 11 also subsumes.
        assert_eq!(
            c.lookup_with_shape(10, Some(&filter_shape(50, true)), 1),
            CacheLookup::Hit(vec![1, 2])
        );
        assert_eq!(c.stats().shape_hits, 0);
    }

    fn shaped_topk_entry(need: u64, lo: i64) -> CacheEntry {
        CacheEntry {
            kind: EntryKind::TopK {
                order_column: "v".into(),
            },
            table: "t".into(),
            partitions: vec![3, 7],
            predicate_columns: vec!["w".into()],
            table_version: 1,
            appended: Vec::new(),
            shape: Some(ShapeKey {
                fingerprint: 888,
                ranges: vec![ge_range("w", lo, true)],
                need: Some(need),
            }),
            saved_loads: 0,
            aux_tables: Vec::new(),
        }
    }

    fn topk_shape(need: u64, lo: i64) -> ShapeKey {
        ShapeKey {
            fingerprint: 888,
            ranges: vec![ge_range("w", lo, true)],
            need: Some(need),
        }
    }

    #[test]
    fn topk_shape_hit_requires_equal_ranges_and_covering_k() {
        let mut c = PredicateCache::new(4);
        c.insert(20, shaped_topk_entry(10, 50));
        // Same predicate range, smaller k: the recorded survivors + tie
        // log cover the smaller top-k.
        assert_eq!(
            c.lookup_with_shape(99, Some(&topk_shape(3, 50)), 1),
            CacheLookup::ShapeHit(vec![3, 7])
        );
        // Larger k cannot be served.
        assert_eq!(
            c.lookup_with_shape(98, Some(&topk_shape(12, 50)), 1),
            CacheLookup::Miss
        );
        // A narrower predicate range is NOT sound for top-k even though it
        // would be for a filter entry: the entry ranked its k over a
        // different row set.
        assert_eq!(
            c.lookup_with_shape(97, Some(&topk_shape(3, 60)), 1),
            CacheLookup::Miss
        );
        assert_eq!(c.stats().subsumption_rejections, 2);
        assert_eq!(c.stats().shape_hits, 1);
    }

    #[test]
    fn stale_shape_candidate_dropped_and_live_one_serves() {
        let mut c = PredicateCache::new(4);
        let mut stale = shaped_filter_entry(40, true);
        stale.table_version = 1;
        c.insert(30, stale);
        let mut live = shaped_filter_entry(45, true);
        live.table_version = 2;
        live.partitions = vec![5];
        c.insert(31, live);
        // At live version 2, candidate 30 is stale (dropped, counted) and
        // candidate 31 serves.
        assert_eq!(
            c.lookup_with_shape(99, Some(&filter_shape(60, true)), 2),
            CacheLookup::ShapeHit(vec![5])
        );
        assert_eq!(c.stats().stale_rejections, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dml_invalidates_shape_serving_topk_while_exact_filter_survives() {
        // A top-k entry serving shape lookups is invalidated by DELETE; a
        // filter entry for the same table keeps serving its exact
        // fingerprint, and the shape lookup that used to hit now misses.
        let mut c = PredicateCache::new(4);
        c.insert(20, shaped_topk_entry(10, 50));
        c.insert(2, shaped_filter_entry(50, true));
        assert_eq!(
            c.lookup_with_shape(99, Some(&topk_shape(3, 50)), 1),
            CacheLookup::ShapeHit(vec![3, 7])
        );
        c.on_dml("t", &DmlKind::Delete, &dml(vec![], vec![3]));
        assert_eq!(
            c.lookup_with_shape(99, Some(&topk_shape(3, 50)), 2),
            CacheLookup::Miss,
            "DELETE must invalidate the shape-serving top-k entry"
        );
        assert_eq!(c.lookup(2, 2), CacheLookup::Hit(vec![1, 2]));
        assert_eq!(c.stats().invalidations, 1);
    }

    // ---- eviction policy -------------------------------------------------

    #[test]
    fn never_hit_entries_evict_in_insertion_order() {
        // With no hits and equal cost, the policy degenerates to FIFO.
        let mut c = PredicateCache::new(2);
        c.insert(1, topk_entry());
        c.insert(2, topk_entry());
        c.insert(3, topk_entry());
        assert_eq!(c.lookup(1, 1), CacheLookup::Miss);
        assert_ne!(c.lookup(2, 1), CacheLookup::Miss);
        assert_ne!(c.lookup(3, 1), CacheLookup::Miss);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_hit_recency_protects_hot_entries() {
        let mut c = PredicateCache::new(2);
        c.insert(1, topk_entry());
        c.insert(2, topk_entry());
        // Hit 1: it becomes the protected entry even though it is older.
        assert_ne!(c.lookup(1, 1), CacheLookup::Miss);
        c.insert(3, topk_entry());
        assert_eq!(c.lookup(2, 1), CacheLookup::Miss, "cold entry evicted");
        assert_ne!(c.lookup(1, 1), CacheLookup::Miss, "hot entry retained");
        assert_ne!(c.lookup(3, 1), CacheLookup::Miss);
        // Least-*recently* hit goes first among hit entries: 1 was hit
        // before 3, so inserting 4 evicts 1.
        c.insert(4, topk_entry());
        assert_eq!(c.lookup(1, 1), CacheLookup::Miss);
        assert_ne!(c.lookup(3, 1), CacheLookup::Miss);
        assert_ne!(c.lookup(4, 1), CacheLookup::Miss);
    }

    #[test]
    fn cost_breaks_ties_among_never_hit_entries() {
        // Among never-hit entries, the one whose partition set saved the
        // fewest loads evicts first — regardless of insertion order.
        let mut c = PredicateCache::new(2);
        let with_cost = |saved: u64| {
            let mut e = topk_entry();
            e.saved_loads = saved;
            e
        };
        c.insert(1, with_cost(10));
        c.insert(2, with_cost(0));
        c.insert(3, with_cost(5));
        // Victim among {1 (saved 10), 2 (saved 0)}: 2.
        assert_eq!(c.lookup(2, 1), CacheLookup::Miss);
        // 1 and 3 survive; next insert evicts 3 (saved 5 < 10) even though
        // 1 is the oldest.
        c.insert(4, with_cost(0));
        assert_eq!(c.lookup(3, 1), CacheLookup::Miss);
        assert_ne!(c.lookup(1, 1), CacheLookup::Miss);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn reinsert_refreshes_entry_and_resets_recency() {
        let mut c = PredicateCache::new(3);
        c.insert(1, topk_entry());
        c.insert(2, topk_entry());
        c.insert(3, topk_entry());
        // Re-record 1: fresh recording, never hit — but newest seq, so 2 is
        // now the oldest never-hit entry and evicts first.
        c.insert(1, topk_entry());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 0);
        c.insert(4, topk_entry());
        assert_eq!(c.lookup(2, 1), CacheLookup::Miss, "2 evicted first");
        assert_ne!(c.lookup(1, 1), CacheLookup::Miss, "re-inserted 1 retained");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn evicted_shape_entry_leaves_no_dangling_index() {
        let mut c = PredicateCache::new(1);
        c.insert(10, shaped_filter_entry(50, true));
        c.insert(11, shaped_filter_entry(40, true));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 1);
        // Entry 10 is gone; only 11 can serve the shape lookup.
        assert_eq!(
            c.lookup_with_shape(99, Some(&filter_shape(60, true)), 1),
            CacheLookup::ShapeHit(vec![1, 2])
        );
        assert_eq!(c.stats().shape_hits, 1);
    }
}
