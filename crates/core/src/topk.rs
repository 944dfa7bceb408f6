//! Top-k pruning (§5): boundary-value runtime pruning in the style of
//! block-max WAND, plus partition processing-order strategies (§5.3) and
//! upfront boundary initialization from fully-matching partitions (§5.4).
//!
//! Semantics note: the top-k heap ranks **non-null** ORDER BY values (NULLS
//! LAST for descending queries, mirroring common SQL defaults); rows with a
//! NULL ordering key never enter the heap, so partitions whose ordering
//! column is entirely NULL can be skipped outright.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;
use snowprune_storage::PartitionMeta;
use snowprune_types::{KeyValue, MatchClass, Value, ZoneMap};

use crate::scan_set::{index_by_id, ScanEntry, ScanSet};

/// The shared pruning boundary: the k-th best ORDER BY value seen so far.
/// Shared between the TopK operator and table scans ("passing information
/// both horizontally and vertically", §2.1).
///
/// A boundary can be *seeded* upfront (§5.4) before the heap holds k rows.
/// A seeded bound only guarantees that k qualifying rows `>= boundary`
/// exist — some of those rows may sit in partitions whose max *equals* the
/// boundary, so skipping must be **strict** (`max < boundary`). The
/// inclusive rule (`max <= boundary`) becomes sound exactly when the
/// stored bound is the heap's own k-th value (set via
/// [`Boundary::tighten_inclusive`]): a row equal to the k-th value cannot
/// displace anything.
#[derive(Debug)]
pub struct Boundary {
    desc: bool,
    /// (bound, inclusive_ok): `inclusive_ok` is true when `bound` came
    /// from a full heap (bound == current k-th best).
    value: RwLock<(Option<Value>, bool)>,
    /// Bumped on every effective tightening (new bound, or an inclusive
    /// upgrade of the current bound). Because the boundary is monotone,
    /// a worker that cached a skip decision at epoch `e` knows the decision
    /// still holds at any later epoch — staleness can only under-prune.
    epoch: AtomicU64,
}

impl Boundary {
    /// Create an empty boundary for the given sort direction.
    pub fn new(desc: bool) -> Arc<Self> {
        Arc::new(Boundary {
            desc,
            value: RwLock::new((None, false)),
            epoch: AtomicU64::new(0),
        })
    }

    /// The sort direction the boundary tracks.
    pub fn desc(&self) -> bool {
        self.desc
    }

    /// Current boundary value, if one has been published.
    pub fn get(&self) -> Option<Value> {
        self.value.read().0.clone()
    }

    /// Consistent snapshot of `(bound, inclusive)` — what a scan worker
    /// sees when it consults the boundary between two morsels.
    pub fn state(&self) -> (Option<Value>, bool) {
        self.value.read().clone()
    }

    /// Number of effective tightenings so far. Strictly monotone; two
    /// equal epochs imply identical `state()`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(AtomicOrdering::Acquire)
    }

    /// Tighten the boundary with an *external* bound (upfront seeding):
    /// monotone, and resets the bound to strict-skip semantics.
    pub fn tighten(&self, v: &Value) {
        self.tighten_impl(v, false);
    }

    /// Tighten with the heap's own k-th best value. When this value becomes
    /// (or already equals) the stored bound, inclusive skipping is sound.
    pub fn tighten_inclusive(&self, v: &Value) {
        self.tighten_impl(v, true);
    }

    fn tighten_impl(&self, v: &Value, from_heap: bool) {
        if v.is_null() {
            return;
        }
        let mut guard = self.value.write();
        let (better, equal) = match &guard.0 {
            None => (true, false),
            Some(cur) => match v.total_ord_cmp(cur) {
                Ordering::Greater => (self.desc, false),
                Ordering::Less => (!self.desc, false),
                Ordering::Equal => (false, true),
            },
        };
        if better {
            *guard = (Some(v.clone()), from_heap);
            self.epoch.fetch_add(1, AtomicOrdering::Release);
        } else if equal && from_heap && !guard.1 {
            guard.1 = true;
            self.epoch.fetch_add(1, AtomicOrdering::Release);
        }
    }

    /// Can a partition with this ORDER BY zone map be skipped?
    ///
    /// For DESC: skip when the partition's max is `<=` the boundary — no
    /// row in it can displace the current k-th value. Unbounded or missing
    /// metadata never skips. All-NULL ordering columns always skip.
    pub fn should_skip(&self, zm: &ZoneMap) -> bool {
        if zm.row_count == 0 || zm.all_null() {
            return true;
        }
        let guard = self.value.read();
        let (Some(bound), inclusive) = (&guard.0, guard.1) else {
            return false;
        };
        boundary_allows_skip(self.desc, bound, inclusive, zm)
    }
}

/// The pure skip rule, factored out of [`Boundary::should_skip`] so that
/// pruning against a *stale snapshot* of the boundary (what pooled scan
/// workers do between morsels) can be reasoned about and property-tested
/// directly: because bounds only tighten, any `(bound, inclusive)` state
/// that once allowed a skip keeps allowing it — a stale snapshot may
/// under-prune but never over-prune. Callers must have already handled the
/// empty / all-NULL zone-map cases.
pub fn boundary_allows_skip(desc: bool, bound: &Value, inclusive: bool, zm: &ZoneMap) -> bool {
    if desc {
        match &zm.max {
            Some(max) => match max.sql_cmp(bound) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => inclusive,
                _ => false,
            },
            None => false,
        }
    } else {
        match &zm.min {
            Some(min) => match min.sql_cmp(bound) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => inclusive,
                _ => false,
            },
            None => false,
        }
    }
}

struct HeapEntry<T> {
    key: KeyValue,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// The heap-based top-k accumulator (the "standard heap-based approach" of
/// §5) that additionally feeds the pruning [`Boundary`].
pub struct TopKHeap<T> {
    k: usize,
    desc: bool,
    // For DESC queries this is a min-heap (via Reverse) holding the k
    // largest; for ASC a max-heap holding the k smallest.
    desc_heap: BinaryHeap<std::cmp::Reverse<HeapEntry<T>>>,
    asc_heap: BinaryHeap<HeapEntry<T>>,
    boundary: Arc<Boundary>,
    seq: u64,
}

impl<T> TopKHeap<T> {
    /// Create a heap of capacity `k` sharing `boundary` with the scan.
    pub fn new(k: usize, desc: bool, boundary: Arc<Boundary>) -> Self {
        assert_eq!(boundary.desc(), desc);
        TopKHeap {
            k,
            desc,
            desc_heap: BinaryHeap::new(),
            asc_heap: BinaryHeap::new(),
            boundary,
            seq: 0,
        }
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        if self.desc {
            self.desc_heap.len()
        } else {
            self.asc_heap.len()
        }
    }

    /// True when the heap holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offer a row. NULL keys are ignored (NULLS LAST semantics).
    pub fn insert(&mut self, key: Value, payload: T) {
        if key.is_null() || self.k == 0 {
            return;
        }
        self.seq += 1;
        let entry = HeapEntry {
            key: KeyValue(key),
            seq: self.seq,
            payload,
        };
        if self.desc {
            if self.desc_heap.len() < self.k {
                self.desc_heap.push(std::cmp::Reverse(entry));
            } else {
                let min = &self.desc_heap.peek().unwrap().0;
                if entry.key > min.key {
                    self.desc_heap.pop();
                    self.desc_heap.push(std::cmp::Reverse(entry));
                }
            }
            if self.desc_heap.len() >= self.k {
                let min = &self.desc_heap.peek().unwrap().0;
                self.boundary.tighten_inclusive(&min.key.0.clone());
            }
        } else {
            if self.asc_heap.len() < self.k {
                self.asc_heap.push(entry);
            } else {
                let max = self.asc_heap.peek().unwrap();
                if entry.key < max.key {
                    self.asc_heap.pop();
                    self.asc_heap.push(entry);
                }
            }
            if self.asc_heap.len() >= self.k {
                let max = self.asc_heap.peek().unwrap();
                self.boundary.tighten_inclusive(&max.key.0.clone());
            }
        }
    }

    /// Drain into final result order (best first).
    pub fn into_sorted(self) -> Vec<(Value, T)> {
        let mut items: Vec<HeapEntry<T>> = if self.desc {
            self.desc_heap.into_iter().map(|r| r.0).collect()
        } else {
            self.asc_heap.into_vec()
        };
        if self.desc {
            items.sort_by(|a, b| b.key.cmp(&a.key).then(a.seq.cmp(&b.seq)));
        } else {
            items.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        }
        items.into_iter().map(|e| (e.key.0, e.payload)).collect()
    }
}

/// Partition processing-order strategies evaluated in §5.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionOrder {
    /// Keep the scan-set order as produced by earlier pruning.
    Unsorted,
    /// Deterministic random order (the paper's "None/random" baseline).
    Random {
        /// Shuffle seed, so the baseline is reproducible.
        seed: u64,
    },
    /// Full sort by the ORDER BY column's max (DESC) / min (ASC): partitions
    /// likely to hold top values first.
    ByBoundary,
    /// Extension: like `ByBoundary` but fully-matching partitions first
    /// within equal bounds, countering the selective-filter pathology the
    /// paper describes (sorting may prioritize partitions whose rows are
    /// all filtered out).
    FullyMatchingFirst,
}

/// Reorder a scan set in place for top-k processing. `metas` may be in any
/// order and owned or borrowed; an entry whose metadata is missing sorts as
/// unbounded.
pub fn order_scan_set<M: Borrow<PartitionMeta>>(
    scan_set: &mut ScanSet,
    metas: &[M],
    order_col: usize,
    desc: bool,
    strategy: PartitionOrder,
) {
    match strategy {
        PartitionOrder::Unsorted => {}
        PartitionOrder::Random { seed } => {
            let mut state = seed ^ 0x243f_6a88_85a3_08d3;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let n = scan_set.entries.len();
            for i in (1..n).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                scan_set.entries.swap(i, j);
            }
        }
        PartitionOrder::ByBoundary | PartitionOrder::FullyMatchingFirst => {
            let fm_first = strategy == PartitionOrder::FullyMatchingFirst;
            let by_id = index_by_id(metas);
            // Decorate–sort–undecorate: each entry's bound is resolved once,
            // by reference, not once per comparison.
            let mut keyed: Vec<(Option<&Value>, ScanEntry)> = std::mem::take(&mut scan_set.entries)
                .into_iter()
                .map(|e| {
                    let bound = by_id.get(&e.id).and_then(|m| {
                        let zm = &m.zone_maps[order_col];
                        if desc { &zm.max } else { &zm.min }.as_ref()
                    });
                    (bound, e)
                })
                .collect();
            keyed.sort_by(|(ba, a), (bb, b)| {
                if fm_first {
                    let fa = a.class == MatchClass::FullyMatching;
                    let fb = b.class == MatchClass::FullyMatching;
                    if fa != fb {
                        return fb.cmp(&fa);
                    }
                }
                match (ba, bb) {
                    // Unbounded (None) sorts first: it may hold anything.
                    (None, None) => a.id.cmp(&b.id),
                    (None, Some(_)) => Ordering::Less,
                    (Some(_), None) => Ordering::Greater,
                    (Some(x), Some(y)) => {
                        let ord = x.total_ord_cmp(y);
                        if desc { ord.reverse() } else { ord }.then(a.id.cmp(&b.id))
                    }
                }
            });
            scan_set.entries = keyed.into_iter().map(|(_, e)| e).collect();
        }
    }
}

/// Upfront boundary initialization (§5.4): derive an initial boundary from
/// fully-matching partitions so pruning can start before the heap fills.
///
/// Two candidate bounds are computed and the stricter one returned:
/// * the k-th largest **exact** max of the ORDER BY column over
///   fully-matching partitions (each exact max is a real qualifying row);
/// * sort fully-matching partitions by min (descending for DESC), take the
///   min of the first partition at which the cumulative non-null row count
///   reaches `k` — all those rows are qualifying and at least that min.
pub fn initial_boundary<M: Borrow<PartitionMeta>>(
    scan_set: &ScanSet,
    metas: &[M],
    order_col: usize,
    k: u64,
    desc: bool,
) -> Option<Value> {
    if k == 0 || scan_set.fully_matching().next().is_none() {
        return None;
    }
    let by_id = index_by_id(metas);
    let fm_maps: Vec<&ZoneMap> = scan_set
        .fully_matching()
        .filter_map(|e| by_id.get(&e.id))
        .map(|m| &m.zone_maps[order_col])
        .collect();
    if fm_maps.is_empty() {
        return None;
    }
    let candidate_a = kth_exact_extremum(&fm_maps, k, desc);
    let candidate_b = cumulative_bound(&fm_maps, k, desc);
    match (candidate_a, candidate_b) {
        (Some(a), Some(b)) => Some(stricter(a, b, desc)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

fn stricter(a: Value, b: Value, desc: bool) -> Value {
    match a.total_ord_cmp(&b) {
        Ordering::Greater => {
            if desc {
                a
            } else {
                b
            }
        }
        _ => {
            if desc {
                b
            } else {
                a
            }
        }
    }
}

fn kth_exact_extremum(maps: &[&ZoneMap], k: u64, desc: bool) -> Option<Value> {
    let mut extremes: Vec<Value> = maps
        .iter()
        .filter(|zm| zm.non_null_count() > 0)
        .filter_map(|zm| {
            if desc {
                zm.max_exact.then(|| zm.max.clone()).flatten()
            } else {
                zm.min_exact.then(|| zm.min.clone()).flatten()
            }
        })
        .collect();
    if (extremes.len() as u64) < k {
        return None;
    }
    extremes.sort_by(|a, b| {
        let ord = a.total_ord_cmp(b);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
    extremes.into_iter().nth(k as usize - 1)
}

fn cumulative_bound(maps: &[&ZoneMap], k: u64, desc: bool) -> Option<Value> {
    let mut with_bound: Vec<(&&ZoneMap, Value)> = maps
        .iter()
        .filter(|zm| zm.non_null_count() > 0)
        .filter_map(|zm| {
            let b = if desc { zm.min.clone() } else { zm.max.clone() };
            b.map(|v| (zm, v))
        })
        .collect();
    with_bound.sort_by(|(_, a), (_, b)| {
        let ord = a.total_ord_cmp(b);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
    let mut cum = 0u64;
    for (zm, bound) in with_bound {
        cum += zm.non_null_count();
        if cum >= k {
            return Some(bound);
        }
    }
    None
}

/// Runtime statistics for top-k pruning on one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopKScanStats {
    /// Partitions that reached the boundary check.
    pub partitions_considered: u64,
    /// Partitions skipped because they could not beat the boundary.
    pub partitions_skipped: u64,
}

impl TopKScanStats {
    /// Fraction of considered partitions skipped.
    pub fn pruning_ratio(&self) -> f64 {
        if self.partitions_considered == 0 {
            0.0
        } else {
            self.partitions_skipped as f64 / self.partitions_considered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_set::ScanEntry;

    fn zm(min: i64, max: i64, rows: u64) -> ZoneMap {
        ZoneMap {
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            min_exact: true,
            max_exact: true,
            null_count: 0,
            row_count: rows,
        }
    }

    fn meta(id: u64, min: i64, max: i64, rows: u64) -> PartitionMeta {
        PartitionMeta {
            id,
            row_count: rows,
            bytes: rows * 8,
            zone_maps: vec![zm(min, max, rows)],
        }
    }

    #[test]
    fn heap_keeps_top_k_desc() {
        let boundary = Boundary::new(true);
        let mut h = TopKHeap::new(3, true, Arc::clone(&boundary));
        for v in [5i64, 1, 9, 3, 7, 7, 2] {
            h.insert(Value::Int(v), v);
        }
        let top: Vec<i64> = h.into_sorted().into_iter().map(|(_, p)| p).collect();
        assert_eq!(top, vec![9, 7, 7]);
        assert_eq!(boundary.get(), Some(Value::Int(7)));
    }

    #[test]
    fn heap_keeps_bottom_k_asc() {
        let boundary = Boundary::new(false);
        let mut h = TopKHeap::new(2, false, Arc::clone(&boundary));
        for v in [5i64, 1, 9, 3] {
            h.insert(Value::Int(v), v);
        }
        let top: Vec<i64> = h.into_sorted().into_iter().map(|(_, p)| p).collect();
        assert_eq!(top, vec![1, 3]);
        assert_eq!(boundary.get(), Some(Value::Int(3)));
    }

    #[test]
    fn heap_ignores_nulls() {
        let boundary = Boundary::new(true);
        let mut h = TopKHeap::new(2, true, Arc::clone(&boundary));
        h.insert(Value::Null, 0);
        h.insert(Value::Int(4), 4);
        assert_eq!(h.len(), 1);
        assert!(h.len() < h.k);
    }

    #[test]
    fn boundary_skip_rules_desc() {
        let b = Boundary::new(true);
        assert!(!b.should_skip(&zm(0, 10, 5)), "no boundary yet");
        b.tighten(&Value::Int(7));
        // Seeded boundary: strict skipping only — a partition whose max
        // equals the bound may hold the k-th row itself.
        assert!(!b.should_skip(&zm(0, 7, 5)), "equal max survives seeding");
        assert!(b.should_skip(&zm(0, 6, 5)));
        // A heap-derived bound *below* the seed must not enable inclusive
        // skipping at the seed value.
        b.tighten_inclusive(&Value::Int(5));
        assert!(!b.should_skip(&zm(0, 7, 5)));
        // Once the heap's k-th value reaches the bound, inclusive applies.
        b.tighten_inclusive(&Value::Int(7));
        assert!(
            b.should_skip(&zm(0, 7, 5)),
            "max == heap k-th cannot improve"
        );
        assert!(b.should_skip(&zm(0, 6, 5)));
        assert!(!b.should_skip(&zm(0, 8, 5)));
        // All-null ordering column: skip.
        let all_null = ZoneMap {
            min: None,
            max: None,
            min_exact: false,
            max_exact: false,
            null_count: 5,
            row_count: 5,
        };
        assert!(b.should_skip(&all_null));
        // Unbounded max (truncation carry): never skip.
        let unbounded = ZoneMap {
            max: None,
            ..zm(0, 0, 5)
        };
        assert!(!b.should_skip(&unbounded));
    }

    #[test]
    fn boundary_only_tightens() {
        let b = Boundary::new(true);
        b.tighten(&Value::Int(5));
        b.tighten(&Value::Int(3)); // looser: ignored
        assert_eq!(b.get(), Some(Value::Int(5)));
        b.tighten(&Value::Int(8));
        assert_eq!(b.get(), Some(Value::Int(8)));
        let asc = Boundary::new(false);
        asc.tighten(&Value::Int(5));
        asc.tighten(&Value::Int(8));
        assert_eq!(asc.get(), Some(Value::Int(5)));
    }

    fn scan_set_for(metas: &[PartitionMeta], classes: &[MatchClass]) -> ScanSet {
        ScanSet {
            entries: metas
                .iter()
                .zip(classes)
                .map(|(m, c)| ScanEntry {
                    id: m.id,
                    class: *c,
                    row_count: m.row_count,
                    bytes: m.bytes,
                })
                .collect(),
        }
    }

    #[test]
    fn full_sort_orders_by_max_desc() {
        let metas = vec![meta(0, 0, 10, 5), meta(1, 5, 99, 5), meta(2, 20, 50, 5)];
        let mut ss = scan_set_for(&metas, &[MatchClass::PartiallyMatching; 3]);
        order_scan_set(&mut ss, &metas, 0, true, PartitionOrder::ByBoundary);
        assert_eq!(ss.ids(), vec![1, 2, 0]);
        order_scan_set(&mut ss, &metas, 0, false, PartitionOrder::ByBoundary);
        assert_eq!(ss.ids(), vec![0, 1, 2]); // by min asc
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let metas: Vec<PartitionMeta> = (0..20).map(|i| meta(i, 0, 10, 5)).collect();
        let mut a = scan_set_for(&metas, &[MatchClass::PartiallyMatching; 20]);
        let mut b = scan_set_for(&metas, &[MatchClass::PartiallyMatching; 20]);
        order_scan_set(&mut a, &metas, 0, true, PartitionOrder::Random { seed: 9 });
        order_scan_set(&mut b, &metas, 0, true, PartitionOrder::Random { seed: 9 });
        assert_eq!(a.ids(), b.ids());
        assert_ne!(a.ids(), (0..20).collect::<Vec<_>>());
    }

    /// `order_scan_set` as it was before it indexed `metas`: a linear
    /// search and two cloned bounds per comparison. Kept as the reference.
    fn naive_order_scan_set(
        scan_set: &mut ScanSet,
        metas: &[PartitionMeta],
        order_col: usize,
        desc: bool,
        fm_first: bool,
    ) {
        let bound = |id: u64| -> Option<Value> {
            let zm = &metas.iter().find(|m| m.id == id)?.zone_maps[order_col];
            if desc {
                zm.max.clone()
            } else {
                zm.min.clone()
            }
        };
        scan_set.entries.sort_by(|a, b| {
            if fm_first {
                let fa = a.class == MatchClass::FullyMatching;
                let fb = b.class == MatchClass::FullyMatching;
                if fa != fb {
                    return fb.cmp(&fa);
                }
            }
            match (bound(a.id), bound(b.id)) {
                (None, None) => a.id.cmp(&b.id),
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => {
                    let ord = x.total_ord_cmp(&y);
                    if desc { ord.reverse() } else { ord }.then(a.id.cmp(&b.id))
                }
            }
        });
    }

    fn naive_initial_boundary(
        scan_set: &ScanSet,
        metas: &[PartitionMeta],
        order_col: usize,
        k: u64,
        desc: bool,
    ) -> Option<Value> {
        if k == 0 {
            return None;
        }
        let fm_maps: Vec<&ZoneMap> = scan_set
            .fully_matching()
            .filter_map(|e| metas.iter().find(|m| m.id == e.id))
            .map(|m| &m.zone_maps[order_col])
            .collect();
        match (
            kth_exact_extremum(&fm_maps, k, desc),
            cumulative_bound(&fm_maps, k, desc),
        ) {
            (Some(a), Some(b)) => Some(stricter(a, b, desc)),
            (a, b) => a.or(b),
        }
    }

    /// 48 partitions whose ids are a permutation unrelated to their
    /// position in the meta list, with tied bounds, two unbounded zone
    /// maps and a mix of match classes; the scan set walks the ids in a
    /// third order and names one id (29) whose metadata is missing.
    fn shuffled_fixture() -> (Vec<PartitionMeta>, ScanSet) {
        let mut metas: Vec<PartitionMeta> = (0..48u64)
            .map(|p| {
                let id = p * 11 % 48;
                let lo = (id as i64 * 37) % 23; // many ties
                let mut m = meta(id, lo, lo + (id as i64 % 5) * 4, 6);
                if id % 17 == 3 {
                    m.zone_maps[0].max = None; // truncation carry
                    m.zone_maps[0].max_exact = false;
                }
                if id % 19 == 4 {
                    m.zone_maps[0].min = None;
                    m.zone_maps[0].min_exact = false;
                }
                m
            })
            .collect();
        let order: Vec<u64> = (0..48u64).map(|i| i * 5 % 48).collect();
        let classes: Vec<MatchClass> = order
            .iter()
            .map(|id| {
                if id % 3 == 0 {
                    MatchClass::FullyMatching
                } else {
                    MatchClass::PartiallyMatching
                }
            })
            .collect();
        let by_id = |id: u64| metas.iter().find(|m| m.id == id).unwrap().clone();
        let in_scan_order: Vec<PartitionMeta> = order.iter().map(|&id| by_id(id)).collect();
        let ss = scan_set_for(&in_scan_order, &classes);
        metas.retain(|m| m.id != 29);
        (metas, ss)
    }

    #[test]
    fn ordering_equals_linear_reference_on_shuffled_metas() {
        let (metas, ss) = shuffled_fixture();
        let borrowed: Vec<&PartitionMeta> = metas.iter().collect();
        for desc in [true, false] {
            for strategy in [
                PartitionOrder::Unsorted,
                PartitionOrder::Random { seed: 5 },
                PartitionOrder::ByBoundary,
                PartitionOrder::FullyMatchingFirst,
            ] {
                let mut want = ss.clone();
                match strategy {
                    PartitionOrder::Unsorted => {}
                    // The shuffle never looked at metadata: its reference
                    // is the same call over a metadata-free list.
                    PartitionOrder::Random { .. } => {
                        order_scan_set::<PartitionMeta>(&mut want, &[], 0, desc, strategy)
                    }
                    PartitionOrder::ByBoundary => {
                        naive_order_scan_set(&mut want, &metas, 0, desc, false)
                    }
                    PartitionOrder::FullyMatchingFirst => {
                        naive_order_scan_set(&mut want, &metas, 0, desc, true)
                    }
                }
                let mut owned = ss.clone();
                order_scan_set(&mut owned, &metas, 0, desc, strategy);
                assert_eq!(owned, want, "{strategy:?} desc={desc}");
                let mut from_refs = ss.clone();
                order_scan_set(&mut from_refs, &borrowed, 0, desc, strategy);
                assert_eq!(from_refs, want, "{strategy:?} desc={desc} (borrowed)");
                let mut sorted_ids = owned.ids();
                sorted_ids.sort_unstable();
                assert_eq!(sorted_ids, (0..48).collect::<Vec<_>>(), "a permutation");
            }
        }
        // The fixture is not degenerate: the two sorts differ from each
        // other and from the input, and the missing meta sorts as unbounded.
        let sorted = |strategy| {
            let mut s = ss.clone();
            order_scan_set(&mut s, &metas, 0, true, strategy);
            s.ids()
        };
        let (by_bound, fm_first) = (
            sorted(PartitionOrder::ByBoundary),
            sorted(PartitionOrder::FullyMatchingFirst),
        );
        assert_ne!(by_bound, ss.ids());
        assert_ne!(by_bound, fm_first);
        assert_eq!(by_bound[..4], [3, 20, 29, 37], "unbounded maxes, by id");
    }

    #[test]
    fn initial_boundary_equals_linear_reference_on_shuffled_metas() {
        let (metas, ss) = shuffled_fixture();
        let borrowed: Vec<&PartitionMeta> = metas.iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        for desc in [true, false] {
            for k in [0u64, 1, 2, 7, 40, 90, 91, 1_000] {
                let want = naive_initial_boundary(&ss, &metas, 0, k, desc);
                assert_eq!(
                    initial_boundary(&ss, &metas, 0, k, desc),
                    want,
                    "k={k} desc={desc}"
                );
                assert_eq!(initial_boundary(&ss, &borrowed, 0, k, desc), want);
                seen.insert(want.map(KeyValue));
            }
        }
        assert!(seen.len() > 4, "several distinct bounds and None: {seen:?}");
        // No fully-matching entry: nothing to seed from, whatever the metas.
        let mut none_fm = ss.clone();
        for e in &mut none_fm.entries {
            e.class = MatchClass::PartiallyMatching;
        }
        assert_eq!(initial_boundary(&none_fm, &metas, 0, 1, true), None);
    }

    #[test]
    fn initial_boundary_uses_stricter_method() {
        // Three fully-matching partitions, k = 2.
        // Maxes: 100, 80, 60 -> method A: 2nd largest max = 80.
        // Mins desc: 50, 40, 10; cumulative rows reach 2 at first partition
        // (5 rows) -> method B: 50.
        let metas = vec![meta(0, 50, 100, 5), meta(1, 40, 80, 5), meta(2, 10, 60, 5)];
        let ss = scan_set_for(&metas, &[MatchClass::FullyMatching; 3]);
        let b = initial_boundary(&ss, &metas, 0, 2, true).unwrap();
        assert_eq!(b, Value::Int(80));
        // With k = 20, method A has too few partitions; method B needs all
        // three partitions: min of the last = 10.
        let b2 = initial_boundary(&ss, &metas, 0, 15, true).unwrap();
        assert_eq!(b2, Value::Int(10));
        assert_eq!(initial_boundary(&ss, &metas, 0, 16, true), None);
    }

    #[test]
    fn initial_boundary_for_sorted_table_prefers_min_method() {
        // Disjoint (sorted) partitions: method B shines (§5.4: "for
        // (partially) sorted tables, the largest min-value is often the
        // better choice").
        let metas = vec![
            meta(0, 90, 100, 10),
            meta(1, 70, 89, 10),
            meta(2, 0, 69, 10),
        ];
        let ss = scan_set_for(&metas, &[MatchClass::FullyMatching; 3]);
        let b = initial_boundary(&ss, &metas, 0, 10, true).unwrap();
        // Method A: 10th largest exact max over 3 partitions -> None.
        // Method B: first partition already holds 10 rows, min 90.
        assert_eq!(b, Value::Int(90));
    }

    #[test]
    fn initial_boundary_ignores_inexact_maxes() {
        let mut m = meta(0, 0, 100, 5);
        m.zone_maps[0].max_exact = false;
        let metas = vec![m, meta(1, 10, 60, 5)];
        let ss = scan_set_for(&metas, &[MatchClass::FullyMatching; 2]);
        // k=1: method A must use partition 1's exact max (60), not the
        // inexact 100; method B: mins desc = [10, 0] -> first has 5 rows >= 1 -> 10.
        let b = initial_boundary(&ss, &metas, 0, 1, true).unwrap();
        assert_eq!(b, Value::Int(60));
    }

    #[test]
    fn no_fully_matching_no_boundary() {
        let metas = vec![meta(0, 0, 10, 5)];
        let ss = scan_set_for(&metas, &[MatchClass::PartiallyMatching]);
        assert_eq!(initial_boundary(&ss, &metas, 0, 1, true), None);
    }
}
