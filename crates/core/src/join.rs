//! Join pruning (§6): summarize build-side join-key values, ship the
//! summary to the probe side, and prune probe partitions whose min/max
//! ranges cannot overlap the summary.
//!
//! The summary trades accuracy against (network) size. Three variants:
//!
//! * [`JoinSummary::MinMax`] — global min/max: negligible size, weak.
//! * [`JoinSummary::RangeSet`] — sorted disjoint ranges under a budget,
//!   built by merging the closest-gap neighbours ("a small fraction of the
//!   build-side size"); this is the production default. Probabilistic in
//!   the paper's sense: it may fail to prune a prunable partition but never
//!   prunes a partition that could contain joinable rows.
//! * [`JoinSummary::Exact`] — the exact distinct key set (accuracy upper
//!   bound for ablations).
//!
//! A row-level [`BloomFilter`] complements partition pruning inside the
//! join operator, skipping hash-table probes for individual rows.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use snowprune_storage::PartitionMeta;
use snowprune_types::{Value, ZoneMap};

use crate::scan_set::{index_by_id, ScanSet};

/// Build-side value summary for partition-level join pruning.
#[derive(Clone, Debug)]
pub enum JoinSummary {
    /// Build side produced no rows: every probe partition prunes.
    Empty,
    /// Global [min, max] of the build keys.
    MinMax {
        /// Smallest build key.
        min: Value,
        /// Largest build key.
        max: Value,
    },
    /// Sorted, disjoint, inclusive value ranges.
    RangeSet(RangeSetSummary),
    /// Exact distinct key set (sorted).
    Exact(Vec<Value>),
}

/// Which summary to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SummaryKind {
    /// Single global [min, max] of the build keys.
    MinMax,
    /// Range set with at most this many ranges.
    RangeSet {
        /// Maximum number of ranges kept after merging.
        budget: usize,
    },
    /// Exact distinct key set.
    Exact,
}

impl JoinSummary {
    /// Summarize build-side key values (nulls never join and are dropped).
    pub fn build<'a>(
        values: impl IntoIterator<Item = &'a Value>,
        kind: SummaryKind,
    ) -> JoinSummary {
        let mut keys: Vec<Value> = values
            .into_iter()
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        if keys.is_empty() {
            return JoinSummary::Empty;
        }
        keys.sort_by(|a, b| a.total_ord_cmp(b));
        keys.dedup();
        match kind {
            SummaryKind::MinMax => JoinSummary::MinMax {
                min: keys.first().unwrap().clone(),
                max: keys.last().unwrap().clone(),
            },
            SummaryKind::Exact => JoinSummary::Exact(keys),
            SummaryKind::RangeSet { budget } => {
                JoinSummary::RangeSet(RangeSetSummary::from_sorted_keys(keys, budget.max(1)))
            }
        }
    }

    /// Could a probe partition with this join-key zone map contain any
    /// joinable row? `false` ⇒ the partition is safely prunable.
    pub fn might_overlap(&self, zm: &ZoneMap) -> bool {
        if zm.non_null_count() == 0 {
            // Only NULL keys: they never match an equi-join.
            return false;
        }
        let (Some(min), max) = (&zm.min, &zm.max) else {
            return true; // no usable metadata: conservative
        };
        match self {
            JoinSummary::Empty => false,
            JoinSummary::MinMax {
                min: smin,
                max: smax,
            } => range_overlaps(min, max.as_ref(), smin, Some(smax)),
            JoinSummary::RangeSet(rs) => rs.overlaps(min, max.as_ref()),
            JoinSummary::Exact(keys) => keys.iter().any(|k| value_in_range(k, min, max.as_ref())),
        }
    }

    /// Approximate wire size of the summary (what sideways information
    /// passing ships between workers).
    pub fn serialized_bytes(&self) -> usize {
        match self {
            JoinSummary::Empty => 1,
            JoinSummary::MinMax { min, max } => 1 + min.approx_size() + max.approx_size(),
            JoinSummary::RangeSet(rs) => {
                1 + rs
                    .ranges
                    .iter()
                    .map(|(a, b)| a.approx_size() + b.approx_size())
                    .sum::<usize>()
            }
            JoinSummary::Exact(keys) => 1 + keys.iter().map(Value::approx_size).sum::<usize>(),
        }
    }
}

fn value_in_range(v: &Value, lo: &Value, hi: Option<&Value>) -> bool {
    let above_lo = !matches!(v.sql_cmp(lo), Some(Ordering::Less));
    let below_hi = match hi {
        Some(h) => !matches!(v.sql_cmp(h), Some(Ordering::Greater)),
        None => true,
    };
    // Incomparable types: sql_cmp returns None -> conservative true via the
    // !matches! structure above.
    above_lo && below_hi
}

fn range_overlaps(a_lo: &Value, a_hi: Option<&Value>, b_lo: &Value, b_hi: Option<&Value>) -> bool {
    let a_below_b = match a_hi {
        Some(ah) => matches!(ah.sql_cmp(b_lo), Some(Ordering::Less)),
        None => false,
    };
    let b_below_a = match b_hi {
        Some(bh) => matches!(bh.sql_cmp(a_lo), Some(Ordering::Less)),
        None => false,
    };
    !(a_below_b || b_below_a)
}

/// Sorted disjoint inclusive ranges under a count budget.
#[derive(Clone, Debug, PartialEq)]
pub struct RangeSetSummary {
    /// Sorted, disjoint `[lo, hi]` inclusive ranges.
    pub ranges: Vec<(Value, Value)>,
}

impl RangeSetSummary {
    /// Build from sorted, deduplicated keys by greedily merging the
    /// closest-gap neighbouring ranges until within budget.
    fn from_sorted_keys(keys: Vec<Value>, budget: usize) -> RangeSetSummary {
        if keys.len() <= budget {
            return RangeSetSummary {
                ranges: keys.into_iter().map(|k| (k.clone(), k)).collect(),
            };
        }
        // Gaps between consecutive keys, ranked by a numeric projection.
        // Keeping the (budget-1) largest gaps open yields exactly `budget`
        // ranges that cover all keys with minimal added coverage.
        let n = keys.len();
        let mut gap_idx: Vec<usize> = (0..n - 1).collect();
        gap_idx.sort_by(|&i, &j| {
            gap_size(&keys[j], &keys[j + 1])
                .partial_cmp(&gap_size(&keys[i], &keys[i + 1]))
                .unwrap_or(Ordering::Equal)
        });
        let keep_open: std::collections::HashSet<usize> =
            gap_idx.into_iter().take(budget - 1).collect();
        let mut ranges = Vec::with_capacity(budget);
        let mut start = 0usize;
        for i in 0..n - 1 {
            if keep_open.contains(&i) {
                ranges.push((keys[start].clone(), keys[i].clone()));
                start = i + 1;
            }
        }
        ranges.push((keys[start].clone(), keys[n - 1].clone()));
        RangeSetSummary { ranges }
    }

    /// Binary-search overlap test against [lo, hi].
    pub fn overlaps(&self, lo: &Value, hi: Option<&Value>) -> bool {
        // Find the first range whose end >= lo, then check it starts <= hi.
        let idx = self
            .ranges
            .partition_point(|(_, end)| matches!(end.sql_cmp(lo), Some(Ordering::Less)));
        match self.ranges.get(idx) {
            None => {
                // lo is above all ranges; if any comparison was incomparable
                // partition_point may be off — fall back conservatively.
                self.ranges
                    .iter()
                    .any(|(s, e)| range_overlaps(lo, hi, s, Some(e)))
            }
            Some((start, _)) => match hi {
                None => true,
                Some(h) => !matches!(start.sql_cmp(h), Some(Ordering::Greater)),
            },
        }
    }

    /// Number of ranges in the summary.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the summary holds no ranges (empty build side).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Numeric projection of the gap between consecutive sorted values, used to
/// pick which gaps stay open when merging down to the budget.
fn gap_size(a: &Value, b: &Value) -> f64 {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => (y - x) as f64,
        (Value::Date(x), Value::Date(y)) => (y - x) as f64,
        (Value::Timestamp(x), Value::Timestamp(y)) => (y - x) as f64,
        (Value::Float(x), Value::Float(y)) => y - x,
        (Value::Int(x), Value::Float(y)) => y - *x as f64,
        (Value::Float(x), Value::Int(y)) => *y as f64 - x,
        (Value::Str(x), Value::Str(y)) => string_gap(x, y),
        _ => 1.0,
    }
}

/// Approximate lexicographic distance via the first 8 bytes.
fn string_gap(a: &str, b: &str) -> f64 {
    fn key(s: &str) -> u64 {
        let mut buf = [0u8; 8];
        for (i, byte) in s.bytes().take(8).enumerate() {
            buf[i] = byte;
        }
        u64::from_be_bytes(buf)
    }
    (key(b) as f64) - (key(a) as f64)
}

/// Result of probe-side join pruning.
#[derive(Clone, Debug)]
pub struct JoinPruneResult {
    /// Probe-side partitions that survived the summary check.
    pub scan_set: ScanSet,
    /// Probe-side partition count before join pruning.
    pub partitions_before: usize,
    /// Partitions removed by the summary check.
    pub pruned: usize,
    /// Bytes of summary shipped from build to probe side.
    pub summary_bytes: usize,
}

impl JoinPruneResult {
    /// Fraction of probe-side partitions removed.
    pub fn pruning_ratio(&self) -> f64 {
        crate::scan_set::pruning_ratio(self.partitions_before, self.scan_set.len())
    }
}

/// Prune a probe-side scan set using the build-side summary. `key_col` is
/// the probe-side join key's column index; `metas` may be in any order and
/// owned or borrowed. An entry whose metadata is missing is kept.
pub fn prune_probe_side<M: Borrow<PartitionMeta>>(
    summary: &JoinSummary,
    scan_set: &ScanSet,
    metas: &[M],
    key_col: usize,
) -> JoinPruneResult {
    let before = scan_set.len();
    let by_id = index_by_id(metas);
    let entries: Vec<_> = scan_set
        .entries
        .iter()
        .filter(|e| {
            let Some(meta) = by_id.get(&e.id) else {
                return true; // metadata unavailable: conservative
            };
            summary.might_overlap(&meta.zone_maps[key_col])
        })
        .cloned()
        .collect();
    JoinPruneResult {
        pruned: before - entries.len(),
        scan_set: ScanSet { entries },
        partitions_before: before,
        summary_bytes: summary.serialized_bytes(),
    }
}

/// A simple partitioned Bloom filter over join keys for row-level probe
/// filtering (the classic sideways-information-passing companion, §6.1).
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
}

impl BloomFilter {
    /// `expected` insertions at roughly 1% false-positive rate.
    pub fn with_capacity(expected: usize) -> Self {
        let bits_needed = (expected.max(1) * 10).next_power_of_two().max(64);
        BloomFilter {
            bits: vec![0; bits_needed / 64],
            mask: bits_needed as u64 - 1,
            hashes: 7,
        }
    }

    fn hash_pair(v: &Value) -> (u64, u64) {
        let mut h1 = DefaultHasher::new();
        v.hash(&mut h1);
        let a = h1.finish();
        let mut h2 = DefaultHasher::new();
        (a ^ 0x9e37_79b9_7f4a_7c15).hash(&mut h2);
        v.hash(&mut h2);
        (a, h2.finish() | 1)
    }

    /// Add one build-side key to the filter.
    pub fn insert(&mut self, v: &Value) {
        let (a, b) = Self::hash_pair(v);
        for i in 0..self.hashes as u64 {
            let bit = a.wrapping_add(i.wrapping_mul(b)) & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Probe the filter: false means the key is definitely absent.
    pub fn might_contain(&self, v: &Value) -> bool {
        let (a, b) = Self::hash_pair(v);
        (0..self.hashes as u64).all(|i| {
            let bit = a.wrapping_add(i.wrapping_mul(b)) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Wire size of the bit array, for summary-shipping accounting.
    pub fn serialized_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_set::ScanEntry;
    use snowprune_storage::PartitionMeta;
    use snowprune_types::MatchClass;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().copied().map(Value::Int).collect()
    }

    fn zm(min: i64, max: i64) -> ZoneMap {
        ZoneMap {
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            min_exact: true,
            max_exact: true,
            null_count: 0,
            row_count: 10,
        }
    }

    #[test]
    fn empty_build_side_prunes_everything() {
        let s = JoinSummary::build(&[], SummaryKind::MinMax);
        assert!(matches!(s, JoinSummary::Empty));
        assert!(!s.might_overlap(&zm(0, 100)));
        let nulls_only = vec![Value::Null, Value::Null];
        let s2 = JoinSummary::build(&nulls_only, SummaryKind::Exact);
        assert!(matches!(s2, JoinSummary::Empty));
    }

    #[test]
    fn range_set_respects_budget_and_keeps_biggest_gaps() {
        let keys = ints(&[1, 2, 3, 100, 101, 500]);
        let s = JoinSummary::build(&keys, SummaryKind::RangeSet { budget: 3 });
        let JoinSummary::RangeSet(rs) = &s else {
            panic!()
        };
        assert_eq!(
            rs.ranges,
            vec![
                (Value::Int(1), Value::Int(3)),
                (Value::Int(100), Value::Int(101)),
                (Value::Int(500), Value::Int(500)),
            ]
        );
        // Partition [4, 99] falls into a kept-open gap: pruned.
        assert!(!s.might_overlap(&zm(4, 99)));
        assert!(s.might_overlap(&zm(3, 4)));
        assert!(s.might_overlap(&zm(400, 600)));
        assert!(!s.might_overlap(&zm(501, 900)));
        assert!(!s.might_overlap(&zm(-10, 0)));
    }

    #[test]
    fn min_max_summary_is_weaker_than_range_set() {
        let keys = ints(&[1, 1000]);
        let minmax = JoinSummary::build(&keys, SummaryKind::MinMax);
        let ranges = JoinSummary::build(&keys, SummaryKind::RangeSet { budget: 8 });
        // The hole [2, 999] is invisible to min/max but visible to ranges.
        assert!(minmax.might_overlap(&zm(500, 600)));
        assert!(!ranges.might_overlap(&zm(500, 600)));
    }

    #[test]
    fn exact_summary_point_lookups() {
        let keys = ints(&[5, 10, 15]);
        let s = JoinSummary::build(&keys, SummaryKind::Exact);
        assert!(s.might_overlap(&zm(9, 11)));
        assert!(!s.might_overlap(&zm(11, 14)));
    }

    #[test]
    fn null_only_probe_partition_prunes() {
        let s = JoinSummary::build(&ints(&[1, 2]), SummaryKind::Exact);
        let null_zm = ZoneMap {
            min: None,
            max: None,
            min_exact: false,
            max_exact: false,
            null_count: 10,
            row_count: 10,
        };
        assert!(!s.might_overlap(&null_zm), "NULL keys never equi-join");
    }

    #[test]
    fn probe_side_pruning_end_to_end() {
        let metas: Vec<PartitionMeta> = (0..10)
            .map(|i| PartitionMeta {
                id: i,
                row_count: 10,
                bytes: 100,
                zone_maps: vec![zm(i as i64 * 100, i as i64 * 100 + 99)],
            })
            .collect();
        let ss = ScanSet {
            entries: metas
                .iter()
                .map(|m| ScanEntry {
                    id: m.id,
                    class: MatchClass::PartiallyMatching,
                    row_count: m.row_count,
                    bytes: m.bytes,
                })
                .collect(),
        };
        // Build keys live only in partitions 1 and 7's ranges.
        let summary =
            JoinSummary::build(&ints(&[150, 160, 720]), SummaryKind::RangeSet { budget: 4 });
        let res = prune_probe_side(&summary, &ss, &metas, 0);
        assert_eq!(res.scan_set.ids(), vec![1, 7]);
        assert_eq!(res.pruned, 8);
        assert!((res.pruning_ratio() - 0.8).abs() < 1e-9);
        assert!(res.summary_bytes > 0);
    }

    /// The per-entry linear search `prune_probe_side` used to do, kept as
    /// the reference the indexed version must reproduce.
    fn naive_prune_probe_side(
        summary: &JoinSummary,
        scan_set: &ScanSet,
        metas: &[PartitionMeta],
        key_col: usize,
    ) -> Vec<ScanEntry> {
        scan_set
            .entries
            .iter()
            .filter(|e| match metas.iter().find(|m| m.id == e.id) {
                Some(meta) => summary.might_overlap(&meta.zone_maps[key_col]),
                None => true,
            })
            .cloned()
            .collect()
    }

    #[test]
    fn probe_side_pruning_equals_linear_reference_on_shuffled_metas() {
        // 40 partitions; position p of the meta list holds id 7p mod 40, so
        // ids are a permutation unrelated to position, and the scan set
        // walks ids in yet another order.
        let mut metas: Vec<PartitionMeta> = (0..40u64)
            .map(|p| {
                let id = p * 7 % 40;
                PartitionMeta {
                    id,
                    row_count: 10,
                    bytes: 100,
                    zone_maps: vec![zm(0, 0), zm(id as i64 * 10, id as i64 * 10 + 9)],
                }
            })
            .collect();
        let ss = ScanSet {
            entries: (0..40u64)
                .map(|i| ScanEntry {
                    id: i * 11 % 40,
                    class: MatchClass::PartiallyMatching,
                    row_count: 10,
                    bytes: 100,
                })
                .collect(),
        };
        // Id 13's metadata is unavailable: it must survive every summary.
        metas.retain(|m| m.id != 13);
        let summaries = [
            JoinSummary::build(&[], SummaryKind::MinMax),
            JoinSummary::build(&ints(&[35, 212]), SummaryKind::MinMax),
            JoinSummary::build(
                &ints(&[5, 131, 139, 250, 399]),
                SummaryKind::RangeSet { budget: 3 },
            ),
            JoinSummary::build(&ints(&[0, 77, 130, 390]), SummaryKind::Exact),
        ];
        for summary in &summaries {
            let want = naive_prune_probe_side(summary, &ss, &metas, 1);
            let owned = prune_probe_side(summary, &ss, &metas, 1);
            assert_eq!(owned.scan_set.entries, want);
            assert_eq!(owned.pruned, 40 - want.len());
            assert_eq!(owned.partitions_before, 40);
            assert!(owned.scan_set.ids().contains(&13), "missing meta is kept");
            // Borrowed metadata (what a table snapshot hands out) is the
            // same call.
            let borrowed: Vec<&PartitionMeta> = metas.iter().collect();
            assert_eq!(
                prune_probe_side(summary, &ss, &borrowed, 1)
                    .scan_set
                    .entries,
                want
            );
        }
        // The summaries above do prune, and differently.
        let kept: Vec<usize> = summaries
            .iter()
            .map(|s| prune_probe_side(s, &ss, &metas, 1).scan_set.len())
            .collect();
        assert_eq!(kept, vec![1, 19, 15, 4]);
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        let mut bf = BloomFilter::with_capacity(1000);
        for i in 0..1000i64 {
            bf.insert(&Value::Int(i * 3));
        }
        for i in 0..1000i64 {
            assert!(bf.might_contain(&Value::Int(i * 3)));
        }
        // False-positive rate sane (well under 10%).
        let fps = (0..1000i64)
            .filter(|i| bf.might_contain(&Value::Int(i * 3 + 1)))
            .count();
        assert!(fps < 100, "false positive rate too high: {fps}/1000");
    }

    #[test]
    fn summary_sizes_ordered_by_fidelity() {
        let keys: Vec<Value> = (0..1000i64).map(Value::Int).collect();
        let minmax = JoinSummary::build(&keys, SummaryKind::MinMax);
        let ranges = JoinSummary::build(&keys, SummaryKind::RangeSet { budget: 64 });
        let exact = JoinSummary::build(&keys, SummaryKind::Exact);
        assert!(minmax.serialized_bytes() < ranges.serialized_bytes());
        assert!(ranges.serialized_bytes() < exact.serialized_bytes());
    }
}
