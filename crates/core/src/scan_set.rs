//! Scan sets: the serialized list of micro-partitions a query plan ships to
//! the virtual warehouse (§2 "Virtual Warehouses").

use std::borrow::Borrow;
use std::collections::HashMap;

use snowprune_storage::{PartitionId, PartitionMeta};
use snowprune_types::MatchClass;

/// Id → metadata over a metadata list in any order, built once per pruning
/// call so that resolving a scan-set entry never searches the list. Like
/// the linear search it replaces, the first meta of an id wins.
pub(crate) fn index_by_id<M: Borrow<PartitionMeta>>(
    metas: &[M],
) -> HashMap<PartitionId, &PartitionMeta> {
    let mut by_id = HashMap::with_capacity(metas.len());
    for meta in metas {
        let meta: &PartitionMeta = meta.borrow();
        by_id.entry(meta.id).or_insert(meta);
    }
    by_id
}

/// One surviving partition in a scan set, annotated with its match class
/// from filter pruning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanEntry {
    /// The partition's id.
    pub id: PartitionId,
    /// Filter-pruning match class (partially vs fully matching).
    pub class: MatchClass,
    /// Rows in the partition.
    pub row_count: u64,
    /// Serialized size of the partition.
    pub bytes: u64,
}

/// The ordered set of partitions a table scan will process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanSet {
    /// Surviving partitions, in processing order.
    pub entries: Vec<ScanEntry>,
}

impl ScanSet {
    /// An unpruned scan set covering all partitions.
    pub fn full<M: Borrow<PartitionMeta>>(metas: &[M]) -> Self {
        ScanSet {
            entries: metas
                .iter()
                .map(|m| {
                    let m: &PartitionMeta = m.borrow();
                    ScanEntry {
                        id: m.id,
                        class: MatchClass::PartiallyMatching,
                        row_count: m.row_count,
                        bytes: m.bytes,
                    }
                })
                .collect(),
        }
    }

    /// Number of surviving partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no partition survived pruning.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The surviving partition ids, in order.
    pub fn ids(&self) -> Vec<PartitionId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Total rows across surviving partitions.
    pub fn total_rows(&self) -> u64 {
        self.entries.iter().map(|e| e.row_count).sum()
    }

    /// Entries classified fully-matching (§4.1).
    pub fn fully_matching(&self) -> impl Iterator<Item = &ScanEntry> {
        self.entries
            .iter()
            .filter(|e| e.class == MatchClass::FullyMatching)
    }

    /// Approximate wire size of the serialized scan set (benefit (4) of
    /// §2.1: smaller scan sets mean less (de)serialization work).
    pub fn serialized_bytes(&self) -> usize {
        // id (8) + class tag (1) + row count varint (~4)
        self.entries.len() * 13 + 16
    }
}

/// Ratio of partitions removed, relative to `before` partitions.
pub fn pruning_ratio(before: usize, after: usize) -> f64 {
    if before == 0 {
        return 0.0;
    }
    debug_assert!(after <= before);
    (before - after) as f64 / before as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, class: MatchClass, rows: u64) -> ScanEntry {
        ScanEntry {
            id,
            class,
            row_count: rows,
            bytes: rows * 100,
        }
    }

    #[test]
    fn fully_matching_accounting() {
        let ss = ScanSet {
            entries: vec![
                entry(0, MatchClass::PartiallyMatching, 10),
                entry(1, MatchClass::FullyMatching, 20),
                entry(2, MatchClass::FullyMatching, 5),
            ],
        };
        assert_eq!(ss.fully_matching().count(), 2);
        assert_eq!(ss.fully_matching().map(|e| e.row_count).sum::<u64>(), 25);
        assert_eq!(ss.total_rows(), 35);
    }

    #[test]
    fn ratio() {
        assert_eq!(pruning_ratio(100, 25), 0.75);
        assert_eq!(pruning_ratio(0, 0), 0.0);
        assert_eq!(pruning_ratio(10, 10), 0.0);
    }
}
