//! Tables: ordered collections of micro-partitions plus a version counter
//! for DML tracking (consumed by the predicate cache, §8.2).

use std::cmp::Ordering;
use std::sync::Arc;

use snowprune_types::{Error, Result, Value, DEFAULT_STRING_PREFIX};

use crate::column::{ColumnBuilder, ColumnChunk};
use crate::io::{IoCostModel, IoStats};
use crate::partition::{MicroPartition, PartitionId, PartitionMeta};
use crate::schema::Schema;

/// How rows are laid out across micro-partitions at build time. The paper
/// stresses (§1) that achievable pruning depends primarily on this layout.
#[derive(Clone, Debug, Default)]
pub enum Layout {
    /// Keep insertion order.
    #[default]
    Natural,
    /// Sort by the named columns before partitioning (clustering keys).
    ClusterBy(Vec<String>),
    /// Deterministically shuffle rows (worst case for pruning).
    Shuffle(u64),
}

/// Builder that accumulates rows and splits them into micro-partitions.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    target_rows_per_partition: usize,
    layout: Layout,
    string_prefix: usize,
}

impl TableBuilder {
    /// An empty builder for table `name`.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            rows: Vec::new(),
            target_rows_per_partition: 10_000,
            layout: Layout::Natural,
            string_prefix: DEFAULT_STRING_PREFIX,
        }
    }

    /// Target number of rows per micro-partition (the stand-in for the
    /// 50–500 MB micro-partition size of §2).
    pub fn target_rows_per_partition(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.target_rows_per_partition = n;
        self
    }

    /// Physical row order applied before partition splitting.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Metadata string-truncation length (see `snowprune_types::zonemap`).
    pub fn string_prefix(mut self, n: usize) -> Self {
        self.string_prefix = n;
        self
    }

    /// Append one row.
    pub fn push_row(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
    }

    /// Append many rows.
    pub fn extend_rows(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        self.rows.extend(rows);
    }

    /// Rows accumulated so far.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Apply the layout, split into micro-partitions, and build the
    /// table at version 0.
    pub fn build(self) -> Table {
        let TableBuilder {
            name,
            schema,
            mut rows,
            target_rows_per_partition,
            layout,
            string_prefix,
        } = self;
        apply_layout(&mut rows, &schema, &layout);
        let mut table = Table {
            name,
            schema,
            partitions: Arc::default(),
            slots: Arc::default(),
            version: 0,
            next_partition_id: 0,
            string_prefix,
            target_rows_per_partition,
        };
        table.append_partitions(rows);
        table
    }
}

fn apply_layout(rows: &mut [Vec<Value>], schema: &Schema, layout: &Layout) {
    match layout {
        Layout::Natural => {}
        Layout::ClusterBy(cols) => {
            let idxs: Vec<usize> = cols
                .iter()
                // PANIC-OK: clustering layout is validated against the schema
                // by the table builder before rows are partitioned.
                .map(|c| schema.index_of(c).expect("clustering column exists"))
                .collect();
            rows.sort_by(|a, b| {
                for &i in &idxs {
                    match a[i].total_ord_cmp(&b[i]) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                Ordering::Equal
            });
        }
        Layout::Shuffle(seed) => {
            // Fisher–Yates with a splitmix64 stream; deterministic per seed.
            let mut state = *seed ^ 0x9e37_79b9_7f4a_7c15;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for i in (1..rows.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                rows.swap(i, j);
            }
        }
    }
}

/// `Table::slots` entry of an id whose partition was rewritten away.
const NO_SLOT: u32 = u32::MAX;

/// A table: schema + micro-partitions. DML operations bump `version` and
/// report which partitions changed, which the predicate cache consumes.
///
/// A table version is a list of immutable partitions (§2), so `clone()` is
/// a *snapshot*: it shares the partition list and the id index with its
/// source (two `Arc` bumps, whatever the partition count) and keeps seeing
/// exactly those partitions; DML on either side copies the list on its
/// first write and leaves the other untouched.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    /// The current version's partitions in table order. **Not** sorted by
    /// id: a rewritten partition's new, higher id takes the old position.
    partitions: Arc<Vec<Arc<MicroPartition>>>,
    /// Partition id → position in `partitions`, one entry per id ever
    /// issued (`slots.len() == next_partition_id`; ids come from that
    /// counter, so the index is dense). Invariant: `slots[id] == pos`
    /// exactly when `partitions[pos].meta.id == id`, else `NO_SLOT`.
    slots: Arc<Vec<u32>>,
    version: u64,
    next_partition_id: u64,
    string_prefix: usize,
    target_rows_per_partition: usize,
}

/// Result of a DML statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DmlResult {
    /// Rows inserted, updated, or deleted.
    pub rows_affected: u64,
    /// Partitions added by the statement (INSERTs and rewrites).
    pub partitions_added: Vec<PartitionId>,
    /// Partitions removed/rewritten by the statement.
    pub partitions_removed: Vec<PartitionId>,
    /// Table version after the statement.
    pub new_version: u64,
}

/// What a DML row visitor decides for one row.
enum RowEdit {
    /// Unchanged: the row already materialized for the visit is reused.
    Keep,
    /// Deleted.
    Drop,
    /// Replaced by a row that differs in at least one cell.
    Replace(Vec<Value>),
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Version, bumped by every DML statement.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of micro-partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Rows across all partitions.
    pub fn total_rows(&self) -> u64 {
        self.partitions.iter().map(|p| p.meta.row_count).sum()
    }

    /// All partition ids in table order (the unpruned scan set).
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        self.partitions.iter().map(|p| p.meta.id).collect()
    }

    /// Read partition metadata through the metadata service, charging one
    /// metadata read per partition. The metadata itself is borrowed from
    /// this snapshot — partitions are immutable, nothing is copied.
    pub fn read_metadata(&self, io: &IoStats, model: &IoCostModel) -> Vec<&PartitionMeta> {
        io.record_metadata_reads(self.partitions.len() as u64, model);
        self.metadata()
    }

    /// Metadata access without I/O accounting (for tests and planning code
    /// that has already paid for the metadata).
    pub fn metadata(&self) -> Vec<&PartitionMeta> {
        self.partitions.iter().map(|p| &p.meta).collect()
    }

    /// Metadata of partition `id`, without I/O accounting.
    pub fn partition_meta(&self, id: PartitionId) -> Result<&PartitionMeta> {
        self.find(id).map(|p| &p.meta)
    }

    /// Load a partition's data from the object store, charging its bytes.
    pub fn load_partition(
        &self,
        id: PartitionId,
        io: &IoStats,
        model: &IoCostModel,
    ) -> Result<Arc<MicroPartition>> {
        let p = self.find(id)?;
        io.record_partition_load(p.meta.bytes, model);
        Ok(Arc::clone(p))
    }

    /// Direct access without accounting (tests, and [`crate::AsyncLake`],
    /// which does its own completion-time accounting).
    pub fn partition(&self, id: PartitionId) -> Result<Arc<MicroPartition>> {
        self.find(id).map(Arc::clone)
    }

    /// O(1) through the id index. The hit is re-checked against the
    /// partition's own id, so a rewritten-away or never-issued id is
    /// `NotFound` rather than whatever sits at a stale slot.
    fn find(&self, id: PartitionId) -> Result<&Arc<MicroPartition>> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.slots.get(i))
            .and_then(|&slot| self.partitions.get(slot as usize))
            .filter(|p| p.meta.id == id)
            .ok_or_else(|| Error::NotFound(format!("partition {id} of table {}", self.name)))
    }

    fn append_partitions(&mut self, rows: Vec<Vec<Value>>) -> Vec<PartitionId> {
        let mut added = Vec::new();
        // Copy-on-write: a no-op unless a snapshot still shares the lists.
        let partitions = Arc::make_mut(&mut self.partitions);
        let slots = Arc::make_mut(&mut self.slots);
        for chunk in rows.chunks(self.target_rows_per_partition) {
            if chunk.is_empty() {
                continue;
            }
            let mut builders: Vec<ColumnBuilder> = self
                .schema
                .fields()
                .iter()
                .map(|f| ColumnBuilder::new(f.ty))
                .collect();
            for row in chunk {
                for (b, v) in builders.iter_mut().zip(row.iter()) {
                    // Keep the clone. Consuming `rows` and moving each cell
                    // in halves build time, but a column's strings then keep
                    // the row-major heap addresses they were born with
                    // instead of being allocated back to back here, which
                    // measured 2× slower DML and slower SELECTs on the TPC-H
                    // lake (`tpch_cpu` `dml_p50_ms` 7.5–9 → 15–17 ms).
                    b.push(v.clone());
                }
            }
            let columns: Vec<ColumnChunk> =
                builders.into_iter().map(ColumnBuilder::finish).collect();
            let id = self.next_partition_id;
            self.next_partition_id += 1;
            let p = MicroPartition::from_chunks_with_prefix(
                id,
                &self.schema,
                columns,
                self.string_prefix,
            );
            added.push(id);
            slots.push(partitions.len() as u32);
            partitions.push(Arc::new(p));
        }
        added
    }

    /// Recompute the id index from the partition list (after a rewrite
    /// moved, dropped or replaced partitions).
    fn rebuild_slots(&mut self) {
        let mut slots = vec![NO_SLOT; self.next_partition_id as usize];
        for (pos, p) in self.partitions.iter().enumerate() {
            slots[p.meta.id as usize] = pos as u32;
        }
        self.slots = Arc::new(slots);
    }

    /// INSERT: append rows as new micro-partitions (immutable partitions,
    /// as in the paper's storage model).
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> DmlResult {
        let n = rows.len() as u64;
        let added = self.append_partitions(rows);
        self.version += 1;
        DmlResult {
            rows_affected: n,
            partitions_added: added,
            partitions_removed: Vec::new(),
            new_version: self.version,
        }
    }

    /// DELETE rows matching `pred`; affected partitions are rewritten
    /// (copy-on-write, preserving partition immutability).
    pub fn delete_rows(&mut self, pred: impl Fn(&[Value]) -> bool) -> DmlResult {
        self.rewrite_rows(|row| {
            if pred(row) {
                RowEdit::Drop
            } else {
                RowEdit::Keep
            }
        })
    }

    /// UPDATE: apply `f` to each row; `f` returns the new row.
    pub fn update_rows(&mut self, f: impl Fn(&[Value]) -> Vec<Value>) -> DmlResult {
        self.update_rows_tracked(f).0
    }

    /// UPDATE that additionally reports *which columns actually changed*
    /// (schema names, in schema order). The predicate cache's DML rules
    /// hinge on the true changed-column set — `Session::update_rows` uses
    /// this so callers cannot under-declare what an update touched.
    pub fn update_rows_tracked(
        &mut self,
        f: impl Fn(&[Value]) -> Vec<Value>,
    ) -> (DmlResult, Vec<String>) {
        let ncols = self.schema.len();
        let mut col_changed = vec![false; ncols];
        let mut changed_rows = 0u64;
        let res = self.rewrite_rows(|row| {
            let new = f(row);
            debug_assert_eq!(new.len(), row.len());
            let mut any = false;
            for (i, (old_v, new_v)) in row.iter().zip(new.iter()).enumerate() {
                if old_v != new_v {
                    col_changed[i] = true;
                    any = true;
                }
            }
            if any {
                changed_rows += 1;
                RowEdit::Replace(new)
            } else {
                RowEdit::Keep
            }
        });
        let changed_columns = self
            .schema
            .fields()
            .iter()
            .zip(&col_changed)
            .filter(|(_, c)| **c)
            .map(|(f, _)| f.name.clone())
            .collect();
        (
            DmlResult {
                rows_affected: changed_rows,
                ..res
            },
            changed_columns,
        )
    }

    /// Copy-on-write rewrite: every partition holding a row `f` drops or
    /// replaces is rebuilt under a fresh id *at the old position*; the
    /// others are carried over as they are.
    fn rewrite_rows(&mut self, mut f: impl FnMut(&[Value]) -> RowEdit) -> DmlResult {
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut affected = 0u64;
        // Take the list over when no snapshot shares it, copy it otherwise.
        let old = Arc::try_unwrap(std::mem::take(&mut self.partitions))
            .unwrap_or_else(|shared| shared.to_vec());
        Arc::make_mut(&mut self.partitions).reserve(old.len());
        for p in old {
            let mut new_rows = Vec::with_capacity(p.row_count());
            let mut dirty = false;
            for i in 0..p.row_count() {
                let row = p.row(i);
                match f(&row) {
                    RowEdit::Keep => new_rows.push(row),
                    RowEdit::Replace(new) => {
                        dirty = true;
                        affected += 1;
                        new_rows.push(new);
                    }
                    RowEdit::Drop => {
                        dirty = true;
                        affected += 1;
                    }
                }
            }
            if dirty {
                removed.push(p.meta.id);
                added.extend(self.append_partitions(new_rows));
            } else {
                Arc::make_mut(&mut self.partitions).push(p);
            }
        }
        self.rebuild_slots();
        self.version += 1;
        DmlResult {
            rows_affected: affected,
            partitions_added: added,
            partitions_removed: removed,
            new_version: self.version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use snowprune_types::ScalarType;

    fn build(layout: Layout, per_part: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("v", ScalarType::Str),
        ]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(per_part)
            .layout(layout);
        for i in 0..100i64 {
            b.push_row(vec![Value::Int(97 - i), Value::Str(format!("row{i}"))]);
        }
        b.build()
    }

    #[test]
    fn splits_into_partitions() {
        let t = build(Layout::Natural, 30);
        assert_eq!(t.partition_count(), 4); // 30+30+30+10
        assert_eq!(t.total_rows(), 100);
        let last = t.partition(3).unwrap();
        assert_eq!(last.row_count(), 10);
    }

    #[test]
    fn clustering_tightens_zone_maps() {
        let natural = build(Layout::Shuffle(42), 25);
        let clustered = build(Layout::ClusterBy(vec!["k".into()]), 25);
        // With clustering, partition 0 holds the 25 smallest keys.
        let c0 = clustered.partition(0).unwrap();
        assert_eq!(c0.meta.zone_map(0).min, Some(Value::Int(-2)));
        assert_eq!(c0.meta.zone_map(0).max, Some(Value::Int(22)));
        // Shuffled partitions have much wider ranges than clustered ones.
        let width = |t: &Table| -> i64 {
            t.metadata()
                .iter()
                .map(|m| {
                    m.zone_map(0).max.as_ref().unwrap().as_i64().unwrap()
                        - m.zone_map(0).min.as_ref().unwrap().as_i64().unwrap()
                })
                .sum()
        };
        assert!(width(&natural) > 2 * width(&clustered));
    }

    #[test]
    fn load_accounts_io() {
        let t = build(Layout::Natural, 50);
        let io = IoStats::new();
        let model = IoCostModel::default();
        t.read_metadata(&io, &model);
        t.load_partition(0, &io, &model).unwrap();
        let s = io.snapshot();
        assert_eq!(s.metadata_reads, 2);
        assert_eq!(s.partitions_loaded, 1);
        assert!(s.bytes_loaded > 0);
    }

    #[test]
    fn insert_appends_partitions_and_bumps_version() {
        let mut t = build(Layout::Natural, 50);
        assert_eq!(t.version(), 0);
        let res = t.insert_rows(vec![vec![Value::Int(999), Value::Str("new".into())]]);
        assert_eq!(res.rows_affected, 1);
        assert_eq!(res.partitions_added.len(), 1);
        assert!(res.partitions_removed.is_empty());
        assert_eq!(t.version(), 1);
        assert_eq!(t.total_rows(), 101);
    }

    #[test]
    fn delete_rewrites_only_affected_partitions() {
        let mut t = build(Layout::ClusterBy(vec!["k".into()]), 25);
        // Keys run -2..=97; delete a key living in exactly one partition.
        let res = t.delete_rows(|row| row[0] == Value::Int(0));
        assert_eq!(res.rows_affected, 1);
        assert_eq!(res.partitions_removed.len(), 1);
        assert_eq!(t.total_rows(), 99);
        // Untouched partitions keep their ids.
        assert!(t.partition(3).is_ok());
    }

    #[test]
    fn update_reports_changed_rows() {
        let mut t = build(Layout::Natural, 50);
        let res = t.update_rows(|row| {
            let mut r = row.to_vec();
            if r[0] == Value::Int(5) {
                r[1] = Value::Str("updated".into());
            }
            r
        });
        assert_eq!(res.rows_affected, 1);
        assert_eq!(t.total_rows(), 100);
    }

    #[test]
    fn tracked_update_reports_changed_columns() {
        let mut t = build(Layout::Natural, 50);
        let (res, cols) = t.update_rows_tracked(|row| {
            let mut r = row.to_vec();
            if r[0] == Value::Int(5) {
                r[1] = Value::Str("updated".into());
            }
            r
        });
        assert_eq!(res.rows_affected, 1);
        assert_eq!(cols, vec!["v".to_owned()]);
        // A no-op update changes no columns and rewrites no partitions.
        let (res, cols) = t.update_rows_tracked(|row| row.to_vec());
        assert_eq!(res.rows_affected, 0);
        assert!(cols.is_empty());
        assert!(res.partitions_removed.is_empty());
    }

    #[test]
    fn rewritten_partition_keeps_its_position_under_a_higher_id() {
        let mut t = build(Layout::ClusterBy(vec!["k".into()]), 25);
        assert_eq!(t.partition_ids(), vec![0, 1, 2, 3]);
        // Key 30 lives in the second partition only.
        let res = t.delete_rows(|row| row[0] == Value::Int(30));
        assert_eq!(res.partitions_removed, vec![1]);
        assert_eq!(res.partitions_added, vec![4]);
        // Not sorted by id: the index, not a binary search, resolves these.
        assert_eq!(t.partition_ids(), vec![0, 4, 2, 3]);
        for (pos, id) in t.partition_ids().into_iter().enumerate() {
            assert_eq!(t.partition(id).unwrap().meta.id, id);
            assert!(std::ptr::eq(
                t.partition_meta(id).unwrap(),
                t.metadata()[pos]
            ));
        }
        assert_eq!(t.partition(4).unwrap().row_count(), 24);
        // The retired id, the next id to be issued, and a wild one.
        for id in [1, 5, u64::MAX] {
            assert!(matches!(t.partition(id), Err(Error::NotFound(_))), "{id}");
            assert!(t
                .load_partition(id, &IoStats::new(), &IoCostModel::free())
                .is_err());
        }
        // Emptying a partition drops its position; later ones move up.
        let res = t.delete_rows(|row| matches!(row[0], Value::Int(k) if k < 23));
        assert_eq!(res.partitions_removed, vec![0]);
        assert!(res.partitions_added.is_empty());
        assert_eq!(t.partition_ids(), vec![4, 2, 3]);
        assert!(t.partition(0).is_err());
        assert_eq!(t.partition(2).unwrap().meta.id, 2);
    }

    #[test]
    fn snapshot_is_isolated_from_later_dml() {
        let mut live = build(Layout::ClusterBy(vec!["k".into()]), 25);
        let snap = Arc::new(live.clone());
        let ids = snap.partition_ids();
        let counts = |t: &Table, ids: &[PartitionId]| -> Vec<Option<usize>> {
            ids.iter()
                .map(|&id| t.partition(id).ok().map(|p| p.row_count()))
                .collect()
        };
        assert_eq!(counts(&snap, &ids), vec![Some(25); 4]);

        let del = live.delete_rows(|row| row[0] == Value::Int(30));
        let ins = live.insert_rows(vec![vec![Value::Int(1), Value::Str("x".into())]]);
        let (upd, _) = live.update_rows_tracked(|row| {
            let mut r = row.to_vec();
            if r[0] == Value::Int(80) {
                r[1] = Value::Str("updated".into());
            }
            r
        });
        assert_eq!(del.partitions_removed, vec![1]);
        assert_eq!(upd.partitions_removed, vec![3]);

        // The snapshot still is version 0: old ids, old row counts, and no
        // trace of the partitions the statements added.
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.partition_ids(), ids);
        assert_eq!(counts(&snap, &ids), vec![Some(25); 4]);
        assert_eq!(snap.total_rows(), 100);
        for id in del
            .partitions_added
            .iter()
            .chain(&ins.partitions_added)
            .chain(&upd.partitions_added)
        {
            assert!(snap.partition(*id).is_err(), "snapshot must not see {id}");
        }
        // The live table resolves the new ids and not the rewritten ones.
        assert_eq!(live.version(), 3);
        assert_eq!(live.partition_ids(), vec![0, 4, 2, 6, 5]);
        assert_eq!(
            counts(&live, &ids),
            vec![Some(25), None, Some(25), None],
            "rewritten ids are gone from the live table"
        );
        assert_eq!(counts(&live, &[4, 5, 6]), vec![Some(24), Some(1), Some(25)]);
    }

    #[test]
    fn clone_shares_storage_until_the_first_write() {
        let source = build(Layout::Natural, 10);
        let mut copy = source.clone();
        assert!(Arc::ptr_eq(&source.partitions, &copy.partitions));
        assert!(Arc::ptr_eq(&source.slots, &copy.slots));
        // A statement that changes nothing still is a write (new version).
        copy.delete_rows(|_| false);
        assert!(!Arc::ptr_eq(&source.partitions, &copy.partitions));
        assert!(!Arc::ptr_eq(&source.slots, &copy.slots));
        assert_eq!(source.version(), 0);
        assert_eq!(source.partition_ids(), copy.partition_ids());
        // The partitions themselves are immutable and stay shared.
        assert!(Arc::ptr_eq(
            &source.partition(3).unwrap(),
            &copy.partition(3).unwrap()
        ));
        // INSERT copies on write as well.
        let mut copy = source.clone();
        copy.insert_rows(vec![vec![Value::Int(1), Value::Str("x".into())]]);
        assert!(!Arc::ptr_eq(&source.partitions, &copy.partitions));
        assert_eq!(source.partition_count() + 1, copy.partition_count());
        assert!(source.partition(10).is_err());
        assert!(copy.partition(10).is_ok());
    }

    #[test]
    fn nan_rows_are_kept_not_rewritten() {
        let schema = Schema::new(vec![Field::new("f", ScalarType::Float)]);
        let mut b = TableBuilder::new("t", schema).target_rows_per_partition(2);
        for f in [f64::NAN, 1.0, 2.0, 3.0] {
            b.push_row(vec![Value::Float(f)]);
        }
        let mut t = b.build();
        // `Value` equality is the total order, so NaN == NaN: an identity
        // update touches nothing.
        let (res, cols) = t.update_rows_tracked(|row| row.to_vec());
        assert_eq!(res.rows_affected, 0);
        assert!(res.partitions_removed.is_empty() && cols.is_empty());
        // A delete next to the NaN row carries it over unchanged.
        let res = t.delete_rows(|row| row[0] == Value::Float(1.0));
        assert_eq!(
            (res.partitions_removed, res.partitions_added),
            (vec![0], vec![2])
        );
        assert!(matches!(t.partition(2).unwrap().row(0)[0], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn shuffle_is_deterministic() {
        let a = build(Layout::Shuffle(7), 30);
        let b = build(Layout::Shuffle(7), 30);
        assert_eq!(
            a.partition(0).unwrap().row(0),
            b.partition(0).unwrap().row(0)
        );
    }
}
