//! Property test: the partition-id index under arbitrary DML interleavings.
//!
//! `Table` resolves a partition id through a dense id → position index
//! instead of searching its partition list. The list is *not* sorted by id
//! (a rewritten partition's new, higher id takes the old position), so the
//! index has to be kept in step by every INSERT / DELETE / UPDATE. Here a
//! naive model — a plain list of `(id, rows)` with its own id counter —
//! replays random statements beside the table, and after every statement
//! the table must agree with it: same ids at the same positions, same rows,
//! same `DmlResult`, every live id resolving to its own partition, every
//! retired or never-issued id `NotFound`.

use proptest::prelude::*;
use snowprune_storage::{DmlResult, Field, PartitionId, Schema, Table, TableBuilder};
use snowprune_types::{Error, ScalarType, Value};

const ROWS_PER_PARTITION: usize = 4;
/// Keys are `0..KEYS`; a statement aimed at `KEYS` itself matches nothing.
const KEYS: i64 = 5;

type Row = Vec<Value>;

fn row(k: i64, v: i64) -> Row {
    vec![Value::Int(k), Value::Int(v)]
}

/// The reference: partitions in table order, ids from a counter.
struct Model {
    parts: Vec<(PartitionId, Vec<Row>)>,
    next_id: PartitionId,
    version: u64,
}

impl Model {
    fn append(&mut self, rows: Vec<Row>) -> Vec<PartitionId> {
        let mut added = Vec::new();
        for chunk in rows.chunks(ROWS_PER_PARTITION) {
            added.push(self.next_id);
            self.parts.push((self.next_id, chunk.to_vec()));
            self.next_id += 1;
        }
        added
    }

    fn insert(&mut self, rows: Vec<Row>) -> DmlResult {
        let rows_affected = rows.len() as u64;
        let partitions_added = self.append(rows);
        self.version += 1;
        DmlResult {
            rows_affected,
            partitions_added,
            partitions_removed: Vec::new(),
            new_version: self.version,
        }
    }

    /// `edit` returns `None` to delete a row, `Some(row)` to keep or
    /// replace it. A partition with any deleted or changed row is rebuilt
    /// under a fresh id at its old position (or vanishes when emptied).
    fn rewrite(&mut self, edit: impl Fn(&Row) -> Option<Row>) -> DmlResult {
        let mut res = DmlResult::default();
        for (id, rows) in std::mem::take(&mut self.parts) {
            let new_rows: Vec<Row> = rows.iter().filter_map(&edit).collect();
            let changed = rows.iter().filter(|r| edit(r).as_ref() != Some(r)).count();
            if changed == 0 {
                self.parts.push((id, rows));
                continue;
            }
            res.rows_affected += changed as u64;
            res.partitions_removed.push(id);
            res.partitions_added.extend(self.append(new_rows));
        }
        self.version += 1;
        res.new_version = self.version;
        res
    }
}

fn assert_agrees(table: &Table, model: &Model, retired: &[PartitionId]) {
    let ids = table.partition_ids();
    let want: Vec<PartitionId> = model.parts.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, want, "ids by position");
    assert_eq!(table.partition_count(), want.len());
    assert_eq!(table.version(), model.version);
    let metas = table.metadata();
    for (pos, (id, rows)) in model.parts.iter().enumerate() {
        let part = table.partition(*id).expect("live id resolves");
        assert_eq!(part.meta.id, *id, "id {id} resolves to its own partition");
        let got: Vec<Row> = (0..part.row_count()).map(|i| part.row(i)).collect();
        assert_eq!(&got, rows, "rows of partition {id}");
        let meta = table.partition_meta(*id).expect("live id has metadata");
        assert!(
            std::ptr::eq(meta, metas[pos]),
            "partition_meta({id}) is position {pos} of metadata()"
        );
    }
    for id in retired.iter().copied().chain([model.next_id, u64::MAX]) {
        assert!(
            matches!(table.partition(id), Err(Error::NotFound(_))),
            "retired or never-issued id {id} must not resolve"
        );
        assert!(matches!(table.partition_meta(id), Err(Error::NotFound(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn id_index_tracks_random_dml(
        initial_rows in 0usize..30,
        ops in proptest::collection::vec((0u8..3, 0i64..KEYS + 1, 1usize..10), 1..24),
    ) {
        let schema = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("v", ScalarType::Int),
        ]);
        let initial: Vec<Row> = (0..initial_rows as i64).map(|i| row(i % KEYS, i)).collect();
        let mut builder =
            TableBuilder::new("t", schema).target_rows_per_partition(ROWS_PER_PARTITION);
        builder.extend_rows(initial.clone());
        let mut table = builder.build();
        let mut model = Model { parts: Vec::new(), next_id: 0, version: 0 };
        model.append(initial);
        let mut retired: Vec<PartitionId> = Vec::new();
        assert_agrees(&table, &model, &retired);

        for (kind, key, n) in ops {
            let before = table.partition_ids();
            let (got, want) = match kind {
                0 => {
                    let rows: Vec<Row> =
                        (0..n as i64).map(|j| row((key + j) % KEYS, 100 + j)).collect();
                    (table.insert_rows(rows.clone()), model.insert(rows))
                }
                1 => (
                    table.delete_rows(|r| r[0] == Value::Int(key)),
                    model.rewrite(|r| (r[0] != Value::Int(key)).then(|| r.clone())),
                ),
                _ => {
                    let bump = |r: &[Value]| match (&r[0], &r[1]) {
                        (Value::Int(k), Value::Int(v)) if *k == key => row(*k, v + 1),
                        _ => r.to_vec(),
                    };
                    (table.update_rows(bump), model.rewrite(|r| Some(bump(r.as_slice()))))
                }
            };
            prop_assert_eq!(&got, &want);
            retired.extend(&got.partitions_removed);
            assert_agrees(&table, &model, &retired);
            // A rewritten partition that kept a row has its new id where
            // the old one was, so the list is not sorted by id.
            let after = table.partition_ids();
            if after.len() == before.len() {
                for (old, new) in before.iter().zip(&after) {
                    prop_assert_eq!(old != new, got.partitions_removed.contains(old));
                    prop_assert!(new >= old);
                }
            }
        }
    }
}
