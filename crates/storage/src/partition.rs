//! Micro-partitions: the unit of pruning.
//!
//! Regular tables are implicitly horizontally partitioned into
//! micro-partitions (§2 "Data Storage"). Metadata ([`PartitionMeta`]) lives
//! in the metadata service and can be read without touching the data;
//! loading the data itself goes through the simulated object store and is
//! charged to [`crate::io::IoStats`].

use snowprune_types::{ZoneMap, DEFAULT_STRING_PREFIX};

use crate::column::ColumnChunk;
use crate::schema::Schema;

/// Identifier of a micro-partition within its table.
pub type PartitionId = u64;

/// Partition-level metadata kept in the metadata store.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionMeta {
    /// Partition id within its table.
    pub id: PartitionId,
    /// Rows in the partition.
    pub row_count: u64,
    /// Approximate encoded size, used for I/O accounting.
    pub bytes: u64,
    /// One zone map per schema field, in schema order.
    pub zone_maps: Vec<ZoneMap>,
}

impl PartitionMeta {
    /// Zone map for a column by index.
    pub fn zone_map(&self, col: usize) -> &ZoneMap {
        &self.zone_maps[col]
    }
}

/// A micro-partition: metadata plus PAX-layout column chunks.
#[derive(Clone, Debug)]
pub struct MicroPartition {
    /// The partition's metadata (id, zone maps, size).
    pub meta: PartitionMeta,
    /// One chunk per schema column, all of equal length.
    pub columns: Vec<ColumnChunk>,
}

impl MicroPartition {
    /// Build a partition (and its zone maps) from column chunks.
    // TEST-API: test fixture; the engine calls `from_chunks_with_prefix`.
    pub fn from_chunks(id: PartitionId, schema: &Schema, columns: Vec<ColumnChunk>) -> Self {
        Self::from_chunks_with_prefix(id, schema, columns, DEFAULT_STRING_PREFIX)
    }

    /// As [`MicroPartition::from_chunks`] with an explicit string-metadata
    /// truncation length.
    pub fn from_chunks_with_prefix(
        id: PartitionId,
        schema: &Schema,
        columns: Vec<ColumnChunk>,
        string_prefix: usize,
    ) -> Self {
        assert_eq!(columns.len(), schema.len(), "column count != schema width");
        let row_count = columns.first().map_or(0, ColumnChunk::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), row_count, "ragged column {i}");
            assert_eq!(
                c.scalar_type(),
                schema.fields()[i].ty,
                "column {i} type mismatch"
            );
        }
        let zone_maps = columns
            .iter()
            .map(|c| {
                let values: Vec<_> = c.iter_values().collect();
                ZoneMap::build(values.iter(), string_prefix)
            })
            .collect();
        let bytes = columns.iter().map(ColumnChunk::approx_bytes).sum::<usize>() as u64;
        MicroPartition {
            meta: PartitionMeta {
                id,
                row_count: row_count as u64,
                bytes,
                zone_maps,
            },
            columns,
        }
    }

    /// Rows in the partition.
    pub fn row_count(&self) -> usize {
        self.meta.row_count as usize
    }

    /// The chunk of column `idx`.
    pub fn column(&self, idx: usize) -> &ColumnChunk {
        &self.columns[idx]
    }

    /// Materialize row `i` across all columns.
    pub fn row(&self, i: usize) -> Vec<snowprune_types::Value> {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::schema::Field;
    use snowprune_types::{ScalarType, Value};

    fn sample() -> (Schema, MicroPartition) {
        let schema = Schema::new(vec![
            Field::new("id", ScalarType::Int),
            Field::new("name", ScalarType::Str),
        ]);
        let mut ids = ColumnBuilder::new(ScalarType::Int);
        let mut names = ColumnBuilder::new(ScalarType::Str);
        for (i, n) in [(3i64, "carol"), (1, "alice"), (2, "bob")] {
            ids.push(Value::Int(i));
            names.push(Value::Str(n.into()));
        }
        let p = MicroPartition::from_chunks(7, &schema, vec![ids.finish(), names.finish()]);
        (schema, p)
    }

    #[test]
    fn builds_zone_maps() {
        let (_, p) = sample();
        assert_eq!(p.meta.id, 7);
        assert_eq!(p.meta.row_count, 3);
        assert_eq!(p.meta.zone_map(0).min, Some(Value::Int(1)));
        assert_eq!(p.meta.zone_map(0).max, Some(Value::Int(3)));
        assert_eq!(p.meta.zone_map(1).min, Some(Value::Str("alice".into())));
        assert_eq!(p.meta.zone_map(1).max, Some(Value::Str("carol".into())));
        assert!(p.meta.bytes > 0);
    }

    #[test]
    fn row_materialization() {
        let (_, p) = sample();
        assert_eq!(p.row(1), vec![Value::Int(1), Value::Str("alice".into())]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_columns() {
        let schema = Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("b", ScalarType::Int),
        ]);
        let mut a = ColumnBuilder::new(ScalarType::Int);
        a.push(Value::Int(1));
        let b = ColumnBuilder::new(ScalarType::Int);
        MicroPartition::from_chunks(0, &schema, vec![a.finish(), b.finish()]);
    }
}
