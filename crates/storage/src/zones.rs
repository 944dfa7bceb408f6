//! Column-major zone maps: one table version's min/max metadata kept as
//! typed arrays beside its row-major [`PartitionMeta`]s.
//!
//! A pruning leaf such as `ts >= 1000` reads one column's bounds across
//! every partition. Over `PartitionMeta`s that is a pointer chase and an
//! enum match per partition; over [`IntZones`] it is a loop over two
//! `i64` arrays. §8.1's lake formats (Iceberg manifests, Parquet column
//! statistics) keep their statistics per column for the same reason.
//!
//! The arrays belong to one table version and are shared by every
//! snapshot of it. Each column is built on its first use, from the
//! version's `PartitionMeta`s, so building a table or opening a session
//! builds nothing. A write cannot leave a stale array behind: the table
//! reaches its partition list through one accessor, and that accessor
//! swaps in a fresh, empty `ZoneColumns`.

use std::ops::Deref;
use std::sync::OnceLock;

use snowprune_types::{ScalarType, Value};

use crate::partition::PartitionMeta;
use crate::schema::Schema;

/// The bounds of one Int, Date or Timestamp column across a table
/// version, indexed by partition position: `min`/`max` as `i64`, and as
/// bitsets the three facts a comparison's verdict reads from a zone map's
/// null and row counts and bounds.
#[derive(Debug)]
pub struct IntZones {
    ty: ScalarType,
    mins: Vec<i64>,
    maxs: Vec<i64>,
    /// The zone map has a min and a max (some row is non-NULL).
    bounded: Vec<u64>,
    /// `null_count > 0`.
    has_null: Vec<u64>,
    /// `row_count > 0 && null_count == row_count`.
    all_null: Vec<u64>,
}

impl IntZones {
    /// The column's type; its values are `i64` (a Date widens its days).
    pub fn ty(&self) -> ScalarType {
        self.ty
    }

    /// Lower bound per partition (0 where the partition is not bounded).
    #[inline]
    pub fn mins(&self) -> &[i64] {
        &self.mins
    }

    /// Upper bound per partition (0 where the partition is not bounded).
    #[inline]
    pub fn maxs(&self) -> &[i64] {
        &self.maxs
    }

    /// Bit `j` set when partition `start + j` has bounds; `n <= 64`.
    #[inline]
    pub fn bounded(&self, start: usize, n: usize) -> u64 {
        window(&self.bounded, start, n)
    }

    /// Bit `j` set when partition `start + j` has a NULL row; `n <= 64`.
    #[inline]
    pub fn has_null(&self, start: usize, n: usize) -> u64 {
        window(&self.has_null, start, n)
    }

    /// Bit `j` set when every row of partition `start + j` is NULL (and
    /// there is one); `n <= 64`.
    #[inline]
    pub fn all_null(&self, start: usize, n: usize) -> u64 {
        window(&self.all_null, start, n)
    }

    /// Gather column `col`, of schema type `ty`, from `metas`. `None` (the
    /// column stays untyped) unless `ty` is Int, Date or Timestamp and
    /// every zone map holds either no bounds or two bounds of exactly that
    /// type.
    pub fn gather(metas: &[&PartitionMeta], col: usize, ty: ScalarType) -> Option<IntZones> {
        let as_i64 = |v: &Value| match (ty, v) {
            (ScalarType::Int, Value::Int(x)) | (ScalarType::Timestamp, Value::Timestamp(x)) => {
                Some(*x)
            }
            (ScalarType::Date, Value::Date(d)) => Some(i64::from(*d)),
            _ => None,
        };
        if !matches!(
            ty,
            ScalarType::Int | ScalarType::Date | ScalarType::Timestamp
        ) {
            return None;
        }
        let (n, words) = (metas.len(), metas.len().div_ceil(64));
        let mut z = IntZones {
            ty,
            mins: Vec::with_capacity(n),
            maxs: Vec::with_capacity(n),
            bounded: vec![0; words],
            has_null: vec![0; words],
            all_null: vec![0; words],
        };
        for (pos, m) in metas.iter().enumerate() {
            let zm = m.zone_maps.get(col)?;
            let (lo, hi, bounded) = match (&zm.min, &zm.max) {
                (None, None) => (0, 0, false),
                (Some(lo), Some(hi)) => (as_i64(lo)?, as_i64(hi)?, true),
                _ => return None,
            };
            z.mins.push(lo);
            z.maxs.push(hi);
            let bit = 1u64 << (pos % 64);
            let set = |words: &mut Vec<u64>, on: bool| words[pos / 64] |= if on { bit } else { 0 };
            set(&mut z.bounded, bounded);
            set(&mut z.has_null, zm.null_count > 0);
            set(
                &mut z.all_null,
                zm.row_count > 0 && zm.null_count == zm.row_count,
            );
        }
        Some(z)
    }
}

/// Bits `start..start + n` of the bitset `words`, as bits `0..n`.
#[inline]
fn window(words: &[u64], start: usize, n: usize) -> u64 {
    let (at, shift) = (start / 64, start % 64);
    let low = words.get(at).map_or(0, |w| w >> shift);
    let high = match shift {
        0 => 0,
        _ => words.get(at + 1).map_or(0, |w| w << (64 - shift)),
    };
    let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    (low | high) & mask
}

/// The lazily built column-major zone maps of one table version: the
/// partitions' row counts, and one [`IntZones`] slot per schema column.
#[derive(Debug)]
pub(crate) struct ZoneColumns {
    row_counts: OnceLock<Vec<u64>>,
    columns: Box<[OnceLock<Option<IntZones>>]>,
}

impl ZoneColumns {
    /// An empty cache for a table of `width` columns.
    pub(crate) fn new(width: usize) -> Self {
        ZoneColumns {
            row_counts: OnceLock::new(),
            columns: (0..width).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// A table version's partition metadata, as handed out by
/// [`crate::Table::read_metadata`]: it derefs to the row-major
/// `[&PartitionMeta]` and also carries the version's column-major zone
/// maps.
pub struct TableMetadata<'a> {
    metas: Vec<&'a PartitionMeta>,
    schema: &'a Schema,
    zones: &'a ZoneColumns,
}

impl<'a> TableMetadata<'a> {
    pub(crate) fn new(
        metas: Vec<&'a PartitionMeta>,
        schema: &'a Schema,
        zones: &'a ZoneColumns,
    ) -> Self {
        TableMetadata {
            metas,
            schema,
            zones,
        }
    }

    /// Row count per partition position.
    pub fn row_counts(&self) -> &'a [u64] {
        let metas = &self.metas;
        self.zones
            .row_counts
            .get_or_init(|| metas.iter().map(|m| m.row_count).collect())
    }

    /// The typed bounds of column `col`, built on first use; `None` for a
    /// column that is not Int, Date or Timestamp, or whose zone maps are
    /// not all of its type.
    pub fn int_zones(&self, col: usize) -> Option<&'a IntZones> {
        let ty = self.schema.fields().get(col)?.ty;
        let metas = &self.metas;
        self.zones
            .columns
            .get(col)?
            .get_or_init(|| IntZones::gather(metas, col, ty))
            .as_ref()
    }
}

impl<'a> Deref for TableMetadata<'a> {
    type Target = [&'a PartitionMeta];

    fn deref(&self) -> &Self::Target {
        &self.metas
    }
}
