//! Typed columnar storage for one column of one micro-partition.
//!
//! Micro-partitions use a PAX-style layout (§2): all rows of a partition
//! live together, organized column-by-column. Each column chunk stores a
//! typed vector plus an optional validity bitmap; a string chunk stores a
//! dictionary of its distinct values plus one code per row ([`StrColumn`]).

use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

use snowprune_types::{ScalarType, Value};

use crate::schema::Schema;

/// A packed validity bitmap; bit set = value present (non-null).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set (all values valid).
    pub fn new_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Append one bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let i = self.len - 1;
        self.set(i, v);
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The typed values of a column chunk. Null slots hold a type-appropriate
/// placeholder and are masked by the chunk's validity bitmap.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnValues {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// UTF-8 strings, dictionary-encoded. Boxed, so that a chunk of any
    /// type stays 64 bytes: the dictionary's two vectors inline would
    /// grow every [`ColumnChunk`] by 16.
    Str(Box<StrColumn>),
    /// Dates as days since the epoch.
    Date(Vec<i32>),
    /// Timestamps as microseconds since the epoch.
    Timestamp(Vec<i64>),
}

impl ColumnValues {
    /// Number of rows (null placeholders included).
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Bool(v) => v.len(),
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Float(v) => v.len(),
            ColumnValues::Str(v) => v.len(),
            ColumnValues::Date(v) => v.len(),
            ColumnValues::Timestamp(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's scalar type.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            ColumnValues::Bool(_) => ScalarType::Bool,
            ColumnValues::Int(_) => ScalarType::Int,
            ColumnValues::Float(_) => ScalarType::Float,
            ColumnValues::Str(_) => ScalarType::Str,
            ColumnValues::Date(_) => ScalarType::Date,
            ColumnValues::Timestamp(_) => ScalarType::Timestamp,
        }
    }

    fn with_capacity(ty: ScalarType, rows: usize) -> ColumnValues {
        match ty {
            ScalarType::Bool => ColumnValues::Bool(Vec::with_capacity(rows)),
            ScalarType::Int => ColumnValues::Int(Vec::with_capacity(rows)),
            ScalarType::Float => ColumnValues::Float(Vec::with_capacity(rows)),
            ScalarType::Str => ColumnValues::Str(Box::new(StrColumn {
                dict: Vec::new(),
                codes: Vec::with_capacity(rows),
            })),
            ScalarType::Date => ColumnValues::Date(Vec::with_capacity(rows)),
            ScalarType::Timestamp => ColumnValues::Timestamp(Vec::with_capacity(rows)),
        }
    }
}

/// A dictionary-encoded string column: the chunk's distinct values, each
/// stored once, and one `u32` code per row indexing them. Reading a row
/// hands out the shared `Arc<str>` (a refcount bump, no copy), and a
/// predicate can be evaluated once per dictionary entry instead of once per
/// row. Null slots hold the code of `""`, masked by the chunk's validity.
#[derive(Clone, Debug)]
pub struct StrColumn {
    dict: Vec<Arc<str>>,
    codes: Vec<u32>,
}

impl StrColumn {
    /// Number of rows (null placeholders included).
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The distinct values, in first-occurrence order.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// One index into [`StrColumn::dict`] per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The shared string of row `i`.
    #[inline]
    fn get(&self, i: usize) -> &Arc<str> {
        &self.dict[self.codes[i] as usize]
    }
}

impl Index<usize> for StrColumn {
    type Output = str;

    #[inline]
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl PartialEq for StrColumn {
    /// Row-wise equality: two chunks holding the same strings compare equal
    /// whatever order their dictionaries were built in.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self[i] == other[i])
    }
}

/// One column of one micro-partition: typed values + validity.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnChunk {
    values: ColumnValues,
    /// `None` means all values are valid (no nulls).
    validity: Option<Bitmap>,
}

impl ColumnChunk {
    /// A chunk from typed values plus an optional validity bitmap (`None`
    /// = no nulls). Panics when the bitmap length disagrees with the
    /// value count.
    pub fn new(values: ColumnValues, validity: Option<Bitmap>) -> Self {
        if let Some(v) = &validity {
            assert_eq!(v.len(), values.len(), "validity/values length mismatch");
        }
        ColumnChunk { values, validity }
    }

    /// Number of rows (null placeholders included).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The chunk's scalar type.
    pub fn scalar_type(&self) -> ScalarType {
        self.values.scalar_type()
    }

    /// The raw typed values (null slots hold placeholders; consult
    /// [`ColumnChunk::validity`]).
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// The validity bitmap; `None` means every value is valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// True when row `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|b| b.get(i))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match &self.validity {
            None => 0,
            Some(b) => b.len() - b.count_set(),
        }
    }

    /// Materialize row `i` as a [`Value`]. Hot paths match on
    /// [`ColumnChunk::values`] instead; this is for row-at-a-time consumers
    /// (joins, results).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.values {
            ColumnValues::Bool(v) => Value::Bool(v[i]),
            ColumnValues::Int(v) => Value::Int(v[i]),
            ColumnValues::Float(v) => Value::Float(v[i]),
            ColumnValues::Str(v) => Value::Str(v.get(i).clone()),
            ColumnValues::Date(v) => Value::Date(v[i]),
            ColumnValues::Timestamp(v) => Value::Timestamp(v[i]),
        }
    }

    /// Iterate rows as values.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value_at(i))
    }

    /// Approximate encoded size in bytes (drives partition sizing and I/O
    /// accounting).
    pub fn approx_bytes(&self) -> usize {
        let data = match &self.values {
            ColumnValues::Bool(v) => v.len(),
            ColumnValues::Int(v) => v.len() * 8,
            ColumnValues::Float(v) => v.len() * 8,
            ColumnValues::Str(v) => v.codes.iter().map(|&c| v.dict[c as usize].len() + 4).sum(),
            ColumnValues::Date(v) => v.len() * 4,
            ColumnValues::Timestamp(v) => v.len() * 8,
        };
        data + self.validity.as_ref().map_or(0, |b| b.len() / 8 + 1)
    }
}

/// Incremental builder for a [`ColumnChunk`].
#[derive(Debug)]
pub struct ColumnBuilder {
    values: ColumnValues,
    validity: Bitmap,
    any_null: bool,
    /// A string column's dictionary index (value → code). Builder-only:
    /// [`ColumnBuilder::finish`] drops it, so no chunk carries it.
    index: HashMap<Arc<str>, u32>,
}

impl ColumnBuilder {
    /// An empty builder for a column of type `ty`.
    pub fn new(ty: ScalarType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// An empty builder with room for `rows` values, so building a chunk
    /// of known length allocates each of its vectors once.
    pub(crate) fn with_capacity(ty: ScalarType, rows: usize) -> Self {
        let mut validity = Bitmap::new_set(0);
        validity.words.reserve_exact(rows.div_ceil(64));
        ColumnBuilder {
            values: ColumnValues::with_capacity(ty, rows),
            validity,
            any_null: false,
            index: HashMap::new(),
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Push a value, converting `Null` into a masked placeholder. Panics on
    /// a type mismatch — schema enforcement happens at the table layer.
    pub fn push(&mut self, v: Value) {
        let valid = !v.is_null();
        if !valid {
            self.any_null = true;
        }
        self.validity.push(valid);
        match (&mut self.values, v) {
            (ColumnValues::Bool(c), Value::Bool(x)) => c.push(x),
            (ColumnValues::Bool(c), Value::Null) => c.push(false),
            (ColumnValues::Int(c), Value::Int(x)) => c.push(x),
            (ColumnValues::Int(c), Value::Null) => c.push(0),
            (ColumnValues::Float(c), Value::Float(x)) => c.push(x),
            (ColumnValues::Float(c), Value::Int(x)) => c.push(x as f64),
            (ColumnValues::Float(c), Value::Null) => c.push(0.0),
            (ColumnValues::Str(c), Value::Str(x)) => intern(c, &mut self.index, &x),
            (ColumnValues::Str(c), Value::Null) => intern(c, &mut self.index, ""),
            (ColumnValues::Date(c), Value::Date(x)) => c.push(x),
            (ColumnValues::Date(c), Value::Null) => c.push(0),
            (ColumnValues::Timestamp(c), Value::Timestamp(x)) => c.push(x),
            (ColumnValues::Timestamp(c), Value::Null) => c.push(0),
            // PANIC-OK: builders are constructed from the table schema; a
            // mismatched push is a storage-layer programming error.
            (vals, v) => panic!(
                "type mismatch pushing {:?} into {:?} column",
                v.scalar_type(),
                vals.scalar_type()
            ),
        }
    }

    /// Finish the chunk, attaching a validity bitmap only when a null was
    /// pushed.
    pub fn finish(self) -> ColumnChunk {
        let validity = if self.any_null {
            Some(self.validity)
        } else {
            None
        };
        ColumnChunk {
            values: self.values,
            validity,
        }
    }
}

/// One chunk per schema field, built from row-major `rows`.
pub(crate) fn chunks_from_rows(schema: &Schema, rows: &[Vec<Value>]) -> Vec<ColumnChunk> {
    let mut builders: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.ty, rows.len()))
        .collect();
    for row in rows {
        for (b, v) in builders.iter_mut().zip(row) {
            // Allocates nothing: a string clone bumps a refcount.
            b.push(v.clone());
        }
    }
    // Not `collect()`: it would reuse the builders' larger allocation and
    // keep it for the partition's lifetime.
    let mut chunks = Vec::with_capacity(builders.len());
    chunks.extend(builders.into_iter().map(ColumnBuilder::finish));
    chunks
}

/// Append `s` to a string column under its dictionary code, adding it to
/// the dictionary on first sight. A run of equal values skips the hash
/// lookup.
///
/// The dictionary stores its own copy of each value rather than the pushed
/// `Arc`: a chunk's strings are then allocated together, not left wherever
/// each row's value was born among since-freed row vectors. Keeping the
/// pushed `Arc`s fragmented the heap and measured slower scans and writes
/// on the `tpch_cpu` and `adhoc_dml` lakes.
fn intern(col: &mut StrColumn, index: &mut HashMap<Arc<str>, u32>, s: &str) {
    let code = match col.codes.last() {
        Some(&last) if *col.dict[last as usize] == *s => last,
        _ => match index.get(s) {
            Some(&code) => code,
            None => {
                let code = col.dict.len() as u32;
                let v: Arc<str> = Arc::from(s);
                col.dict.push(v.clone());
                index.insert(v, code);
                code
            }
        },
    };
    col.codes.push(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_roundtrip() {
        let mut b = Bitmap {
            words: vec![0; 3],
            len: 130,
        };
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_set(), 3);
    }

    #[test]
    fn bitmap_push_across_word_boundary() {
        let mut b = Bitmap::new_set(0);
        for i in 0..100 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_set(), 34);
        assert!(b.get(99) && !b.get(98));
    }

    #[test]
    fn builder_handles_nulls_and_coercion() {
        let mut b = ColumnBuilder::new(ScalarType::Float);
        b.push(Value::Float(1.5));
        b.push(Value::Null);
        b.push(Value::Int(2)); // int literal into float column
        let chunk = b.finish();
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.null_count(), 1);
        assert_eq!(chunk.value_at(0), Value::Float(1.5));
        assert_eq!(chunk.value_at(1), Value::Null);
        assert_eq!(chunk.value_at(2), Value::Float(2.0));
    }

    #[test]
    fn no_validity_bitmap_when_dense() {
        let mut b = ColumnBuilder::new(ScalarType::Int);
        b.push(Value::Int(1));
        b.push(Value::Int(2));
        let chunk = b.finish();
        assert!(chunk.validity().is_none());
        assert_eq!(chunk.null_count(), 0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(ScalarType::Int);
        b.push(Value::Str("boom".into()));
    }

    #[test]
    fn typed_batch_readers_expose_slices() {
        let mut b = ColumnBuilder::new(ScalarType::Int);
        b.push(Value::Int(7));
        b.push(Value::Null);
        b.push(Value::Int(9));
        let chunk = b.finish();
        // Null slots stay in the slice as placeholders, masked by validity.
        assert!(matches!(chunk.values(), ColumnValues::Int(v) if v[..] == [7, 0, 9]));
        assert!(chunk.is_valid(0) && !chunk.is_valid(1));

        let mut f = ColumnBuilder::new(ScalarType::Float);
        f.push(Value::Float(0.5));
        let chunk = f.finish();
        assert!(matches!(chunk.values(), ColumnValues::Float(v) if v[..] == [0.5]));
    }

    #[test]
    fn chunk_is_64_bytes() {
        assert!(
            std::mem::size_of::<ColumnChunk>() <= 64,
            "{} bytes",
            std::mem::size_of::<ColumnChunk>()
        );
    }

    #[test]
    fn string_builder_stores_each_distinct_value_once() {
        let mut b = ColumnBuilder::new(ScalarType::Str);
        for v in ["b", "b", "a", "b", "", "a"] {
            b.push(Value::from(v));
        }
        b.push(Value::Null);
        let chunk = b.finish();
        let ColumnValues::Str(col) = chunk.values() else {
            panic!("not a string chunk");
        };
        let dict: Vec<&str> = col.dict().iter().map(|s| &**s).collect();
        assert_eq!(dict, ["b", "a", ""]);
        // The NULL slot reuses the code of "" and is masked by validity.
        assert_eq!(col.codes(), [0, 0, 1, 0, 2, 1, 2]);
        assert_eq!(&col[3], "b");
        assert_eq!(chunk.value_at(4), Value::from(""));
        assert_eq!(chunk.value_at(6), Value::Null);
    }
}
