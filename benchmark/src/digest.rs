//! Stable digests: of a workload's generated inputs (pinned under
//! `golden/`) and of result rows (compared against the oracle).
//!
//! FNV-1a rather than `DefaultHasher`: the golden input digests are
//! committed, so the function must not change with the toolchain.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use snowprune_types::Value;

pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Fnv {
    /// Hash a string and a separator, so `"ab","c"` and `"a","bc"` differ.
    pub fn text(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }
}

/// Floats are compared at nine significant digits: a parallel scan may
/// fold a SUM's partitions in another order than the sequential oracle.
fn hash_value(v: &Value, h: &mut Fnv) {
    match v {
        Value::Float(f) => h.text(&format!("{f:.8e}")),
        other => other.hash(h),
    }
}

pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = Fnv::default();
    for v in row {
        hash_value(v, &mut h);
    }
    h.finish()
}

/// Order-insensitive digest of a result: row count plus the wrapping sum
/// of row hashes (a multiset hash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowsDigest {
    pub rows: u64,
    pub sum: u64,
}

pub fn multiset(rows: &[Vec<Value>]) -> RowsDigest {
    RowsDigest {
        rows: rows.len() as u64,
        sum: rows
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r))),
    }
}

/// Order-sensitive digest of one column (the sort key of an ORDER BY).
pub fn ordered_column(rows: &[Vec<Value>], col: usize) -> u64 {
    let mut h = Fnv::default();
    for r in rows {
        hash_value(&r[col], &mut h);
    }
    h.finish()
}

/// True when every row of `part` occurs in `whole` at least as often.
pub fn contained_in(part: &[Vec<Value>], whole: &[Vec<Value>]) -> bool {
    let mut budget: HashMap<u64, i64> = HashMap::new();
    for r in whole {
        *budget.entry(row_hash(r)).or_default() += 1;
    }
    part.iter().all(|r| {
        let left = budget.entry(row_hash(r)).or_default();
        *left -= 1;
        *left >= 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, s: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::Str(s.into())]
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn multiset_ignores_order_but_not_content() {
        let a = vec![row(1, "x"), row(2, "y"), row(2, "y")];
        let b = vec![row(2, "y"), row(1, "x"), row(2, "y")];
        assert_eq!(multiset(&a), multiset(&b));
        assert_ne!(multiset(&a), multiset(&[row(1, "x"), row(2, "y")]));
        assert_ne!(
            multiset(&a),
            multiset(&[row(1, "x"), row(2, "y"), row(2, "z")])
        );
        assert_ne!(
            ordered_column(&a, 0),
            ordered_column(&[row(2, "y"), row(1, "x"), row(2, "y")], 0)
        );
    }

    #[test]
    fn floats_compare_at_nine_digits() {
        let a = vec![vec![Value::Float(0.1 + 0.2)]];
        let b = vec![vec![Value::Float(0.3)]];
        assert_eq!(multiset(&a), multiset(&b));
        assert_ne!(multiset(&a), multiset(&[vec![Value::Float(0.300001)]]));
    }

    #[test]
    fn containment_counts_duplicates() {
        let whole = vec![row(1, "x"), row(2, "y"), row(2, "y")];
        assert!(contained_in(&[row(2, "y"), row(2, "y")], &whole));
        assert!(!contained_in(&[row(1, "x"), row(1, "x")], &whole));
        assert!(!contained_in(&[row(3, "z")], &whole));
    }
}
