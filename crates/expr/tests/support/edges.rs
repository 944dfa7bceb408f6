//! Number-line edges shared by the kernel and pruning property tests:
//! the values where a lossy `as f64` int/float comparison and the exact
//! one of `Value::sql_cmp` part ways, plus the signed zero and the
//! non-finite floats `total_cmp` orders.

use proptest::prelude::*;
use snowprune_types::Value;

/// Integers at the edges of exact `f64` representation and of `i64`, and
/// the zero that `-0.0` must equal.
pub const INT_EDGES: [i64; 7] = [
    0,
    i64::MIN,
    -(1 << 53),
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX,
];

/// Floats at the same edges: `-0.0`, ±∞, NaN, ±2^53, 2^53 ± 1 (2^53 + 1
/// has no `f64`; 2^53 + 2 is the next float above 2^53), `i64::MIN` and
/// `i64::MAX as f64` (2^63, one above `i64::MAX`).
pub const FLOAT_EDGES: [f64; 10] = [
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -9_007_199_254_740_992.0,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    i64::MIN as f64,
    i64::MAX as f64,
];

/// One of [`INT_EDGES`] as an `Int`.
pub fn int_edge() -> impl Strategy<Value = Value> {
    (0..INT_EDGES.len()).prop_map(|i| Value::Int(INT_EDGES[i]))
}

/// One of [`FLOAT_EDGES`] as a `Float`.
pub fn float_edge() -> impl Strategy<Value = Value> {
    (0..FLOAT_EDGES.len()).prop_map(|i| Value::Float(FLOAT_EDGES[i]))
}
