//! Property test: dictionary-encoded string chunks.
//!
//! A string chunk stores each distinct value once plus one code per row.
//! On random columns — low and high cardinality, runs of one value, NULLs,
//! empty strings, and strings longer than the zone-map prefix — the chunk
//! must read back exactly what was pushed, keep a duplicate-free
//! dictionary, charge the same bytes as a plain `Σ(len + 4)` layout, and
//! build the zone map `ZoneMap::build` builds over the pushed values (so
//! the placeholder behind a NULL slot never becomes a min).

use proptest::prelude::*;
use snowprune_storage::{ColumnBuilder, ColumnValues, Field, MicroPartition, Schema};
use snowprune_types::{ScalarType, Value, ZoneMap, DEFAULT_STRING_PREFIX};

/// One cell: a small vocabulary (low cardinality), free text (high
/// cardinality), the empty string, text longer than the zone-map prefix,
/// or NULL.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => prop_oneof![Just("AIR"), Just("MAIL"), Just("SHIP"), Just("a")].prop_map(Value::from),
        3 => "[a-z]{1,6}".prop_map(Value::from),
        1 => Just(Value::from("")),
        1 => "[a-c]{30,40}".prop_map(Value::from),
        2 => Just(Value::Null),
    ]
}

/// A column as runs of repeated cells, so consecutive equal values (the
/// builder's fast path) occur as well as scattered repeats.
fn column() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec((cell(), 1usize..5), 0..60).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn string_chunks_round_trip_and_keep_the_plain_layout_accounting(values in column()) {
        let mut b = ColumnBuilder::new(ScalarType::Str);
        for v in &values {
            b.push(v.clone());
        }
        let chunk = b.finish();

        prop_assert_eq!(chunk.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(&chunk.value_at(i), v, "row {}", i);
        }

        let ColumnValues::Str(col) = chunk.values() else {
            panic!("string builder produced {:?}", chunk.scalar_type());
        };
        prop_assert_eq!(col.codes().len(), values.len());
        prop_assert!(col.codes().iter().all(|&c| (c as usize) < col.dict().len()));
        let mut dict: Vec<&str> = col.dict().iter().map(|s| &**s).collect();
        dict.sort_unstable();
        dict.dedup();
        prop_assert_eq!(dict.len(), col.dict().len(), "dictionary holds a duplicate");

        let nulls = values.iter().filter(|v| v.is_null()).count();
        let data: usize = values.iter().map(|v| v.as_str().map_or(0, str::len) + 4).sum();
        let validity = if nulls > 0 { values.len() / 8 + 1 } else { 0 };
        prop_assert_eq!(chunk.approx_bytes(), data + validity);
        prop_assert_eq!(chunk.null_count(), nulls);

        let schema = Schema::new(vec![Field::new("s", ScalarType::Str)]);
        let part = MicroPartition::from_chunks(0, &schema, vec![chunk]);
        prop_assert_eq!(
            part.meta.zone_map(0),
            &ZoneMap::build(values.iter(), DEFAULT_STRING_PREFIX)
        );
    }
}
