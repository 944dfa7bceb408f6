//! Allocation-count guard for row materialization.
//!
//! Reading a string cell hands out the chunk's shared `Arc<str>`, so
//! `ColumnChunk::value_at` must not allocate and `MicroPartition::row`
//! must allocate exactly once (the row's `Vec`). A counting global
//! allocator makes that a deterministic check instead of a timing.
//!
//! The counter is per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snowprune_storage::{ColumnBuilder, Field, MicroPartition, Schema};
use snowprune_types::{ScalarType, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A partition with a low- and a high-cardinality string column, NULLs
/// included, beside an integer column.
fn partition() -> MicroPartition {
    let schema = Schema::new(vec![
        Field::new("id", ScalarType::Int),
        Field::new("mode", ScalarType::Str),
        Field::new("name", ScalarType::Str),
    ]);
    let mut ids = ColumnBuilder::new(ScalarType::Int);
    let mut modes = ColumnBuilder::new(ScalarType::Str);
    let mut names = ColumnBuilder::new(ScalarType::Str);
    for i in 0..100i64 {
        ids.push(Value::Int(i));
        modes.push(match i % 4 {
            0 => Value::Null,
            k => Value::from(["AIR", "MAIL", "SHIP"][k as usize - 1]),
        });
        names.push(Value::from(format!("Customer#{i:09}")));
    }
    MicroPartition::from_chunks(
        0,
        &schema,
        vec![ids.finish(), modes.finish(), names.finish()],
    )
}

#[test]
fn string_value_at_does_not_allocate() {
    let part = partition();
    for col in 1..3 {
        let chunk = part.column(col);
        let (n, values) = allocations(|| {
            let mut vs = [Value::Null, Value::Null, Value::Null];
            for (slot, i) in vs.iter_mut().zip([0, 5, 99]) {
                *slot = chunk.value_at(i);
            }
            vs
        });
        assert_eq!(n, 0, "value_at on column {col} allocated");
        assert!(values[1].as_str().is_some());
    }
}

#[test]
fn partition_row_allocates_once() {
    let part = partition();
    for i in [0, 1, 50, 99] {
        let (n, row) = allocations(|| part.row(i));
        assert_eq!(n, 1, "row {i} allocated {n} times");
        assert_eq!(row.len(), 3);
    }
}
