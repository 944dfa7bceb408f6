//! §8.2 bench: repeated top-k via predicate cache vs boundary pruning —
//! both a bare lookup+replay loop over an engine-recorded entry and the
//! engine-integrated warm path (`Session` with `predicate_cache` on).

use criterion::{criterion_group, criterion_main, Criterion};
use snowprune_cache::CacheLookup;
use snowprune_exec::{ExecConfig, Executor, Session};
use snowprune_plan::{fingerprint, FingerprintMode, PlanBuilder};
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

fn bench_cache(c: &mut Criterion) {
    let schema = Schema::new(vec![
        Field::new("v", ScalarType::Int),
        Field::new("p", ScalarType::Int),
    ]);
    let cat = Catalog::new();
    let mut b = TableBuilder::new("t", schema.clone())
        .target_rows_per_partition(500)
        .layout(Layout::Shuffle(5));
    for i in 0..50_000i64 {
        b.push_row(vec![Value::Int((i * 37) % 100_000), Value::Int(i)]);
    }
    let handle = cat.register(b.build());
    let plan = PlanBuilder::scan("t", schema)
        .order_by("v", true)
        .limit(10)
        .build();
    let mut g = c.benchmark_group("cache");
    g.sample_size(20);
    g.bench_function("topk_pruning_shuffled", |b| {
        let exec = Executor::new(cat.clone(), ExecConfig::default());
        b.iter(|| std::hint::black_box(exec.run(&plan).unwrap()))
    });
    g.bench_function("topk_cached_replay", |b| {
        // One cold engine run records the entry, then measure bare
        // lookup + replay cost.
        let session = Session::new(
            cat.clone(),
            ExecConfig::default().with_predicate_cache(true),
        );
        session.run(&plan).unwrap();
        let cache = session.cache().unwrap();
        let fp = fingerprint(&plan, FingerprintMode::Exact);
        let version = handle.read().version();
        let t = handle.read().clone();
        b.iter(|| {
            let CacheLookup::Hit(parts) = cache.lock().lookup(fp, version) else {
                panic!()
            };
            // Replay: load only the cached partitions.
            let mut top: Vec<i64> = Vec::new();
            for id in parts {
                let p = t.partition(id).unwrap();
                for i in 0..p.row_count() {
                    if let Value::Int(v) = p.column(0).value_at(i) {
                        top.push(v);
                    }
                }
            }
            top.sort_unstable_by(|a, b| b.cmp(a));
            top.truncate(10);
            std::hint::black_box(top)
        })
    });
    g.bench_function("topk_engine_warm_hit", |b| {
        // The integrated path: one cold miss populates, then every
        // iteration is a full engine run that hits the cache.
        let session = Session::new(
            cat.clone(),
            ExecConfig::default().with_predicate_cache(true),
        );
        session.run(&plan).unwrap();
        b.iter(|| std::hint::black_box(session.run(&plan).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
