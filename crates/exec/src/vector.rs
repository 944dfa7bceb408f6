//! Column-major batches and the vectorized operators that consume them:
//! the filter/project chain, the hash-join build/probe, and the grouped
//! aggregator.
//!
//! The scan spine streams [`Batch`]es: a shared micro-partition plus a
//! [`SelVec`] naming the rows of one fixed-size window
//! ([`crate::ExecConfig::batch_rows`]) that survived the scan predicate.
//! Downstream filter/project stages are compiled once per query into a
//! [`BatchChain`], which refines the selection with the predicate kernels
//! of `snowprune_expr::kernel` and materializes row tuples **late** — only
//! at operator boundaries that genuinely need rows (top-k heap inserts,
//! join matches, aggregate group keys, the output sink).
//!
//! Joins and aggregations are batch-native too: [`JoinBuild`] keys its
//! hash table on column slices and probes arriving batches without
//! materializing non-matching rows, and [`BatchAggregator`] folds
//! `SelVec`-selected column windows straight into per-group
//! [`AggState`]s through typed monomorphized update
//! loops (`agg::fold_chunk_grouped`). Both fold inputs in scan
//! order, so their results are bit-identical to the row-at-a-time
//! fallback operators they replace.
//!
//! Because every batch carries its partition (`batch.part.meta.id`),
//! partition provenance for the §8.2 predicate cache flows per batch: a
//! partition is recorded as contributing as soon as any of its batches
//! yields a selected row, without per-row bookkeeping — and, since PR 7,
//! that provenance survives join probes and aggregations instead of being
//! dropped at the first row-fallback boundary.

use std::collections::HashMap;
use std::sync::Arc;

use snowprune_core::join::BloomFilter;
use snowprune_expr::kernel;
use snowprune_expr::Expr;
use snowprune_plan::AggFunc;
use snowprune_storage::{MicroPartition, Schema};
use snowprune_types::{Result, SelVec, Value};

use crate::agg::{finish_groups, fold_chunk_grouped, AggState};

/// One unit of columnar data flow: the rows of one window of one loaded
/// micro-partition that passed the scan predicate. Row indices in `sel`
/// are absolute partition row numbers, so consumers can read column
/// values (or materialize whole rows) straight off `part`. The partition
/// is held by `Arc`, so batches are cheap to clone and can cross worker
/// channels whole — the batch-native join and aggregation paths ship
/// refined batches from pool workers to the driver instead of
/// materialized row tuples.
pub struct Batch {
    /// The loaded partition this window belongs to.
    pub part: Arc<MicroPartition>,
    /// Qualifying rows of this window, ascending.
    pub sel: SelVec,
}

impl Batch {
    /// Number of selected rows in this batch.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when no rows of this window qualified.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }
}

/// A compiled filter/project pipeline applied to every batch of one scan.
///
/// Built once per query from the plan's chain of `Filter`/`Project` nodes
/// above a scan: projections compose into a single output-column →
/// partition-column `map`, and each filter is rewritten through the
/// mapping in force where it appeared ([`Expr::remap_columns`]), so all
/// filters evaluate directly against partition columns. Applying the
/// chain is then pure selection refinement — no intermediate row tuples —
/// and materialization gathers only the final output columns.
#[derive(Clone, Debug)]
pub struct BatchChain {
    /// Filters in plan order, column indices remapped to partition layout.
    filters: Vec<Expr>,
    /// Output column `i` reads partition column `map[i]`.
    map: Vec<usize>,
}

impl BatchChain {
    /// The empty chain over a scan of `width` columns: no filters, output
    /// columns are the scan columns.
    pub fn identity(width: usize) -> BatchChain {
        BatchChain {
            filters: Vec::new(),
            map: (0..width).collect(),
        }
    }

    /// Append a filter stage. `expr` must be bound against the chain's
    /// *current* output schema; it is remapped to partition columns here.
    pub fn push_filter(&mut self, expr: &Expr) {
        self.filters.push(expr.remap_columns(&self.map));
    }

    /// Append a projection stage selecting current-output columns `cols`.
    pub fn push_project(&mut self, cols: &[usize]) {
        self.map = cols.iter().map(|&c| self.map[c]).collect();
    }

    /// The partition column backing output column `out`. Batch-native
    /// consumers (join key reads, aggregate column folds) use this to
    /// reach through the projection map and read values straight off the
    /// partition's column slices.
    pub fn column_of(&self, out: usize) -> usize {
        self.map[out]
    }

    /// Refine `sel` in place by every filter stage, in plan order. Rows
    /// kept are exactly those on which each filter evaluates to SQL TRUE —
    /// identical to row-at-a-time chain evaluation, without materializing
    /// any intermediate tuple.
    pub fn refine(&self, part: &MicroPartition, sel: &mut SelVec) {
        for f in &self.filters {
            if sel.is_empty() {
                return;
            }
            kernel::refine(f, part, sel);
        }
    }

    /// Late materialization: gather output row `i` (an absolute partition
    /// row index) through the projection map.
    pub fn materialize(&self, part: &MicroPartition, i: usize) -> Vec<Value> {
        self.map
            .iter()
            .map(|&c| part.column(c).value_at(i))
            .collect()
    }

    /// Apply the full chain to a batch: refine its selection, then gather
    /// the surviving rows as output tuples.
    pub fn apply(&self, batch: &Batch) -> Vec<Vec<Value>> {
        let mut sel = batch.sel.clone();
        self.refine(&batch.part, &mut sel);
        let mut rows = Vec::with_capacity(sel.len());
        rows.extend(sel.iter().map(|i| self.materialize(&batch.part, i)));
        rows
    }
}

/// The build side of a batch-native hash join: materialized build rows
/// plus a hash index keyed on the join-key values, fed either row-at-a-
/// time (fallback shapes) or batch-at-a-time with keys read directly off
/// the key column's slices. NULL keys are kept in `keys` (the §6 join
/// summary sees every build value) but never indexed — an equi-join
/// compares `UNKNOWN` against NULL, so NULL build keys can match nothing.
#[derive(Default)]
pub struct JoinBuild {
    rows: Vec<Vec<Value>>,
    keys: Vec<Value>,
    index: HashMap<Value, Vec<usize>>,
}

impl JoinBuild {
    /// An empty build table.
    pub fn new() -> JoinBuild {
        JoinBuild::default()
    }

    /// Feed one materialized build row with its key value.
    pub fn push_row(&mut self, row: Vec<Value>, key: Value) {
        if !key.is_null() {
            self.index
                .entry(key.clone())
                .or_default()
                .push(self.rows.len());
        }
        self.keys.push(key);
        self.rows.push(row);
    }

    /// Feed one refined batch: rows materialize through `chain`, and the
    /// key of each selected row is read straight off the partition column
    /// backing chain-output column `key_out`.
    pub fn push_batch(&mut self, batch: &Batch, chain: &BatchChain, key_out: usize) {
        let kcol = batch.part.column(chain.column_of(key_out));
        for i in batch.sel.iter() {
            let row = chain.materialize(&batch.part, i);
            self.push_row(row, kcol.value_at(i));
        }
    }

    /// Every build key in build-row order (NULLs included), for the §6
    /// join summary and the row-level Bloom filter.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// The materialized build rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// True when no build key is indexed (probing cannot match anything).
    pub fn no_matches_possible(&self) -> bool {
        self.index.is_empty()
    }

    /// Build-row indices matching `key`, for row-at-a-time probing (the
    /// fallback path). A NULL key matches nothing — NULL build keys are
    /// never indexed, so the Kleene `UNKNOWN = UNKNOWN` case needs no
    /// special-casing at call sites.
    pub fn matches(&self, key: &Value) -> Option<&[usize]> {
        self.index.get(key).map(|v| v.as_slice())
    }

    /// Probe one refined batch against the build index. NULL-key probe
    /// rows are dropped first by the validity kernel
    /// ([`kernel::refine_valid`], Kleene `UNKNOWN` never qualifies), then
    /// each surviving key — read off the partition column backing
    /// `key_col` — passes the optional Bloom filter before the hash
    /// lookup. `on_match(i, build_rows)` receives the probe row index and
    /// the matching build-row indices; non-matching probe rows are never
    /// materialized. Returns the number of rows skipped by the Bloom
    /// filter.
    pub fn probe_batch(
        &self,
        batch: &Batch,
        key_col: usize,
        bloom: Option<&BloomFilter>,
        mut on_match: impl FnMut(usize, &[usize]),
    ) -> u64 {
        let mut sel = batch.sel.clone();
        kernel::refine_valid(&batch.part, key_col, &mut sel);
        let kcol = batch.part.column(key_col);
        let mut bloom_skips = 0u64;
        for i in sel.iter() {
            let key = kcol.value_at(i);
            if let Some(bf) = bloom {
                if !bf.might_contain(&key) {
                    bloom_skips += 1;
                    continue;
                }
            }
            if let Some(matches) = self.index.get(&key) {
                on_match(i, matches);
            }
        }
        bloom_skips
    }
}

/// Batch-native hash aggregation: group keys gather per selected row, and
/// each aggregate folds its column's `SelVec`-selected window into the
/// per-group [`AggState`]s through the typed loops of
/// `fold_chunk_grouped`. Feeding batches in scan order reproduces the
/// row-at-a-time [`aggregate_rows`](crate::agg::aggregate_rows) fold
/// order exactly — per (group, aggregate) state, the sequence of folded
/// values is identical — so results (including float accumulation) are
/// bit-identical to the fallback path.
pub struct BatchAggregator {
    group_cols: Vec<usize>,
    agg_cols: Vec<Option<usize>>,
    groups: HashMap<Vec<Value>, usize>,
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
    proto: Vec<AggState>,
    /// Scratch: selected row indices of the current batch.
    rows_scratch: Vec<usize>,
    /// Scratch: group id per selected row, parallel to `rows_scratch`.
    gids_scratch: Vec<usize>,
}

impl BatchAggregator {
    /// Compile an aggregator over a chain: group and aggregate columns
    /// resolve through the chain's projection map to partition columns,
    /// and each `SUM` picks its accumulator from the chain-output field
    /// type exactly as the row path does.
    pub fn new(
        chain: &BatchChain,
        output_schema: &Schema,
        group_by: &[String],
        aggs: &[AggFunc],
    ) -> Result<BatchAggregator> {
        let group_cols: Vec<usize> = group_by
            .iter()
            .map(|g| Ok(chain.column_of(output_schema.index_of(g)?)))
            .collect::<Result<_>>()?;
        let mut agg_cols = Vec::with_capacity(aggs.len());
        let mut proto = Vec::with_capacity(aggs.len());
        for a in aggs {
            let out = a
                .input_column()
                .map(|c| output_schema.index_of(c))
                .transpose()?;
            let is_float = out
                .map(|o| output_schema.fields()[o].ty == snowprune_types::ScalarType::Float)
                .unwrap_or(false);
            agg_cols.push(out.map(|o| chain.column_of(o)));
            proto.push(AggState::new(a, is_float));
        }
        Ok(BatchAggregator {
            group_cols,
            agg_cols,
            groups: HashMap::new(),
            keys: Vec::new(),
            states: Vec::new(),
            proto,
            rows_scratch: Vec::new(),
            gids_scratch: Vec::new(),
        })
    }

    /// Fold one refined batch. Group keys gather row-at-a-time (they are
    /// the only per-row materialization left); aggregate updates then run
    /// column-at-a-time through the typed kernels.
    pub fn update(&mut self, batch: &Batch) {
        if batch.is_empty() {
            return;
        }
        self.rows_scratch.clear();
        self.rows_scratch.extend(batch.sel.iter());
        self.gids_scratch.clear();
        let gchunks: Vec<_> = self
            .group_cols
            .iter()
            .map(|&c| batch.part.column(c))
            .collect();
        for &i in &self.rows_scratch {
            let key: Vec<Value> = gchunks.iter().map(|ch| ch.value_at(i)).collect();
            let gid = match self.groups.get(&key) {
                Some(&g) => g,
                None => {
                    let g = self.states.len();
                    self.groups.insert(key.clone(), g);
                    self.keys.push(key);
                    self.states.push(self.proto.clone());
                    g
                }
            };
            self.gids_scratch.push(gid);
        }
        for (slot, col) in self.agg_cols.iter().enumerate() {
            let chunk = col.map(|c| batch.part.column(c));
            fold_chunk_grouped(
                &mut self.states,
                slot,
                &self.rows_scratch,
                &self.gids_scratch,
                chunk,
            );
        }
    }

    /// Finalize every group into output rows (group key columns followed
    /// by aggregate values), in the same deterministic order as
    /// [`aggregate_rows`](crate::agg::aggregate_rows).
    pub fn finish(self) -> Vec<Vec<Value>> {
        finish_groups(self.keys.into_iter().zip(self.states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::*;
    use snowprune_storage::{ColumnBuilder, Field, Schema};
    use snowprune_types::ScalarType;

    fn part() -> (Schema, Arc<MicroPartition>) {
        let schema = Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("b", ScalarType::Int),
            Field::new("c", ScalarType::Int),
        ]);
        let mut cols: Vec<ColumnBuilder> = (0..3)
            .map(|_| ColumnBuilder::new(ScalarType::Int))
            .collect();
        for i in 0..10i64 {
            cols[0].push(Value::Int(i));
            cols[1].push(Value::Int(i * 10));
            cols[2].push(Value::Int(i % 3));
        }
        let chunks = cols.into_iter().map(|c| c.finish()).collect();
        (
            schema.clone(),
            Arc::new(MicroPartition::from_chunks(7, &schema, chunks)),
        )
    }

    #[test]
    fn project_then_filter_sees_remapped_columns() {
        let (_, p) = part();
        let mut chain = BatchChain::identity(3);
        // Project [c, b]; then filter on output column 1 (= partition b).
        chain.push_project(&[2, 1]);
        let post_schema = Schema::new(vec![
            Field::new("c", ScalarType::Int),
            Field::new("b", ScalarType::Int),
        ]);
        chain.push_filter(&col("b").ge(lit(50i64)).bind(&post_schema).unwrap());
        assert!(!chain.filters.is_empty());
        assert_eq!(chain.map.len(), 2);
        assert_eq!(chain.column_of(1), 1);
        assert_eq!(chain.column_of(0), 2);

        let batch = Batch {
            part: Arc::clone(&p),
            sel: SelVec::All(0..10),
        };
        let rows = chain.apply(&batch);
        // Rows 5..10 survive; output is [c, b].
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], vec![Value::Int(5 % 3), Value::Int(50)]);
        assert_eq!(rows[4], vec![Value::Int(9 % 3), Value::Int(90)]);
    }

    #[test]
    fn identity_chain_materializes_rows_verbatim() {
        let (_, p) = part();
        let chain = BatchChain::identity(3);
        let batch = Batch {
            part: Arc::clone(&p),
            sel: SelVec::Rows(vec![2, 8]),
        };
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let rows = chain.apply(&batch);
        assert_eq!(rows, vec![p.row(2), p.row(8)]);
    }

    #[test]
    fn successive_projections_compose() {
        let (_, p) = part();
        let mut chain = BatchChain::identity(3);
        chain.push_project(&[2, 0, 1]); // [c, a, b]
        chain.push_project(&[2, 0]); // [b, c]
        assert_eq!(
            chain.materialize(&p, 4),
            vec![Value::Int(40), Value::Int(1)]
        );
    }

    #[test]
    fn join_build_probe_skips_nulls_and_misses() {
        // Build keyed on c (values 0,1,2); probe the same partition on c.
        let (_, p) = part();
        let chain = BatchChain::identity(3);
        let mut build = JoinBuild::new();
        build.push_row(vec![Value::Int(100)], Value::Int(1));
        build.push_row(vec![Value::Int(200)], Value::Null);
        build.push_row(vec![Value::Int(300)], Value::Int(1));
        assert_eq!(build.keys().len(), 3);
        assert!(!build.no_matches_possible());
        let batch = Batch {
            part: Arc::clone(&p),
            sel: SelVec::All(0..10),
        };
        let mut hits: Vec<(usize, Vec<usize>)> = Vec::new();
        let skips = build.probe_batch(&batch, chain.column_of(2), None, |i, m| {
            hits.push((i, m.to_vec()));
        });
        assert_eq!(skips, 0);
        // c == 1 at rows 1, 4, 7; each matches build rows 0 and 2 (the
        // NULL build key is never indexed).
        assert_eq!(
            hits,
            vec![(1, vec![0, 2]), (4, vec![0, 2]), (7, vec![0, 2])]
        );
    }

    #[test]
    fn batch_aggregator_matches_row_fold() {
        let (schema, p) = part();
        let chain = BatchChain::identity(3);
        let group_by = vec!["c".to_owned()];
        let aggs = vec![
            AggFunc::CountStar,
            AggFunc::Sum("b".into()),
            AggFunc::Min("a".into()),
            AggFunc::Max("b".into()),
            AggFunc::Avg("b".into()),
        ];
        let mut agg = BatchAggregator::new(&chain, &schema, &group_by, &aggs).unwrap();
        // Feed in two windows, as the scan would.
        for sel in [SelVec::All(0..6), SelVec::All(6..10)] {
            agg.update(&Batch {
                part: Arc::clone(&p),
                sel,
            });
        }
        let out = agg.finish();
        let rows: Vec<Vec<Value>> = (0..10i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10), Value::Int(i % 3)])
            .collect();
        let expect = crate::agg::aggregate_rows(&schema, rows, &group_by, &aggs, None).unwrap();
        // aggregate_rows keys output by the full input row shape: group
        // key first, then aggregate columns — identical layouts.
        assert_eq!(out, expect);
    }
}
