//! Filter pruning (§3): min/max pruning over a *pruning tree* with
//! adaptive filter reordering, filter pruning cutoff, and a compile-time /
//! runtime split.
//!
//! The predicate's boolean structure becomes a tree (Figure 3): predicates
//! are the leaves, `∧`/`∨` the inner nodes. Per node, the pruner tracks
//! pruning ratio and evaluation cost; children of a node may be freely
//! reordered, and leaves *below an `∧`* may be disabled ("cutoff") when
//! they are slow or ineffective. Disabling a leaf below an `∨` would render
//! the whole disjunction useless, so it is never allowed (§3.2).
//!
//! Evaluation cost is *modelled*, not measured: each leaf charges a fixed
//! [`LeafPruner::cost_ns`] per evaluation. Reordering, cutoff and the
//! compile-time budget never read the clock, so a scan set is a pure
//! function of (predicate, metadata, config).
//!
//! The cutoff rule bounds regret. A leaf is cut off once its modelled cost
//! so far exceeds what it has saved plus one partition scan:
//! `cost_ns > (pruned + 1) × scan_cost_ns_per_partition`. The two mistakes
//! are asymmetric: a leaf wrongly kept costs nanoseconds per partition, a
//! leaf wrongly disabled costs a partition load for every partition it
//! would have pruned. So a cheap leaf that has pruned nothing yet (the
//! upper bound of a clustered range, before the range starts) is kept far
//! past the point where its ratio alone would condemn it, while a slow
//! pruner (a leaf whose modelled [`LeafPruner::cost_ns`] is high) is still
//! cut off at the first check.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use std::borrow::Borrow;

use snowprune_expr::{prune_eval, Expr};
use snowprune_storage::PartitionMeta;
use snowprune_types::{MatchClass, Verdict, ZoneMap};

use crate::scan_set::{ScanEntry, ScanSet};

/// Tuning knobs for adaptive reordering and cutoff.
#[derive(Clone, Debug)]
pub struct FilterPruneConfig {
    /// Re-rank children every N partitions.
    pub adapt_interval: u64,
    /// Leaves need this many evaluations before cutoff decisions.
    pub cutoff_min_evals: u64,
    /// Modelled cost of scanning one partition at execution time, in
    /// nanoseconds: the value of one pruned partition. The cutoff rule
    /// (§3.2's continue-vs-stop comparison) disables a leaf once its total
    /// modelled cost exceeds `(pruned + 1) × scan_cost`, i.e. once it has
    /// cost more than it saved plus one partition scan.
    pub scan_cost_ns_per_partition: u64,
    /// Enable adaptive reordering.
    pub reorder: bool,
    /// Enable pruning cutoff.
    pub cutoff: bool,
    /// Compile-time budget in modelled nanoseconds: once one `prune` call
    /// has charged this much leaf cost, pruning of the remaining partitions
    /// is deferred to the (parallel) execution phase. `u64::MAX` =
    /// unbounded; 0 defers every partition.
    pub compile_time_budget_ns: u64,
}

/// Modelled cost of one leaf evaluation against a partition's zone maps,
/// in nanoseconds (the order of one `prune_eval` of a range leaf).
const DEFAULT_LEAF_COST_NS: u64 = 100;

impl Default for FilterPruneConfig {
    fn default() -> Self {
        FilterPruneConfig {
            adapt_interval: 64,
            cutoff_min_evals: 64,
            scan_cost_ns_per_partition: 2_000_000,
            reorder: true,
            cutoff: true,
            compile_time_budget_ns: u64::MAX,
        }
    }
}

/// Accumulated statistics for one pruning-tree node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Number of zone-map evaluations of this node.
    pub evals: u64,
    /// Evaluations whose verdict allowed pruning (`!may_true`).
    pub pruned: u64,
    /// Total modelled evaluation cost, nanoseconds.
    pub cost_ns: u64,
}

impl NodeStats {
    /// Fraction of evaluations that pruned.
    pub fn prune_ratio(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.pruned as f64 / self.evals as f64
        }
    }

    /// Mean evaluation cost in nanoseconds.
    pub fn cost_per_eval_ns(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.cost_ns as f64 / self.evals as f64
        }
    }
}

/// A node in the pruning tree.
#[derive(Clone, Debug)]
pub enum PruneNode {
    /// A single predicate evaluated against zone maps.
    Leaf(LeafPruner),
    /// Conjunction: verdicts combine with `Verdict::and`.
    And(Vec<PruneNode>),
    /// Disjunction: verdicts combine with `Verdict::or`.
    Or(Vec<PruneNode>),
}

/// A leaf pruner: one predicate evaluated against zone maps.
#[derive(Clone, Debug)]
pub struct LeafPruner {
    /// The leaf predicate.
    pub expr: Expr,
    /// Adaptive statistics driving reordering and cutoff.
    pub stats: NodeStats,
    /// Cutoff state; a disabled leaf behaves as "might match anything".
    pub enabled: bool,
    /// Whether every ancestor is an AND node (cutoff precondition).
    pub cutoff_allowed: bool,
    /// Modelled cost charged per evaluation, nanoseconds (100; the tests
    /// raise it to model a slow pruner).
    pub cost_ns: u64,
}

impl PruneNode {
    /// Mirror the predicate's AND/OR structure; other nodes become leaves.
    fn build(expr: &Expr, under_or: bool) -> PruneNode {
        match expr {
            Expr::And(xs) => PruneNode::And(xs.iter().map(|x| Self::build(x, under_or)).collect()),
            Expr::Or(xs) => PruneNode::Or(xs.iter().map(|x| Self::build(x, true)).collect()),
            leaf => PruneNode::Leaf(LeafPruner {
                expr: leaf.clone(),
                stats: NodeStats::default(),
                enabled: true,
                cutoff_allowed: !under_or,
                cost_ns: DEFAULT_LEAF_COST_NS,
            }),
        }
    }

    /// Evaluate this node against one partition's zone maps, adding the
    /// modelled cost of every leaf evaluated to `charged`.
    fn evaluate(&mut self, meta: &[ZoneMap], charged: &mut u64) -> Verdict {
        match self {
            PruneNode::Leaf(leaf) => {
                if !leaf.enabled {
                    return Verdict::TOP;
                }
                let v = prune_eval(&leaf.expr, meta);
                leaf.stats.evals += 1;
                leaf.stats.cost_ns += leaf.cost_ns;
                *charged += leaf.cost_ns;
                if v.prunable() {
                    leaf.stats.pruned += 1;
                }
                v
            }
            PruneNode::And(children) => {
                let mut acc = Verdict::ALWAYS_TRUE;
                for c in children.iter_mut() {
                    acc = acc.and(c.evaluate(meta, charged));
                    if !acc.may_true {
                        // Short-circuit: the partition is already prunable
                        // and `and` can only keep may_true false.
                        break;
                    }
                }
                acc
            }
            PruneNode::Or(children) => {
                let mut acc = Verdict::ALWAYS_FALSE;
                for c in children.iter_mut() {
                    acc = acc.or(c.evaluate(meta, charged));
                    if acc.all_true {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Locally reorder children by the §3.2 heuristics.
    fn reorder(&mut self) {
        match self {
            PruneNode::Leaf(_) => {}
            PruneNode::And(children) => {
                // Prioritize fast, highly selective filters: ascending
                // cost-per-pruned-partition.
                children.sort_by(|a, b| {
                    rank_and(a)
                        .partial_cmp(&rank_and(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for c in children.iter_mut() {
                    c.reorder();
                }
            }
            PruneNode::Or(children) => {
                // Prioritize fast filters with low selectivity (likely to
                // short-circuit the disjunction by passing the partition).
                children.sort_by(|a, b| {
                    rank_or(a)
                        .partial_cmp(&rank_or(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for c in children.iter_mut() {
                    c.reorder();
                }
            }
        }
    }

    fn aggregate_stats(&self) -> NodeStats {
        match self {
            PruneNode::Leaf(l) => l.stats,
            PruneNode::And(cs) | PruneNode::Or(cs) => {
                let mut acc = NodeStats::default();
                for c in cs {
                    let s = c.aggregate_stats();
                    acc.evals = acc.evals.max(s.evals);
                    acc.pruned += s.pruned;
                    acc.cost_ns += s.cost_ns;
                }
                acc
            }
        }
    }

    /// Apply the cutoff rule to eligible leaves.
    fn apply_cutoff(&mut self, cfg: &FilterPruneConfig) {
        match self {
            PruneNode::Leaf(leaf) => {
                if !leaf.enabled || !leaf.cutoff_allowed || leaf.stats.evals < cfg.cutoff_min_evals
                {
                    return;
                }
                // Regret bound: disable once the leaf has cost more than
                // the scans it saved plus one more.
                let saved_plus_one =
                    (leaf.stats.pruned + 1).saturating_mul(cfg.scan_cost_ns_per_partition);
                if leaf.stats.cost_ns > saved_plus_one {
                    leaf.enabled = false;
                }
            }
            PruneNode::And(cs) => {
                for c in cs {
                    c.apply_cutoff(cfg);
                }
            }
            // §3.2: "only filters below an ∧-expression may be removed";
            // every leaf with an OR ancestor has `cutoff_allowed = false`.
            PruneNode::Or(_) => {}
        }
    }

    fn for_each_leaf(&self, f: &mut impl FnMut(&LeafPruner)) {
        match self {
            PruneNode::Leaf(l) => f(l),
            PruneNode::And(cs) | PruneNode::Or(cs) => {
                for c in cs {
                    c.for_each_leaf(f);
                }
            }
        }
    }

    #[cfg(test)]
    fn for_each_leaf_mut(&mut self, f: &mut impl FnMut(&mut LeafPruner)) {
        match self {
            PruneNode::Leaf(l) => f(l),
            PruneNode::And(cs) | PruneNode::Or(cs) => {
                for c in cs {
                    c.for_each_leaf_mut(f);
                }
            }
        }
    }
}

fn rank_and(n: &PruneNode) -> f64 {
    let s = n.aggregate_stats();
    if s.evals == 0 {
        return 0.0; // unevaluated nodes keep their heuristic position
    }
    s.cost_per_eval_ns() / s.prune_ratio().max(1e-6)
}

fn rank_or(n: &PruneNode) -> f64 {
    let s = n.aggregate_stats();
    if s.evals == 0 {
        return 0.0;
    }
    let pass_ratio = 1.0 - s.prune_ratio();
    s.cost_per_eval_ns() / pass_ratio.max(1e-6)
}

/// Result of compile-time filter pruning for one table scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterPruneResult {
    /// Surviving partitions, annotated with match classes.
    pub scan_set: ScanSet,
    /// Partition count before filter pruning.
    pub partitions_before: usize,
    /// Partitions removed at compile time.
    pub pruned: usize,
    /// Partitions classified fully-matching (§4.1).
    pub fully_matching: usize,
    /// Partitions whose pruning was deferred past the compile-time budget;
    /// they are the last `deferred` scan-set entries and must be
    /// re-checked at runtime.
    pub deferred: usize,
    /// Leaves disabled by cutoff.
    pub disabled_leaves: usize,
}

impl FilterPruneResult {
    /// Fraction of the original partitions removed.
    pub fn pruning_ratio(&self) -> f64 {
        crate::scan_set::pruning_ratio(self.partitions_before, self.scan_set.len())
    }
}

/// The filter pruner: owns the pruning tree and its adaptive state.
#[derive(Clone, Debug)]
pub struct FilterPruner {
    tree: PruneNode,
    cfg: FilterPruneConfig,
    evaluated: u64,
    /// Modelled leaf cost charged over the pruner's lifetime, nanoseconds.
    charged_ns: u64,
}

impl FilterPruner {
    /// Build from a bound predicate.
    pub fn new(predicate: &Expr, cfg: FilterPruneConfig) -> Self {
        FilterPruner {
            tree: PruneNode::build(predicate, false),
            cfg,
            evaluated: 0,
            charged_ns: 0,
        }
    }

    /// Evaluate one partition (runtime pruning entry point).
    pub fn evaluate(&mut self, zone_maps: &[ZoneMap]) -> Verdict {
        self.evaluated += 1;
        let v = self.tree.evaluate(zone_maps, &mut self.charged_ns);
        if self.evaluated.is_multiple_of(self.cfg.adapt_interval) {
            if self.cfg.reorder {
                self.tree.reorder();
            }
            if self.cfg.cutoff {
                self.tree.apply_cutoff(&self.cfg);
            }
        }
        v
    }

    /// Classify one partition.
    pub fn classify(&mut self, meta: &PartitionMeta) -> MatchClass {
        self.evaluate(&meta.zone_maps).classify(meta.row_count)
    }

    /// Compile-time pruning over a whole table's metadata, respecting the
    /// compile-time budget (§3.2: expensive pruning is deferred to the
    /// highly parallel execution phase). Once this call has charged
    /// `compile_time_budget_ns` of modelled leaf cost, every remaining
    /// partition is deferred, so the deferred entries are a suffix of the
    /// scan set. Takes owned or borrowed metadata (`&[PartitionMeta]`, or
    /// the `Vec<&PartitionMeta>` a table snapshot hands out).
    pub fn prune<M: Borrow<PartitionMeta>>(&mut self, metas: &[M]) -> FilterPruneResult {
        let before = metas.len();
        let charged_before = self.charged_ns;
        let mut entries = Vec::with_capacity(metas.len());
        let mut pruned = 0usize;
        let mut fully = 0usize;
        let mut deferred = 0usize;
        for meta in metas {
            let meta: &PartitionMeta = meta.borrow();
            if self.charged_ns - charged_before >= self.cfg.compile_time_budget_ns {
                deferred += 1;
                entries.push(ScanEntry {
                    id: meta.id,
                    class: MatchClass::PartiallyMatching,
                    row_count: meta.row_count,
                    bytes: meta.bytes,
                });
                continue;
            }
            match self.classify(meta) {
                MatchClass::NotMatching => pruned += 1,
                class => {
                    if class == MatchClass::FullyMatching {
                        fully += 1;
                    }
                    entries.push(ScanEntry {
                        id: meta.id,
                        class,
                        row_count: meta.row_count,
                        bytes: meta.bytes,
                    });
                }
            }
        }
        FilterPruneResult {
            scan_set: ScanSet { entries },
            partitions_before: before,
            pruned,
            fully_matching: fully,
            deferred,
            disabled_leaves: self.disabled_leaves(),
        }
    }

    /// Number of leaves currently disabled by the pruning cutoff.
    pub fn disabled_leaves(&self) -> usize {
        let mut n = 0;
        self.tree.for_each_leaf(&mut |l| {
            if !l.enabled {
                n += 1;
            }
        });
        n
    }
}

/// Hooks the tests use to model slow leaves and to observe reordering.
#[cfg(test)]
impl FilterPruner {
    /// Override the modelled per-evaluation cost of the `idx`-th leaf
    /// (pre-order), e.g. to model a slow UDF-style pruner.
    fn set_leaf_cost(&mut self, idx: usize, cost_ns: u64) {
        let mut i = 0;
        self.tree.for_each_leaf_mut(&mut |l| {
            if i == idx {
                l.cost_ns = cost_ns;
            }
            i += 1;
        });
    }

    /// Pre-order leaf predicate order.
    fn leaf_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.tree
            .for_each_leaf(&mut |l| out.push(l.expr.to_string()));
        out
    }

    /// Per-leaf statistics, in pre-order.
    fn leaf_stats(&self) -> Vec<NodeStats> {
        let mut out = Vec::new();
        self.tree.for_each_leaf(&mut |l| out.push(l.stats));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Field, Layout, Schema, TableBuilder};
    use snowprune_types::{ScalarType, Value};

    fn table() -> snowprune_storage::Table {
        let schema = Schema::new(vec![
            Field::new("x", ScalarType::Int),
            Field::new("y", ScalarType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(100)
            .layout(Layout::ClusterBy(vec!["x".into()]));
        for i in 0..10_000i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i % 97)]);
        }
        b.build()
    }

    fn bound(e: snowprune_expr::Expr, t: &snowprune_storage::Table) -> snowprune_expr::Expr {
        e.bind(t.schema()).unwrap()
    }

    #[test]
    fn prunes_clustered_range_predicate() {
        let t = table();
        // x in [0, 999]: 10 of 100 partitions qualify.
        let pred = bound(col("x").lt(lit(1000i64)), &t);
        let mut pruner = FilterPruner::new(&pred, FilterPruneConfig::default());
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.scan_set.len(), 10);
        assert_eq!(res.pruned, 90);
        assert!((res.pruning_ratio() - 0.9).abs() < 1e-9);
        // Every surviving partition is fully matching (clustered layout,
        // clean boundary).
        assert_eq!(res.fully_matching, 10);
    }

    #[test]
    fn unclustered_column_prunes_nothing() {
        let t = table();
        // y cycles 0..97 in every partition: no partition can be excluded.
        let pred = bound(col("y").eq(lit(5i64)), &t);
        let mut pruner = FilterPruner::new(&pred, FilterPruneConfig::default());
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.pruned, 0);
        assert_eq!(res.scan_set.len(), 100);
        assert_eq!(res.fully_matching, 0);
    }

    #[test]
    fn reordering_moves_effective_cheap_filter_first() {
        let t = table();
        // Leaf 0: ineffective (y never prunes); leaf 1: highly effective.
        let pred = bound(col("y").ge(lit(0i64)).and(col("x").lt(lit(500i64))), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.adapt_interval = 16;
        cfg.cutoff = false;
        let mut pruner = FilterPruner::new(&pred, cfg);
        // Make the ineffective leaf slow, too.
        pruner.set_leaf_cost(0, 40_000);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let before = pruner.leaf_order();
        assert!(before[0].contains('y'), "initial order keeps syntax order");
        pruner.prune(&metas);
        let after = pruner.leaf_order();
        assert!(
            after[0].contains('x'),
            "effective cheap filter should be first after adaptation: {after:?}"
        );
    }

    #[test]
    fn cutoff_disables_slow_ineffective_leaf_under_and() {
        let t = table();
        let pred = bound(col("y").ge(lit(0i64)).and(col("x").lt(lit(500i64))), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.adapt_interval = 8;
        cfg.cutoff_min_evals = 8;
        cfg.scan_cost_ns_per_partition = 10_000;
        let mut pruner = FilterPruner::new(&pred, cfg);
        pruner.set_leaf_cost(0, 50_000); // slow and never prunes
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.disabled_leaves, 1);
        // Pruning still works through the other leaf.
        assert_eq!(res.scan_set.len(), 5);
    }

    #[test]
    fn cutoff_never_disables_under_or() {
        let t = table();
        let pred = bound(col("y").ge(lit(0i64)).or(col("x").lt(lit(500i64))), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.adapt_interval = 8;
        cfg.cutoff_min_evals = 8;
        cfg.scan_cost_ns_per_partition = 1; // would disable anything eligible
        let mut pruner = FilterPruner::new(&pred, cfg);
        pruner.set_leaf_cost(0, 50_000);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.disabled_leaves, 0, "OR leaves must never be cut off");
        // An always-true disjunct means nothing is pruned, and that is correct.
        assert_eq!(res.pruned, 0);
    }

    #[test]
    fn disabled_leaf_is_conservative() {
        let t = table();
        let pred = bound(col("x").lt(lit(500i64)), &t);
        let mut pruner = FilterPruner::new(&pred, FilterPruneConfig::default());
        // Manually disable the only leaf: everything must survive.
        let mut i = 0;
        pruner.tree.for_each_leaf_mut(&mut |l| {
            l.enabled = false;
            i += 1;
        });
        assert_eq!(i, 1);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.pruned, 0);
        assert_eq!(res.scan_set.len(), 100);
    }

    #[test]
    fn compile_time_budget_defers() {
        let t = table();
        let pred = bound(col("x").lt(lit(500i64)), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.compile_time_budget_ns = 0; // everything deferred
        let mut pruner = FilterPruner::new(&pred, cfg);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.deferred, 100);
        assert_eq!(
            res.scan_set.len(),
            100,
            "deferred partitions stay in the scan set"
        );
        assert_eq!(res.pruned, 0);
    }

    #[test]
    fn compile_time_budget_is_a_work_budget() {
        let t = table();
        let pred = bound(col("x").lt(lit(500i64)), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.compile_time_budget_ns = 20 * 250;
        let mut pruner = FilterPruner::new(&pred, cfg);
        pruner.set_leaf_cost(0, 250);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        // The first 20 partitions are classified (5 kept, 15 dropped); the
        // budget then defers exactly the last 80, as a suffix of the scan
        // set, which is what `CompiledScan::compile`'s `.rev().take(deferred)`
        // relies on.
        assert_eq!((res.pruned, res.deferred, res.scan_set.len()), (15, 80, 85));
        let tail = &res.scan_set.entries[res.scan_set.len() - res.deferred..];
        assert_eq!(
            tail.iter().map(|e| e.id).collect::<Vec<_>>(),
            (20..100).collect::<Vec<_>>()
        );
        assert!(tail
            .iter()
            .all(|e| e.class == MatchClass::PartiallyMatching));
    }

    #[test]
    fn prune_is_a_pure_function_of_its_inputs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = table();
        let pred = bound(
            col("y")
                .ge(lit(0i64))
                .and(col("x").lt(lit(5_000i64)))
                .and(col("x").ge(lit(1_000i64))),
            &t,
        );
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let run = || {
            let mut cfg = FilterPruneConfig::default();
            cfg.adapt_interval = 8;
            cfg.cutoff_min_evals = 8;
            let mut pruner = FilterPruner::new(&pred, cfg);
            let res = pruner.prune(&metas);
            (res, pruner.leaf_order(), pruner.leaf_stats())
        };
        let quiet = run();
        // The second run competes with one spinning thread per core: a
        // pruner that read the clock would see different costs.
        let stop = AtomicBool::new(false);
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
        let loaded = std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let out = run();
            stop.store(true, Ordering::Relaxed);
            out
        });
        assert_eq!(quiet.0, loaded.0);
        assert_eq!(quiet.1, loaded.1);
        assert_eq!(quiet.2, loaded.2);
    }

    #[test]
    fn cutoff_fires_exactly_when_cost_exceeds_savings_plus_one_scan() {
        let t = table();
        // x >= 500 prunes partitions 0–4, then nothing. At 150 ns per
        // evaluation and a 1 400 ns scan, its cost at the k-th adapt
        // boundary is 8·k·150 = 1 200·k ns against a bound of
        // (5 + 1) × 1 400 = 8 400 ns: equal at k = 7 (kept), exceeded at
        // k = 8 (cut off after 64 evaluations).
        let pred = bound(col("x").ge(lit(500i64)), &t);
        let mut cfg = FilterPruneConfig::default();
        cfg.adapt_interval = 8;
        cfg.cutoff_min_evals = 8;
        cfg.scan_cost_ns_per_partition = 1_400;
        let mut pruner = FilterPruner::new(&pred, cfg);
        pruner.set_leaf_cost(0, 150);
        let metas = t.metadata();
        let cut_at = metas
            .iter()
            .position(|m| {
                pruner.classify(m);
                pruner.disabled_leaves() == 1
            })
            .map(|i| i + 1);
        assert_eq!(cut_at, Some(64));
        let stats = pruner.leaf_stats()[0];
        assert_eq!((stats.evals, stats.pruned, stats.cost_ns), (64, 5, 9_600));
    }

    #[test]
    fn clustered_slice_cutoff_keeps_only_the_slice() {
        // Baseline reading 1: 800 partitions of 8 rows, ts = 10·row,
        // clustered on ts; the slice covers partitions 200–219.
        let schema = Schema::new(vec![Field::new("ts", ScalarType::Int)]);
        let mut b = TableBuilder::new("events", schema)
            .target_rows_per_partition(8)
            .layout(Layout::ClusterBy(vec!["ts".into()]));
        for row in 0..6_400i64 {
            b.push_row(vec![Value::Int(10 * row)]);
        }
        let t = b.build();
        let pred = bound(col("ts").between(lit(16_000i64), lit(17_590i64)), &t);
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        assert_eq!(metas.len(), 800);
        let prune = |cutoff: bool| {
            let mut cfg = FilterPruneConfig::default();
            cfg.cutoff = cutoff;
            FilterPruner::new(&pred, cfg).prune(&metas)
        };
        // Reorder moves `ts <= hi` to the front, where it prunes nothing
        // across the clustered prefix; cutting it off would load everything
        // from the slice to the end of the table. It stays, because 100 ns
        // leaf evaluations cannot add up to one 2 ms partition scan within
        // 800 partitions.
        for cutoff in [true, false] {
            let res = prune(cutoff);
            assert_eq!(res.disabled_leaves, 0, "cutoff: {cutoff}");
            assert_eq!(
                res.scan_set.ids(),
                (200..220).collect::<Vec<_>>(),
                "cutoff: {cutoff}"
            );
        }
    }

    #[test]
    fn or_of_ranges_prunes_only_outside_both() {
        let t = table();
        let pred = bound(col("x").lt(lit(300i64)).or(col("x").ge(lit(9_700i64))), &t);
        let mut pruner = FilterPruner::new(&pred, FilterPruneConfig::default());
        let metas: Vec<_> = t.metadata().into_iter().cloned().collect();
        let res = pruner.prune(&metas);
        assert_eq!(res.scan_set.len(), 6); // 3 at the bottom + 3 at the top
        assert_eq!(res.fully_matching, 6);
    }
}
