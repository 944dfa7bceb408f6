//! Filter pruning (§3): min/max pruning over a *pruning tree* with
//! adaptive filter reordering, filter pruning cutoff, and a compile-time /
//! runtime split.
//!
//! The predicate's boolean structure becomes a tree (Figure 3): predicates
//! are the leaves, `∧`/`∨` the inner nodes. Per node, the pruner tracks
//! pruning ratio and evaluation time; children of a node may be freely
//! reordered, and leaves *below an `∧`* may be disabled ("cutoff") when
//! they are slow or ineffective. Disabling a leaf below an `∨` would render
//! the whole disjunction useless, so it is never allowed (§3.2).

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use std::borrow::Borrow;
use std::time::Instant;

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
    /// nanoseconds. The cutoff rule disables a pruner whose per-partition
    /// evaluation cost exceeds `pruning_ratio × scan_cost` (§3.2's
    /// continue-vs-stop comparison).
    pub scan_cost_ns_per_partition: u64,
    /// Enable adaptive reordering.
    pub reorder: bool,
    /// Enable pruning cutoff.
    pub cutoff: bool,
    /// Compile-time budget in nanoseconds; pruning of the remaining
    /// partitions is deferred to the (parallel) execution phase when the
    /// budget runs out. `u64::MAX` = unbounded.
    pub compile_time_budget_ns: u64,
}

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
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Number of zone-map evaluations of this node.
    pub evals: u64,
    /// Evaluations whose verdict allowed pruning (`!may_true`).
    pub pruned: u64,
    /// Total evaluation time, nanoseconds.
    pub nanos: u64,
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
            self.nanos as f64 / self.evals as f64
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
    /// Extra synthetic cost per evaluation (tests/benches model slow
    /// pruners, e.g. heavy UDF-style predicates, deterministically).
    pub synthetic_cost_ns: u64,
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
                synthetic_cost_ns: 0,
            }),
        }
    }

    /// Evaluate this node against one partition's zone maps.
    fn evaluate(&mut self, meta: &[ZoneMap]) -> Verdict {
        match self {
            PruneNode::Leaf(leaf) => {
                if !leaf.enabled {
                    return Verdict::TOP;
                }
                let start = Instant::now();
                let v = prune_eval(&leaf.expr, meta);
                let mut elapsed = start.elapsed().as_nanos() as u64;
                elapsed += leaf.synthetic_cost_ns;
                if leaf.synthetic_cost_ns > 0 {
                    busy_wait_ns(leaf.synthetic_cost_ns);
                }
                leaf.stats.evals += 1;
                leaf.stats.nanos += elapsed;
                if v.prunable() {
                    leaf.stats.pruned += 1;
                }
                v
            }
            PruneNode::And(children) => {
                let mut acc = Verdict::ALWAYS_TRUE;
                for c in children.iter_mut() {
                    acc = acc.and(c.evaluate(meta));
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
                    acc = acc.or(c.evaluate(meta));
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
                    acc.nanos += s.nanos;
                }
                acc
            }
        }
    }

    /// Apply the cutoff rule to eligible leaves.
    fn apply_cutoff(&mut self, cfg: &FilterPruneConfig, disabled: &mut usize) {
        match self {
            PruneNode::Leaf(leaf) => {
                if !leaf.enabled || !leaf.cutoff_allowed || leaf.stats.evals < cfg.cutoff_min_evals
                {
                    return;
                }
                // Continue-pruning cost per partition vs expected saving:
                // disable when eval cost exceeds ratio × scan cost.
                let saving = leaf.stats.prune_ratio() * cfg.scan_cost_ns_per_partition as f64;
                if leaf.stats.cost_per_eval_ns() > saving {
                    leaf.enabled = false;
                    *disabled += 1;
                }
            }
            PruneNode::And(cs) => {
                for c in cs {
                    c.apply_cutoff(cfg, disabled);
                }
            }
            // §3.2: "only filters below an ∧-expression may be removed" —
            // leaves under OR were marked cutoff_allowed=false at build
            // time, but we also skip descending for clarity.
            PruneNode::Or(cs) => {
                for c in cs {
                    if let PruneNode::And(_) = c {
                        // Nested ANDs under OR: their leaves have
                        // cutoff_allowed=false (an OR ancestor exists).
                        c.apply_cutoff(cfg, disabled);
                    }
                }
            }
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

fn busy_wait_ns(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Result of compile-time filter pruning for one table scan.
#[derive(Clone, Debug)]
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
    /// they appear in the scan set and must be re-checked at runtime.
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
}

impl FilterPruner {
    /// Build from a bound predicate.
    pub fn new(predicate: &Expr, cfg: FilterPruneConfig) -> Self {
        FilterPruner {
            tree: PruneNode::build(predicate, false),
            cfg,
            evaluated: 0,
        }
    }

    /// Inject a synthetic per-evaluation cost into the `idx`-th leaf
    /// (pre-order), for deterministic reorder/cutoff tests and benches.
    pub fn set_leaf_cost(&mut self, idx: usize, cost_ns: u64) {
        let mut i = 0;
        self.tree.for_each_leaf_mut(&mut |l| {
            if i == idx {
                l.synthetic_cost_ns = cost_ns;
            }
            i += 1;
        });
    }

    /// Evaluate one partition (runtime pruning entry point).
    pub fn evaluate(&mut self, zone_maps: &[ZoneMap]) -> Verdict {
        self.evaluated += 1;
        let v = self.tree.evaluate(zone_maps);
        if self.evaluated.is_multiple_of(self.cfg.adapt_interval) {
            if self.cfg.reorder {
                self.tree.reorder();
            }
            if self.cfg.cutoff {
                let mut disabled = 0;
                self.tree.apply_cutoff(&self.cfg, &mut disabled);
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
    /// highly parallel execution phase). Takes owned or borrowed metadata
    /// (`&[PartitionMeta]`, or the `Vec<&PartitionMeta>` a table snapshot
    /// hands out).
    pub fn prune<M: Borrow<PartitionMeta>>(&mut self, metas: &[M]) -> FilterPruneResult {
        let before = metas.len();
        let start = Instant::now();
        let mut entries = Vec::with_capacity(metas.len());
        let mut pruned = 0usize;
        let mut fully = 0usize;
        let mut deferred = 0usize;
        for meta in metas {
            let meta: &PartitionMeta = meta.borrow();
            if (start.elapsed().as_nanos() as u64) > self.cfg.compile_time_budget_ns {
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

    /// Pre-order leaf predicate order (exposed for reordering tests).
    pub fn leaf_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.tree
            .for_each_leaf(&mut |l| out.push(l.expr.to_string()));
        out
    }

    /// Per-leaf statistics, in pre-order (exposed for adaptivity tests).
    pub fn leaf_stats(&self) -> Vec<NodeStats> {
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
