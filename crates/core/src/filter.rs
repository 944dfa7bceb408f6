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
//!
//! **One classifier, a block at a time.** The tree is walked over runs of
//! up to 64 partitions. A node's verdicts for a run are four `u64`
//! bit-planes, one per [`Verdict`] fact, and `∧`/`∨` combine them bitwise.
//! A child is evaluated only for the partitions its parent has not decided
//! yet (`may_true` under `∧`, `!all_true` under `∨`): the per-partition
//! short-circuit, so every leaf's [`NodeStats`] are what a partition-at-a-
//! time walk would count. A run never crosses an adaptation boundary or
//! the compile-time budget, so reorder, cutoff and deferral fire at the
//! same partitions as well. A leaf `column op literal` whose literal has
//! the column's Int, Date or Timestamp type runs as a loop over the
//! table's column-major zone maps ([`TableMetadata::int_zones`]) and gives
//! exactly `prune_eval`'s verdict; every other leaf, and every leaf over a
//! plain metadata slice, goes through `prune_eval`. Compile-time pruning,
//! the §3.2 runtime re-check (a run of one) and partition-local DML all
//! classify through this walk.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use std::borrow::Borrow;

use snowprune_expr::{prune_eval, CmpOp, Expr};
use snowprune_storage::{IntZones, PartitionMeta, TableMetadata};
use snowprune_types::{MatchClass, ScalarType, Value, Verdict, ZoneMap};

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

/// Most partitions one run of the block walk covers: one bit each in a
/// `u64` bit-plane.
const BLOCK: usize = 64;

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

/// Partition metadata that [`FilterPruner::prune`] classifies, by
/// position: a plain slice of `PartitionMeta`s, whose leaves all go
/// through `prune_eval`, or a table version's [`TableMetadata`], which
/// also offers its column-major zone maps to the typed leaves.
pub trait PruneInput {
    /// Number of partitions.
    fn partition_count(&self) -> usize;

    /// Metadata of the partition at `pos`.
    fn meta(&self, pos: usize) -> &PartitionMeta;

    /// Row count of the partition at `pos`.
    fn row_count(&self, pos: usize) -> u64 {
        self.meta(pos).row_count
    }

    /// Column `col`'s typed bounds, when the input keeps them.
    fn int_zones(&self, _col: usize) -> Option<&IntZones> {
        None
    }
}

impl<M: Borrow<PartitionMeta>> PruneInput for [M] {
    fn partition_count(&self) -> usize {
        self.len()
    }

    fn meta(&self, pos: usize) -> &PartitionMeta {
        self[pos].borrow()
    }
}

impl<M: Borrow<PartitionMeta>> PruneInput for Vec<M> {
    fn partition_count(&self) -> usize {
        self.len()
    }

    fn meta(&self, pos: usize) -> &PartitionMeta {
        self[pos].borrow()
    }
}

impl PruneInput for TableMetadata<'_> {
    fn partition_count(&self) -> usize {
        self.len()
    }

    fn meta(&self, pos: usize) -> &PartitionMeta {
        self[pos]
    }

    fn row_count(&self, pos: usize) -> u64 {
        self.row_counts()[pos]
    }

    fn int_zones(&self, col: usize) -> Option<&IntZones> {
        TableMetadata::int_zones(self, col)
    }
}

/// What the block walk reads: zone maps by position, typed bounds where
/// the input keeps them.
trait Zones {
    fn zone_maps(&self, pos: usize) -> &[ZoneMap];
    fn int_zones(&self, col: usize) -> Option<&IntZones>;
}

/// A [`PruneInput`] as the walk sees it.
struct Input<'a, S: ?Sized>(&'a S);

impl<S: PruneInput + ?Sized> Zones for Input<'_, S> {
    fn zone_maps(&self, pos: usize) -> &[ZoneMap] {
        &self.0.meta(pos).zone_maps
    }

    fn int_zones(&self, col: usize) -> Option<&IntZones> {
        self.0.int_zones(col)
    }
}

/// One partition's zone maps: the run of one behind [`FilterPruner::evaluate`].
struct One<'a>(&'a [ZoneMap]);

impl Zones for One<'_> {
    fn zone_maps(&self, _pos: usize) -> &[ZoneMap] {
        self.0
    }

    fn int_zones(&self, _col: usize) -> Option<&IntZones> {
        None
    }
}

/// A node's verdicts over one run of partitions: bit `j` of each plane is
/// that [`Verdict`] fact for the run's `j`-th partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Planes {
    may_true: u64,
    all_true: u64,
    may_false: u64,
    all_false: u64,
}

impl Planes {
    /// `v` on every partition in `mask`, nothing elsewhere.
    fn splat(v: Verdict, mask: u64) -> Planes {
        let on = |b: bool| if b { mask } else { 0 };
        Planes {
            may_true: on(v.may_true),
            all_true: on(v.all_true),
            may_false: on(v.may_false),
            all_false: on(v.all_false),
        }
    }

    /// Bit-parallel [`Verdict::and`].
    fn and(self, o: Planes) -> Planes {
        Planes {
            may_true: self.may_true & o.may_true,
            all_true: self.all_true & o.all_true,
            may_false: self.may_false | o.may_false,
            all_false: self.all_false | o.all_false,
        }
    }

    /// Bit-parallel [`Verdict::or`].
    fn or(self, o: Planes) -> Planes {
        Planes {
            may_true: self.may_true | o.may_true,
            all_true: self.all_true | o.all_true,
            may_false: self.may_false & o.may_false,
            all_false: self.all_false & o.all_false,
        }
    }

    /// `self` on the partitions in `mask`, `other` elsewhere.
    fn merge(self, mask: u64, other: Planes) -> Planes {
        let pick = |a: u64, b: u64| (a & mask) | (b & !mask);
        Planes {
            may_true: pick(self.may_true, other.may_true),
            all_true: pick(self.all_true, other.all_true),
            may_false: pick(self.may_false, other.may_false),
            all_false: pick(self.all_false, other.all_false),
        }
    }

    /// The verdict of the run's `j`-th partition.
    fn verdict(self, j: usize) -> Verdict {
        let bit = |plane: u64| (plane >> j) & 1 == 1;
        Verdict {
            may_true: bit(self.may_true),
            all_true: bit(self.all_true),
            may_false: bit(self.may_false),
            all_false: bit(self.all_false),
        }
    }
}

/// The mask of a run's first `n` partitions.
fn run_mask(n: usize) -> u64 {
    if n >= BLOCK {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A leaf `column op literal`, column first, whose literal is an Int,
/// Date or Timestamp value. Over a column whose typed bounds are of the
/// literal's own type it runs [`TypedCmp::planes`]; anywhere else the
/// leaf goes through `prune_eval`.
#[derive(Clone, Copy, Debug)]
struct TypedCmp {
    col: usize,
    op: CmpOp,
    lit: i64,
    ty: ScalarType,
}

impl TypedCmp {
    /// The typed form of `leaf`, in either operand order.
    fn of(leaf: &Expr) -> Option<TypedCmp> {
        let Expr::Cmp(op, a, b) = leaf else {
            return None;
        };
        let (col, lit, op) = match (&**a, &**b) {
            (Expr::Column(c), Expr::Literal(v)) => (c.index, v, *op),
            (Expr::Literal(v), Expr::Column(c)) => (c.index, v, op.flip()),
            _ => return None,
        };
        let (lit, ty) = match lit {
            Value::Int(x) => (*x, ScalarType::Int),
            Value::Date(d) => (i64::from(*d), ScalarType::Date),
            Value::Timestamp(t) => (*t, ScalarType::Timestamp),
            _ => return None,
        };
        Some(TypedCmp { col, op, lit, ty })
    }

    /// The leaf's verdicts on positions `start..start + n`. Each arm is
    /// `prune_eval`'s `(exists, forall)` pair for `column op literal` over
    /// the bounds `[lo, hi]`.
    fn planes(&self, z: &IntZones, start: usize, n: usize) -> Planes {
        let v = self.lit;
        match self.op {
            CmpOp::Lt => kernel(z, start, n, |lo, hi| (lo < v, hi < v)),
            CmpOp::Le => kernel(z, start, n, |lo, hi| (lo <= v, hi <= v)),
            CmpOp::Gt => kernel(z, start, n, |lo, hi| (hi > v, lo > v)),
            CmpOp::Ge => kernel(z, start, n, |lo, hi| (hi >= v, lo >= v)),
            CmpOp::Eq => kernel(z, start, n, |lo, hi| {
                (lo <= v && v <= hi, lo == v && hi == v)
            }),
            CmpOp::Ne => kernel(z, start, n, |lo, hi| (lo != v || hi != v, v < lo || v > hi)),
        }
    }
}

/// The typed leaf kernel over one run. `facts(lo, hi)` says whether some
/// (`exists`) and whether every (`forall`) value in `[lo, hi]` satisfies
/// the comparison. Over a total order the negated comparison's pair is
/// `(!forall, !exists)`, which gives the FALSE facts. The kernel then
/// applies the NULL rules of `prune_eval`'s comparison: an all-NULL column
/// is UNKNOWN on every row, a column without bounds tells nothing, and a
/// NULL row strips both "all" facts.
#[inline(always)]
fn kernel(
    z: &IntZones,
    start: usize,
    n: usize,
    facts: impl Fn(i64, i64) -> (bool, bool),
) -> Planes {
    let r = start..start + n;
    let (mut exists, mut forall) = (0u64, 0u64);
    for (j, (&lo, &hi)) in z.mins()[r.clone()].iter().zip(&z.maxs()[r]).enumerate() {
        let (e, f) = facts(lo, hi);
        exists |= u64::from(e) << j;
        forall |= u64::from(f) << j;
    }
    let unknown = z.all_null(start, n);
    let bounded = z.bounded(start, n) & !unknown;
    let top = run_mask(n) & !z.bounded(start, n) & !unknown;
    let definite = bounded & !z.has_null(start, n);
    Planes {
        may_true: top | (bounded & exists),
        all_true: definite & forall,
        may_false: top | (bounded & !forall),
        all_false: definite & !exists,
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
    /// The typed form of `expr`, when it has one.
    typed: Option<TypedCmp>,
}

impl LeafPruner {
    /// Evaluate the leaf on the partitions of `live` in the run at
    /// `start`, charging its modelled cost once per partition.
    fn eval(
        &mut self,
        src: &impl Zones,
        start: usize,
        n: usize,
        live: u64,
        charged: &mut u64,
    ) -> Planes {
        if !self.enabled {
            return Planes::splat(Verdict::TOP, live);
        }
        let typed = self.typed.and_then(|t| {
            let z = src.int_zones(t.col)?;
            (z.ty() == t.ty).then_some((t, z))
        });
        let p = match typed {
            Some((t, z)) => Planes::default().merge(!live, t.planes(z, start, n)),
            None => {
                let mut p = Planes::default();
                let mut todo = live;
                while todo != 0 {
                    let j = todo.trailing_zeros() as usize;
                    let v = prune_eval(&self.expr, src.zone_maps(start + j));
                    p = Planes::splat(v, 1 << j).merge(1 << j, p);
                    todo &= todo - 1;
                }
                p
            }
        };
        let k = u64::from(live.count_ones());
        self.stats.evals += k;
        self.stats.cost_ns += k * self.cost_ns;
        *charged += k * self.cost_ns;
        self.stats.pruned += u64::from((live & !p.may_true).count_ones());
        p
    }
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
                typed: TypedCmp::of(leaf),
            }),
        }
    }

    /// Evaluate this node on the partitions of `live` in the run of `n`
    /// at `start` (bits outside `live` stay clear), adding the modelled
    /// cost of every leaf evaluation to `charged`. A child sees only the
    /// partitions its parent has not decided yet.
    fn eval(
        &mut self,
        src: &impl Zones,
        start: usize,
        n: usize,
        live: u64,
        charged: &mut u64,
    ) -> Planes {
        match self {
            PruneNode::Leaf(leaf) => leaf.eval(src, start, n, live, charged),
            PruneNode::And(children) => {
                let mut acc = Planes::splat(Verdict::ALWAYS_TRUE, live);
                for c in children.iter_mut() {
                    // A partition already prunable stays prunable.
                    let todo = acc.may_true;
                    if todo == 0 {
                        break;
                    }
                    acc = acc
                        .and(c.eval(src, start, n, todo, charged))
                        .merge(todo, acc);
                }
                acc
            }
            PruneNode::Or(children) => {
                let mut acc = Planes::splat(Verdict::ALWAYS_FALSE, live);
                for c in children.iter_mut() {
                    let todo = live & !acc.all_true;
                    if todo == 0 {
                        break;
                    }
                    acc = acc
                        .or(c.eval(src, start, n, todo, charged))
                        .merge(todo, acc);
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

    /// Evaluate one partition (runtime pruning entry point): a run of one
    /// through the block walk, every leaf through `prune_eval`.
    pub fn evaluate(&mut self, zone_maps: &[ZoneMap]) -> Verdict {
        self.run(&One(zone_maps), 0, 1).verdict(0)
    }

    /// Classify the run of `n` partitions at `start`, then adapt when the
    /// pruner's lifetime evaluation count reaches a multiple of
    /// `adapt_interval`.
    fn run(&mut self, src: &impl Zones, start: usize, n: usize) -> Planes {
        let p = self
            .tree
            .eval(src, start, n, run_mask(n), &mut self.charged_ns);
        self.evaluated += n as u64;
        if self.evaluated.is_multiple_of(self.cfg.adapt_interval) {
            if self.cfg.reorder {
                self.tree.reorder();
            }
            if self.cfg.cutoff {
                self.tree.apply_cutoff(&self.cfg);
            }
        }
        p
    }

    /// Length of the next run over `remaining` partitions, once `spent`
    /// of this call's budget is charged: at most [`BLOCK`], ending at the
    /// next adaptation boundary at the latest, and, under a finite budget,
    /// no longer than the budget can pay for at the most every enabled
    /// leaf can charge a partition (at least 1). A partition-at-a-time
    /// walk would classify exactly these partitions before deferring.
    fn run_len(&self, remaining: usize, spent: u64) -> usize {
        let mut n = remaining.min(BLOCK) as u64;
        if let Some(done) = self.evaluated.checked_rem(self.cfg.adapt_interval) {
            n = n.min(self.cfg.adapt_interval - done);
        }
        let budget = self.cfg.compile_time_budget_ns;
        if budget != u64::MAX {
            let mut per_partition = 0u64;
            self.tree.for_each_leaf(&mut |l| {
                if l.enabled {
                    per_partition = per_partition.saturating_add(l.cost_ns);
                }
            });
            if let Some(affordable) = (budget - spent).checked_div(per_partition) {
                n = n.min(affordable.max(1));
            }
        }
        n as usize
    }

    /// Compile-time pruning over a whole table's metadata, respecting the
    /// compile-time budget (§3.2: expensive pruning is deferred to the
    /// highly parallel execution phase). Once this call has charged
    /// `compile_time_budget_ns` of modelled leaf cost, every remaining
    /// partition is deferred, so the deferred entries are a suffix of the
    /// scan set. Takes a table version's [`TableMetadata`] (typed leaves
    /// over its zone columns) or a plain slice of owned or borrowed
    /// `PartitionMeta`s.
    pub fn prune<S: PruneInput + ?Sized>(&mut self, metas: &S) -> FilterPruneResult {
        let before = metas.partition_count();
        let charged_before = self.charged_ns;
        let src = Input(metas);
        let entry = |pos: usize, class: MatchClass| {
            let meta = metas.meta(pos);
            ScanEntry {
                id: meta.id,
                class,
                row_count: meta.row_count,
                bytes: meta.bytes,
            }
        };
        let mut entries = Vec::new();
        let mut fully = 0usize;
        let mut pos = 0;
        while pos < before {
            let spent = self.charged_ns - charged_before;
            if spent >= self.cfg.compile_time_budget_ns {
                break;
            }
            let n = self.run_len(before - pos, spent);
            let p = self.run(&src, pos, n);
            // Only partitions that may hold a TRUE row survive; an empty
            // one never does.
            let mut keep = p.may_true;
            while keep != 0 {
                let j = keep.trailing_zeros() as usize;
                keep &= keep - 1;
                if metas.row_count(pos + j) == 0 {
                    continue;
                }
                let class = if (p.all_true >> j) & 1 == 1 {
                    fully += 1;
                    MatchClass::FullyMatching
                } else {
                    MatchClass::PartiallyMatching
                };
                entries.push(entry(pos + j, class));
            }
            pos += n;
        }
        let deferred = before - pos;
        entries.extend((pos..before).map(|at| entry(at, MatchClass::PartiallyMatching)));
        FilterPruneResult {
            pruned: before - entries.len(),
            scan_set: ScanSet { entries },
            partitions_before: before,
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
    /// Classify one partition, as a partition-at-a-time caller would.
    fn classify(&mut self, meta: &PartitionMeta) -> MatchClass {
        self.evaluate(&meta.zone_maps).classify(meta.row_count)
    }

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

    // ---- the block walk and the typed kernel --------------------------

    use snowprune_expr::{ArithOp, ColumnRef};
    use snowprune_storage::{IntZones, Table};
    use snowprune_types::DEFAULT_STRING_PREFIX;

    /// splitmix64 stream, so a case is a function of its seed.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The edge values every typed draw mixes in.
    const EDGES: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];

    /// `a` Int, `d` Date, `t` Timestamp, `s` Str.
    fn random_schema() -> Schema {
        Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("d", ScalarType::Date),
            Field::new("t", ScalarType::Timestamp),
            Field::new("s", ScalarType::Str),
        ])
    }

    /// A random integer: an edge, or a small value near 0.
    fn draw_i64(next: &mut impl FnMut() -> u64) -> i64 {
        match next() % 3 {
            0 => EDGES[(next() % EDGES.len() as u64) as usize],
            _ => (next() % 21) as i64 - 10,
        }
    }

    /// A non-null value of column type `ty`.
    fn draw_value(ty: ScalarType, next: &mut impl FnMut() -> u64) -> Value {
        let x = draw_i64(next);
        match ty {
            ScalarType::Int => Value::Int(x),
            ScalarType::Date => Value::Date(x.clamp(i32::MIN.into(), i32::MAX.into()) as i32),
            ScalarType::Timestamp => Value::Timestamp(x),
            _ => Value::from(["apple", "apricot", "banana", "x", ""][(next() % 5) as usize]),
        }
    }

    /// Zone maps of `parts` random partitions over `random_schema`: 0–6
    /// rows each (so some are empty), each cell NULL with a per-partition
    /// probability that is sometimes 1 (all-NULL columns).
    fn random_metas(parts: usize, next: &mut impl FnMut() -> u64) -> Vec<PartitionMeta> {
        let schema = random_schema();
        (0..parts)
            .map(|id| {
                let rows = next() % 7;
                let zone_maps = schema
                    .fields()
                    .iter()
                    .map(|f| {
                        let null_pct = [0, 0, 30, 100][(next() % 4) as usize];
                        let values: Vec<Value> = (0..rows)
                            .map(|_| {
                                if next() % 100 < null_pct {
                                    Value::Null
                                } else {
                                    draw_value(f.ty, next)
                                }
                            })
                            .collect();
                        ZoneMap::build(&values, DEFAULT_STRING_PREFIX)
                    })
                    .collect();
                PartitionMeta {
                    id: id as u64,
                    row_count: rows,
                    bytes: 8 * rows,
                    zone_maps,
                }
            })
            .collect()
    }

    /// A `PruneInput` that keeps typed columns, like a table version's
    /// `TableMetadata`, over any metadata (empty partitions included).
    struct Typed {
        metas: Vec<PartitionMeta>,
        zones: Vec<Option<IntZones>>,
    }

    impl Typed {
        fn new(metas: Vec<PartitionMeta>) -> Self {
            let refs: Vec<&PartitionMeta> = metas.iter().collect();
            let zones = random_schema()
                .fields()
                .iter()
                .enumerate()
                .map(|(col, f)| IntZones::gather(&refs, col, f.ty))
                .collect();
            Typed { metas, zones }
        }
    }

    impl PruneInput for Typed {
        fn partition_count(&self) -> usize {
            self.metas.len()
        }

        fn meta(&self, pos: usize) -> &PartitionMeta {
            &self.metas[pos]
        }

        fn int_zones(&self, col: usize) -> Option<&IntZones> {
            self.zones.get(col)?.as_ref()
        }
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    /// `column op literal`, or `literal op column` when `flip`.
    fn cmp(op: CmpOp, column: Expr, literal: Value, flip: bool) -> Expr {
        let (c, l) = (Box::new(column), Box::new(Expr::Literal(literal)));
        if flip {
            Expr::Cmp(op, l, c)
        } else {
            Expr::Cmp(op, c, l)
        }
    }

    /// A random leaf: mostly a comparison the kernel types, otherwise one
    /// that stays generic (a literal of another type, `IS NULL`,
    /// arithmetic, a string pattern, a negation).
    fn random_leaf(next: &mut impl FnMut() -> u64) -> Expr {
        let schema = random_schema();
        let typed = ["a", "d", "t"][(next() % 3) as usize];
        let ty = schema.fields()[schema.index_of(typed).unwrap()].ty;
        let op = OPS[(next() % 6) as usize];
        let flip = next().is_multiple_of(2);
        let e = match next() % 10 {
            0..=4 => cmp(op, col(typed), draw_value(ty, next), flip),
            5 => cmp(op, col("a"), Value::Date(draw_i64(next) as i32), flip),
            6 => col(typed).is_null(),
            7 => cmp(
                op,
                Expr::Arith(ArithOp::Add, Box::new(col("a")), Box::new(lit(1i64))),
                Value::Int(draw_i64(next)),
                flip,
            ),
            8 => match next() % 3 {
                0 => col("s").like("ap%"),
                1 => col("s").starts_with("b"),
                _ => cmp(op, col("s"), Value::from("apricot"), flip),
            },
            _ => cmp(op, col(typed), draw_value(ty, next), flip).not(),
        };
        e.bind(&schema).unwrap()
    }

    /// A random AND/OR tree of depth at most `depth`.
    fn random_tree(depth: u32, next: &mut impl FnMut() -> u64) -> Expr {
        if depth == 0 || next().is_multiple_of(3) {
            return random_leaf(next);
        }
        let kids = (0..2 + next() % 2)
            .map(|_| random_tree(depth - 1, next))
            .collect();
        if next().is_multiple_of(2) {
            Expr::And(kids)
        } else {
            Expr::Or(kids)
        }
    }

    /// Everything a `prune` run decides and records.
    fn observe(
        pred: &Expr,
        cfg: &FilterPruneConfig,
        costs: &[u64],
        input: &(impl PruneInput + ?Sized),
    ) -> (FilterPruneResult, Vec<NodeStats>, Vec<String>) {
        let mut pruner = FilterPruner::new(pred, cfg.clone());
        for (i, &c) in costs.iter().enumerate() {
            pruner.set_leaf_cost(i, c);
        }
        let res = pruner.prune(input);
        (res, pruner.leaf_stats(), pruner.leaf_order())
    }

    #[test]
    fn typed_leaf_verdict_equals_prune_eval() {
        let mut next = splitmix(45);
        for case in 0..300 {
            let typed = Typed::new(random_metas(1 + (next() % 150) as usize, &mut next));
            let n = typed.metas.len();
            for (col_name, idx, ty) in [
                ("a", 0, ScalarType::Int),
                ("d", 1, ScalarType::Date),
                ("t", 2, ScalarType::Timestamp),
            ] {
                let z = typed.int_zones(idx).expect("typed column");
                let column = Expr::Column(ColumnRef {
                    index: idx,
                    name: col_name.into(),
                });
                for op in OPS {
                    for flip in [false, true] {
                        let e = cmp(op, column.clone(), draw_value(ty, &mut next), flip);
                        let k = TypedCmp::of(&e).expect("a typed leaf");
                        // Runs at arbitrary offsets, so bitset windows
                        // straddle word boundaries.
                        let mut start = 0;
                        while start < n {
                            let len = (1 + next() % 64).min((n - start) as u64) as usize;
                            let p = k.planes(z, start, len);
                            for j in 0..len {
                                let want = prune_eval(&e, &typed.metas[start + j].zone_maps);
                                assert_eq!(p.verdict(j), want, "case {case}: {e} at {}", start + j);
                            }
                            assert_eq!(p, Planes::default().merge(!run_mask(len), p));
                            start += len;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_walk_matches_generic_walk_and_a_classify_loop() {
        let mut next = splitmix(4545);
        // Cases that deferred, cut a leaf off, or classified fully-matching:
        // the generator must reach every decision the walk makes.
        let mut seen = [0usize; 3];
        for case in 0..400 {
            let metas = random_metas((next() % 300) as usize, &mut next);
            let pred = random_tree(3, &mut next);
            let mut cfg = FilterPruneConfig::default();
            cfg.adapt_interval = 1 + next() % 100;
            cfg.cutoff = next().is_multiple_of(2);
            cfg.cutoff_min_evals = next() % 16;
            cfg.scan_cost_ns_per_partition = 1 + next() % 400;
            let unbounded = next().is_multiple_of(3);
            if !unbounded {
                cfg.compile_time_budget_ns = next() % 40_000;
            }
            let mut leaves = 0;
            FilterPruner::new(&pred, cfg.clone())
                .tree
                .for_each_leaf(&mut |_| leaves += 1);
            let costs: Vec<u64> = (0..leaves).map(|_| 50 + next() % 300).collect();

            let typed = Typed::new(metas.clone());
            let fast = observe(&pred, &cfg, &costs, &typed);
            let generic = observe(&pred, &cfg, &costs, &metas);
            assert_eq!(fast, generic, "case {case}: {pred} under {cfg:?}");
            let res = &fast.0;
            seen[0] += usize::from(res.deferred > 0);
            seen[1] += usize::from(res.disabled_leaves > 0);
            seen[2] += usize::from(res.fully_matching > 0);

            if unbounded {
                let mut pruner = FilterPruner::new(&pred, cfg.clone());
                for (i, &c) in costs.iter().enumerate() {
                    pruner.set_leaf_cost(i, c);
                }
                let mut entries = Vec::new();
                let mut fully = 0;
                for m in &metas {
                    let class = pruner.classify(m);
                    if class != MatchClass::NotMatching {
                        fully += usize::from(class == MatchClass::FullyMatching);
                        entries.push(ScanEntry {
                            id: m.id,
                            class,
                            row_count: m.row_count,
                            bytes: m.bytes,
                        });
                    }
                }
                let (res, stats, order) = &fast;
                assert_eq!(res.scan_set.entries, entries, "case {case}: {pred}");
                assert_eq!(
                    (res.pruned, res.fully_matching, res.deferred),
                    (metas.len() - entries.len(), fully, 0)
                );
                assert_eq!(res.disabled_leaves, pruner.disabled_leaves());
                assert_eq!(*stats, pruner.leaf_stats(), "case {case}: {pred}");
                assert_eq!(*order, pruner.leaf_order(), "case {case}: {pred}");
            }
        }
        assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
    }

    /// The partition-at-a-time walk the block walk replaced, kept as the
    /// reference for all four facts of a verdict (the scan set reads only
    /// two of them).
    fn reference_eval(node: &mut PruneNode, zone_maps: &[ZoneMap], charged: &mut u64) -> Verdict {
        match node {
            PruneNode::Leaf(leaf) => {
                if !leaf.enabled {
                    return Verdict::TOP;
                }
                let v = prune_eval(&leaf.expr, zone_maps);
                leaf.stats.evals += 1;
                leaf.stats.cost_ns += leaf.cost_ns;
                *charged += leaf.cost_ns;
                leaf.stats.pruned += u64::from(v.prunable());
                v
            }
            PruneNode::And(children) => {
                let mut acc = Verdict::ALWAYS_TRUE;
                for c in children.iter_mut() {
                    acc = acc.and(reference_eval(c, zone_maps, charged));
                    if !acc.may_true {
                        break;
                    }
                }
                acc
            }
            PruneNode::Or(children) => {
                let mut acc = Verdict::ALWAYS_FALSE;
                for c in children.iter_mut() {
                    acc = acc.or(reference_eval(c, zone_maps, charged));
                    if acc.all_true {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// [`reference_eval`] with the pruner's adaptation, one partition.
    fn reference_evaluate(p: &mut FilterPruner, zone_maps: &[ZoneMap]) -> Verdict {
        let v = reference_eval(&mut p.tree, zone_maps, &mut p.charged_ns);
        p.evaluated += 1;
        if p.evaluated.is_multiple_of(p.cfg.adapt_interval) {
            if p.cfg.reorder {
                p.tree.reorder();
            }
            if p.cfg.cutoff {
                p.tree.apply_cutoff(&p.cfg);
            }
        }
        v
    }

    #[test]
    fn block_walk_verdicts_match_the_per_partition_reference() {
        let mut next = splitmix(4646);
        for case in 0..300 {
            let metas = random_metas((next() % 300) as usize, &mut next);
            let pred = random_tree(3, &mut next);
            let mut cfg = FilterPruneConfig::default();
            cfg.adapt_interval = 1 + next() % 100;
            cfg.cutoff = next().is_multiple_of(2);
            cfg.cutoff_min_evals = next() % 16;
            cfg.scan_cost_ns_per_partition = 1 + next() % 400;
            let pruner = || {
                let mut p = FilterPruner::new(&pred, cfg.clone());
                p.set_leaf_cost(0, 50 + case % 300);
                p
            };
            let (mut block, mut single, mut reference) = (pruner(), pruner(), pruner());
            let typed = Typed::new(metas.clone());
            let mut pos = 0;
            while pos < metas.len() {
                let n = block.run_len(metas.len() - pos, 0);
                let planes = block.run(&Input(&typed), pos, n);
                for (j, m) in metas[pos..pos + n].iter().enumerate() {
                    let want = reference_evaluate(&mut reference, &m.zone_maps);
                    let at = pos + j;
                    assert_eq!(planes.verdict(j), want, "case {case}: {pred} at {at}");
                    assert_eq!(single.evaluate(&m.zone_maps), want, "case {case}: {pred}");
                }
                pos += n;
            }
            for p in [&block, &single] {
                assert_eq!(p.leaf_stats(), reference.leaf_stats(), "case {case}");
                assert_eq!(p.leaf_order(), reference.leaf_order(), "case {case}");
            }
        }
    }

    /// A clustered table `k` 0..200 in 20 partitions of 10 rows.
    fn keyed() -> Table {
        let schema = Schema::new(vec![Field::new("k", ScalarType::Int)]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(10)
            .layout(Layout::ClusterBy(vec!["k".into()]));
        for k in 0..200i64 {
            b.push_row(vec![Value::Int(k)]);
        }
        b.build()
    }

    /// The partitions a SELECT with `pred` scans, through the typed path.
    fn scanned(t: &Table, pred: Expr) -> Vec<u64> {
        let metas = t.read_metadata(&Default::default(), &Default::default());
        let pred = pred.bind(t.schema()).unwrap();
        FilterPruner::new(&pred, FilterPruneConfig::default())
            .prune(&metas)
            .scan_set
            .ids()
    }

    #[test]
    fn a_write_never_leaves_stale_zone_columns() {
        let mut t = keyed();
        // Each SELECT builds the column; each write must drop it.
        assert!(scanned(&t, col("k").ge(lit(1_000i64))).is_empty());
        t.insert_rows(vec![vec![Value::Int(1_000)], vec![Value::Int(1_005)]]);
        assert_eq!(scanned(&t, col("k").ge(lit(1_000i64))), vec![20]);

        assert_eq!(scanned(&t, col("k").lt(lit(15i64))), vec![0, 1]);
        t.delete_rows(|row| matches!(row[0], Value::Int(k) if k < 15));
        assert_eq!(scanned(&t, col("k").lt(lit(15i64))), Vec::<u64>::new());
        // Partition 0 is gone and partition 1 is rewritten as id 21.
        assert_eq!(scanned(&t, col("k").lt(lit(25i64))), vec![21, 2]);

        assert!(scanned(&t, col("k").ge(lit(5_000i64))).is_empty());
        t.update_rows(|row| match row[0] {
            Value::Int(50) => vec![Value::Int(5_000)],
            _ => row.to_vec(),
        });
        assert_eq!(scanned(&t, col("k").ge(lit(5_000i64))), vec![22]);
    }

    #[test]
    fn a_snapshot_keeps_the_answers_of_its_version() {
        let mut live = keyed();
        let pred = || col("k").between(lit(40i64), lit(59i64));
        assert_eq!(scanned(&live, pred()), vec![4, 5]);
        let snap = live.clone();
        live.delete_rows(|row| matches!(row[0], Value::Int(k) if (40..60).contains(&k)));
        live.insert_rows(vec![vec![Value::Int(45)]]);
        assert_eq!(scanned(&live, pred()), vec![20]);
        assert_eq!(scanned(&snap, pred()), vec![4, 5]);
        assert_eq!(scanned(&live, pred()), vec![20]);
    }
}
