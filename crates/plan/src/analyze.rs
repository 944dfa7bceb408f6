//! Plan analyses feeding the pruning techniques:
//!
//! * [`limit_pushdown`] — can the `LIMIT k` reach a table scan (§4.3)?
//! * [`detect_topk`] — is this a top-k plan, and which of the Figure 7
//!   shapes does it take?
//! * [`fingerprint`] — plan hashing for repetitiveness analysis (Figure 12)
//!   and the predicate cache (§8.2).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use snowprune_expr::{CmpOp, Expr};
use snowprune_types::{LiteralRange, ShapeKey, Value};

use crate::plan::{JoinType, Plan, SortKey};

/// Outcome of LIMIT pushdown analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum LimitPushdown {
    /// The plan has no LIMIT (or `Sort` sits between LIMIT and the rest,
    /// making it a top-k query instead).
    NotALimitQuery,
    /// The LIMIT reaches this table with the given effective predicates.
    Supported {
        /// The scanned table the LIMIT applies to.
        table: String,
        /// Row budget of the LIMIT.
        k: u64,
        /// Rows skipped before counting toward `k`.
        offset: u64,
        /// Conjunction of all predicates between the LIMIT and the scan
        /// (including the scan's own pushed-down predicate).
        predicates: Vec<Expr>,
    },
    /// An operator between LIMIT and scan blocks the pushdown
    /// (aggregation, inner join probe-only path, ...). Feeds Table 2's
    /// "unsupported shapes".
    Unsupported {
        /// Name of the blocking operator, for the Table 2 breakdown.
        blocker: &'static str,
    },
}

/// Walk from the top of the plan and decide where the LIMIT lands.
pub fn limit_pushdown(plan: &Plan) -> LimitPushdown {
    let Plan::Limit { input, k, offset } = plan else {
        return LimitPushdown::NotALimitQuery;
    };
    // Sort directly below the limit means top-k, not LIMIT pruning.
    if matches!(input.as_ref(), Plan::Sort { .. }) {
        return LimitPushdown::NotALimitQuery;
    }
    push_through(input, *k, *offset, Vec::new())
}

fn push_through(plan: &Plan, k: u64, offset: u64, mut preds: Vec<Expr>) -> LimitPushdown {
    match plan {
        Plan::Scan {
            table, predicate, ..
        } => {
            if let Some(p) = predicate {
                preds.push(p.clone());
            }
            LimitPushdown::Supported {
                table: table.clone(),
                k,
                offset,
                predicates: preds,
            }
        }
        // Filters do not block: LIMIT pruning handles predicates via
        // fully-matching partitions (§4.1).
        Plan::Filter { input, predicate } => {
            preds.push(predicate.clone());
            push_through(input, k, offset, preds)
        }
        Plan::Project { input, .. } => push_through(input, k, offset, preds),
        // §4.3: the one join exception — the preserved (build) side of an
        // outer join forwards every row at least once, so `k` build rows
        // guarantee `k` output rows.
        Plan::Join {
            build, join_type, ..
        } if *join_type == JoinType::OuterPreserveBuild => push_through(build, k, offset, preds),
        Plan::Join { .. } => LimitPushdown::Unsupported { blocker: "join" },
        Plan::Aggregate { .. } => LimitPushdown::Unsupported {
            blocker: "aggregation",
        },
        Plan::Sort { .. } => LimitPushdown::Unsupported { blocker: "sort" },
        Plan::Limit { input, .. } => push_through(input, k, offset, preds),
    }
}

/// Which Figure 7 shape a detected top-k query takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopKShape {
    /// (a) TopK above a table scan (possibly through filters/projections).
    AboveScan,
    /// (b) TopK above a join, ORDER BY column from the probe side.
    JoinProbeSide,
    /// (c) TopK replicated to the build side of an outer join.
    OuterJoinBuildSide,
    /// (d) TopK above an aggregation with ORDER BY ⊆ GROUP BY keys.
    AboveAggregation,
}

/// A detected top-k query.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKSpec {
    /// Row budget of the top-k (heap size).
    pub k: u64,
    /// Rows skipped before emitting (heap holds `k + offset`).
    pub offset: u64,
    /// The ORDER BY column driving the pruning boundary.
    pub order_column: String,
    /// Descending order when true.
    pub desc: bool,
    /// Which Figure 7 shape the query matched.
    pub shape: TopKShape,
    /// Table whose scan can consume the boundary.
    pub target_table: String,
}

/// Detect `Sort + Limit` (top-k) and classify it per Figure 7. Returns
/// `None` for non-top-k plans and for top-k plans whose shape does not
/// support boundary pruning (e.g. ORDER BY an aggregate output).
pub fn detect_topk(plan: &Plan) -> Option<TopKSpec> {
    let Plan::Limit { input, k, offset } = plan else {
        return None;
    };
    let Plan::Sort { input: below, keys } = input.as_ref() else {
        return None;
    };
    let [SortKey { expr, desc }] = keys.as_slice() else {
        return None; // multi-key top-k: boundary pruning needs the primary key only;
                     // conservatively unsupported here.
    };
    let Expr::Column(c) = expr else {
        return None; // ORDER BY over an expression: unsupported for pruning.
    };
    let order_column = c.name.clone();
    classify(below, &order_column, *k, *offset, *desc, true)
}

fn classify(
    plan: &Plan,
    order_column: &str,
    k: u64,
    offset: u64,
    desc: bool,
    directly_above: bool,
) -> Option<TopKSpec> {
    match plan {
        Plan::Scan { table, schema, .. } => {
            if !schema.contains(order_column) {
                return None;
            }
            Some(TopKSpec {
                k,
                offset,
                order_column: order_column.to_owned(),
                desc,
                shape: TopKShape::AboveScan,
                target_table: table.clone(),
            })
        }
        // Figure 7a: filters between scan and TopK are fine — the boundary
        // is built from rows that survive the filter.
        Plan::Filter { input, .. } => {
            classify(input, order_column, k, offset, desc, directly_above)
        }
        Plan::Project { input, columns } => {
            if !columns.iter().any(|c| c == order_column) {
                return None;
            }
            classify(input, order_column, k, offset, desc, directly_above)
        }
        Plan::Join {
            build,
            probe,
            join_type,
            ..
        } => {
            let from_probe = probe.produces_column(order_column);
            let from_build = build.produces_column(order_column);
            if from_probe && !from_build {
                // Figure 7b: prune the probe side.
                let inner = classify(probe, order_column, k, offset, desc, false)?;
                Some(TopKSpec {
                    shape: TopKShape::JoinProbeSide,
                    ..inner
                })
            } else if from_build && *join_type == JoinType::OuterPreserveBuild {
                // Figure 7c: replicate TopK to the preserved build side.
                let inner = classify(build, order_column, k, offset, desc, false)?;
                Some(TopKSpec {
                    shape: TopKShape::OuterJoinBuildSide,
                    ..inner
                })
            } else {
                None
            }
        }
        Plan::Aggregate {
            input, group_by, ..
        } => {
            // Figure 7d: pruning through GROUP BY requires the ORDER BY
            // column to be one of the grouping keys (not an aggregate).
            if !group_by.iter().any(|g| g == order_column) {
                return None;
            }
            let inner = classify(input, order_column, k, offset, desc, false)?;
            // Only classify as AboveAggregation when the aggregate is the
            // node directly below the TopK (otherwise keep the inner shape).
            Some(TopKSpec {
                shape: if directly_above {
                    TopKShape::AboveAggregation
                } else {
                    inner.shape
                },
                ..inner
            })
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            classify(input, order_column, k, offset, desc, false)
        }
    }
}

/// All distinct column names referenced by any predicate in the plan (scan
/// predicates and `Filter` nodes), sorted. The predicate cache (§8.2)
/// records these on each entry so that an UPDATE touching one of them can
/// be recognized as potentially moving rows into or out of the cached
/// result — the safe partition-rewrite fast path is unsound for such
/// updates.
pub fn predicate_column_names(plan: &Plan) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    plan.visit(&mut |p| {
        let pred = match p {
            Plan::Scan { predicate, .. } => predicate.as_ref(),
            Plan::Filter { predicate, .. } => Some(predicate),
            _ => None,
        };
        if let Some(expr) = pred {
            expr.visit(&mut |e| {
                if let Expr::Column(c) = e {
                    if !names.contains(&c.name) {
                        names.push(c.name.clone());
                    }
                }
            });
        }
    });
    names.sort();
    names
}

/// Extract the shape-mode cache signature of a cacheable plan (§8.2
/// extension): the plan hashed with comparison literals abstracted out,
/// plus the concrete literal range each predicate column is pinned to and
/// — for top-k plans — how many rows the plan needs (`k + offset`,
/// excluded from the hash).
///
/// Two plans with the same [`ShapeKey::fingerprint`] differ at most in
/// their comparison literals and top-k row count, so a cached entry can be
/// checked for *subsumption* against a query by comparing the key's ranges
/// (and `need`) alone:
///
/// * a **filter** entry subsumes the query when every cached interval
///   contains the query's interval for that column — the query predicate
///   then implies the entry predicate, so partitions holding entry-matching
///   rows are a superset of those holding query-matching rows;
/// * a **top-k** entry requires *equal* intervals (a wider entry predicate
///   would rank its top-k over a larger row set, and the query's best rows
///   may not be among the entry's k survivors) and `entry.need >=
///   query.need` — the entry's survivors plus its boundary-tie log then
///   cover every row of the smaller top-k, ties included.
///
/// Returns `None` when the plan is not *shape-eligible*: only
/// `Filter`/`Project` chains over a single scan — optionally under a
/// `Limit(Sort(bare columns))` top-k spine — qualify, and every predicate
/// must be a conjunction of single-column range comparisons against
/// non-null literals (`col {<,<=,>,>=,=} literal`, either operand order).
/// `OR`, `NOT`, `LIKE`, `IN`, arithmetic, and NULL literals make the plan
/// exact-mode-only: their literals cannot be compared as intervals, so the
/// subsumption direction cannot be proven sound.
pub fn shape_signature(plan: &Plan) -> Option<ShapeKey> {
    // Peel an optional top-k spine: Limit over Sort with bare-column keys.
    let (chain_root, need, sort_keys) = match plan {
        Plan::Limit { input, k, offset } => match input.as_ref() {
            Plan::Sort { input: below, keys } => {
                let mut cols: Vec<(String, bool)> = Vec::with_capacity(keys.len());
                for key in keys {
                    let Expr::Column(c) = &key.expr else {
                        return None;
                    };
                    cols.push((c.name.clone(), key.desc));
                }
                (below.as_ref(), Some(k + offset), cols)
            }
            // Bare LIMIT results are legally nondeterministic; not cached.
            _ => return None,
        },
        Plan::Sort { .. } => return None,
        other => (other, None, Vec::new()),
    };
    // Walk the Filter*/Project* chain, collecting predicates and the
    // projection structure.
    let mut ranges: BTreeMap<String, LiteralRange> = BTreeMap::new();
    let mut projections: Vec<Vec<String>> = Vec::new();
    let mut node = chain_root;
    let table = loop {
        match node {
            Plan::Scan {
                table, predicate, ..
            } => {
                if let Some(p) = predicate {
                    intersect_predicate(p, &mut ranges)?;
                }
                break table.clone();
            }
            Plan::Filter { input, predicate } => {
                intersect_predicate(predicate, &mut ranges)?;
                node = input;
            }
            Plan::Project { input, columns } => {
                projections.push(columns.clone());
                node = input;
            }
            _ => return None,
        }
    };
    let mut h = DefaultHasher::new();
    "snowprune-cache-shape-v1".hash(&mut h);
    table.hash(&mut h);
    // The constrained column *set* is the shape; the intervals themselves
    // are carried alongside for the subsumption check. Conjunct order and
    // atom count per column deliberately do not matter: `a >= 10 AND
    // a <= 90` and `a BETWEEN 20 AND 80` share a shape.
    for column in ranges.keys() {
        column.hash(&mut h);
    }
    projections.hash(&mut h);
    need.is_some().hash(&mut h);
    for (column, desc) in &sort_keys {
        column.hash(&mut h);
        desc.hash(&mut h);
    }
    Some(ShapeKey {
        fingerprint: h.finish(),
        ranges: ranges.into_values().collect(),
        need,
    })
}

/// Fold every conjunct of `pred` into the per-column interval map. `None`
/// when any conjunct is not a plain range comparison between one column
/// and one non-null literal (or when bounds are incomparable).
fn intersect_predicate(pred: &Expr, ranges: &mut BTreeMap<String, LiteralRange>) -> Option<()> {
    for conjunct in pred.split_conjunction() {
        let (column, op, value) = match conjunct {
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (c.name.clone(), *op, v.clone()),
                (Expr::Literal(v), Expr::Column(c)) => (c.name.clone(), op.flip(), v.clone()),
                _ => return None,
            },
            _ => return None,
        };
        if matches!(value, Value::Null) {
            return None;
        }
        let range = ranges
            .entry(column.clone())
            .or_insert_with(|| LiteralRange::unbounded(column));
        let ok = match op {
            CmpOp::Gt => range.tighten_lo(value, false),
            CmpOp::Ge => range.tighten_lo(value, true),
            CmpOp::Lt => range.tighten_hi(value, false),
            CmpOp::Le => range.tighten_hi(value, true),
            CmpOp::Eq => range.tighten_lo(value.clone(), true) && range.tighten_hi(value, true),
            CmpOp::Ne => return None,
        };
        if !ok {
            return None;
        }
    }
    Some(())
}

/// Fingerprint mode: `Shape` strips literals (Figure 12's "plan shapes");
/// `Exact` keeps them (predicate-cache keys, §8.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FingerprintMode {
    /// Literal-abstracted: two plans differing only in literals collide.
    Shape,
    /// Literal-sensitive: the full plan, literals included.
    Exact,
}

/// Stable hash of a plan.
pub fn fingerprint(plan: &Plan, mode: FingerprintMode) -> u64 {
    let mut h = DefaultHasher::new();
    hash_plan(plan, mode, &mut h);
    h.finish()
}

fn hash_plan(plan: &Plan, mode: FingerprintMode, h: &mut DefaultHasher) {
    match plan {
        Plan::Scan {
            table, predicate, ..
        } => {
            0u8.hash(h);
            table.hash(h);
            if let Some(p) = predicate {
                hash_expr(p, mode, h);
            }
        }
        Plan::Filter { input, predicate } => {
            1u8.hash(h);
            hash_expr(predicate, mode, h);
            hash_plan(input, mode, h);
        }
        Plan::Project { input, columns } => {
            2u8.hash(h);
            columns.hash(h);
            hash_plan(input, mode, h);
        }
        Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            join_type,
        } => {
            3u8.hash(h);
            build_key.hash(h);
            probe_key.hash(h);
            join_type.hash(h);
            hash_plan(build, mode, h);
            hash_plan(probe, mode, h);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            4u8.hash(h);
            group_by.hash(h);
            for a in aggs {
                a.output_name().hash(h);
            }
            hash_plan(input, mode, h);
        }
        Plan::Sort { input, keys } => {
            5u8.hash(h);
            for k in keys {
                hash_expr(&k.expr, mode, h);
                k.desc.hash(h);
            }
            hash_plan(input, mode, h);
        }
        Plan::Limit { input, k, offset } => {
            6u8.hash(h);
            if mode == FingerprintMode::Exact {
                k.hash(h);
                offset.hash(h);
            }
            hash_plan(input, mode, h);
        }
    }
}

fn hash_expr(e: &Expr, mode: FingerprintMode, h: &mut DefaultHasher) {
    // Render to text; in Shape mode, literals become placeholders.
    let s = e.to_string();
    if mode == FingerprintMode::Exact {
        s.hash(h);
    } else {
        shape_of(e).hash(h);
    }
}

fn shape_of(e: &Expr) -> String {
    match e {
        Expr::Literal(_) => "?".into(),
        Expr::Column(c) => c.name.clone(),
        Expr::Cmp(op, a, b) => format!("({} {} {})", shape_of(a), op.sql(), shape_of(b)),
        Expr::And(xs) => format!(
            "AND({})",
            xs.iter().map(shape_of).collect::<Vec<_>>().join(",")
        ),
        Expr::Or(xs) => format!(
            "OR({})",
            xs.iter().map(shape_of).collect::<Vec<_>>().join(",")
        ),
        Expr::Not(x) => format!("NOT({})", shape_of(x)),
        Expr::IsNull(x) => format!("ISNULL({})", shape_of(x)),
        Expr::Arith(op, a, b) => format!("({} {} {})", shape_of(a), op.sql(), shape_of(b)),
        Expr::Neg(x) => format!("NEG({})", shape_of(x)),
        Expr::If(c, t, e2) => format!("IF({},{},{})", shape_of(c), shape_of(t), shape_of(e2)),
        Expr::Like(x, _) => format!("LIKE({},?)", shape_of(x)),
        Expr::StartsWith(x, _) => format!("SW({},?)", shape_of(x)),
        Expr::InList(x, _) => format!("IN({},?)", shape_of(x)),
        Expr::Coalesce(xs) => format!(
            "COALESCE({})",
            xs.iter().map(shape_of).collect::<Vec<_>>().join(",")
        ),
        Expr::Abs(x) => format!("ABS({})", shape_of(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggFunc, PlanBuilder};
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Field, Schema};
    use snowprune_types::ScalarType;

    fn tracking() -> Schema {
        Schema::new(vec![
            Field::new("area", ScalarType::Str),
            Field::new("species", ScalarType::Str),
            Field::new("s", ScalarType::Int),
            Field::new("num_sightings", ScalarType::Int),
        ])
    }

    fn trails() -> Schema {
        Schema::new(vec![
            Field::new("mountain", ScalarType::Str),
            Field::new("altit", ScalarType::Int),
        ])
    }

    #[test]
    fn limit_pushdown_through_filter() {
        let p = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("species").like("Alpine%"))
            .limit(3)
            .build();
        match limit_pushdown(&p) {
            LimitPushdown::Supported {
                table,
                k,
                predicates,
                ..
            } => {
                assert_eq!(table, "tracking_data");
                assert_eq!(k, 3);
                assert_eq!(predicates.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_blocked_by_aggregate_and_inner_join() {
        let agg = PlanBuilder::scan("tracking_data", tracking())
            .aggregate(vec!["species"], vec![AggFunc::CountStar])
            .limit(10)
            .build();
        assert_eq!(
            limit_pushdown(&agg),
            LimitPushdown::Unsupported {
                blocker: "aggregation"
            }
        );
        let join = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::Inner,
            )
            .limit(10)
            .build();
        assert_eq!(
            limit_pushdown(&join),
            LimitPushdown::Unsupported { blocker: "join" }
        );
    }

    #[test]
    fn limit_passes_outer_join_build_side() {
        let p = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::OuterPreserveBuild,
            )
            .limit(5)
            .build();
        match limit_pushdown(&p) {
            LimitPushdown::Supported { table, .. } => assert_eq!(table, "trails"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn topk_not_a_limit_query() {
        let p = PlanBuilder::scan("tracking_data", tracking())
            .order_by("num_sightings", true)
            .limit(3)
            .build();
        assert_eq!(limit_pushdown(&p), LimitPushdown::NotALimitQuery);
        let spec = detect_topk(&p).unwrap();
        assert_eq!(spec.shape, TopKShape::AboveScan);
        assert_eq!(spec.order_column, "num_sightings");
        assert!(spec.desc);
    }

    #[test]
    fn topk_shapes_of_figure7() {
        // (a) with filter in between.
        let a = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("s").ge(lit(50i64)))
            .order_by("num_sightings", true)
            .limit(3)
            .build();
        assert_eq!(detect_topk(&a).unwrap().shape, TopKShape::AboveScan);

        // (b) order column from probe side.
        let b = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::Inner,
            )
            .order_by("num_sightings", true)
            .limit(3)
            .build();
        let sb = detect_topk(&b).unwrap();
        assert_eq!(sb.shape, TopKShape::JoinProbeSide);
        assert_eq!(sb.target_table, "tracking_data");

        // (c) order column from the preserved build side of an outer join.
        let c = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::OuterPreserveBuild,
            )
            .order_by("altit", false)
            .limit(3)
            .build();
        let sc = detect_topk(&c).unwrap();
        assert_eq!(sc.shape, TopKShape::OuterJoinBuildSide);
        assert_eq!(sc.target_table, "trails");
        // Same plan as inner join: build-side pruning unsupported.
        let c_inner = PlanBuilder::scan("trails", trails())
            .join(
                PlanBuilder::scan("tracking_data", tracking()),
                "mountain",
                "area",
                JoinType::Inner,
            )
            .order_by("altit", false)
            .limit(3)
            .build();
        assert!(detect_topk(&c_inner).is_none());

        // (d) ORDER BY a grouping key.
        let d = PlanBuilder::scan("tracking_data", tracking())
            .aggregate(vec!["species"], vec![AggFunc::CountStar])
            .order_by("species", true)
            .limit(3)
            .build();
        assert_eq!(detect_topk(&d).unwrap().shape, TopKShape::AboveAggregation);

        // ORDER BY an aggregate output: unsupported.
        let e = PlanBuilder::scan("tracking_data", tracking())
            .aggregate(vec!["species"], vec![AggFunc::CountStar])
            .order_by("count", true)
            .limit(3)
            .build();
        assert!(detect_topk(&e).is_none());
    }

    #[test]
    fn predicate_columns_collected_from_scans_and_filters() {
        let p = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("s").ge(lit(50i64)).and(col("area").eq(lit("x"))))
            .build();
        let post = Plan::Filter {
            input: Box::new(p),
            predicate: col("num_sightings").lt(lit(10i64)),
        };
        assert_eq!(
            predicate_column_names(&post),
            vec!["area".to_owned(), "num_sightings".into(), "s".into()]
        );
        let bare = PlanBuilder::scan("tracking_data", tracking()).build();
        assert!(predicate_column_names(&bare).is_empty());
    }

    #[test]
    fn shape_signature_abstracts_literals_and_k() {
        let filt = |lo: i64, hi: i64| {
            PlanBuilder::scan("tracking_data", tracking())
                .filter(col("s").between(lit(lo), lit(hi)))
                .build()
        };
        let a = shape_signature(&filt(10, 90)).unwrap();
        let b = shape_signature(&filt(20, 80)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.need, None);
        assert_eq!(a.ranges.len(), 1);
        assert!(a.ranges[0].contains(&b.ranges[0]), "[10,90] ⊇ [20,80]");
        assert!(!b.ranges[0].contains(&a.ranges[0]));
        // `>= 50` and `> 50` share a shape (both pin the same column); the
        // inclusivity lives in the range.
        let ge = shape_signature(
            &PlanBuilder::scan("tracking_data", tracking())
                .filter(col("s").ge(lit(50i64)))
                .build(),
        )
        .unwrap();
        let gt = shape_signature(
            &PlanBuilder::scan("tracking_data", tracking())
                .filter(col("s").gt(lit(50i64)))
                .build(),
        )
        .unwrap();
        assert_eq!(ge.fingerprint, gt.fingerprint);
        assert!(ge.ranges[0].contains(&gt.ranges[0]));
        assert!(!gt.ranges[0].contains(&ge.ranges[0]));
        // Top-k plans: k/offset land in `need`, not the hash.
        let topk = |t: i64, k: u64| {
            PlanBuilder::scan("tracking_data", tracking())
                .filter(col("s").ge(lit(t)))
                .order_by("num_sightings", true)
                .limit(k)
                .build()
        };
        let t1 = shape_signature(&topk(50, 10)).unwrap();
        let t2 = shape_signature(&topk(60, 3)).unwrap();
        assert_eq!(t1.fingerprint, t2.fingerprint);
        assert_eq!((t1.need, t2.need), (Some(10), Some(3)));
        // ...but a top-k never collides with its bare filter chain, and a
        // different order column or direction changes the shape.
        assert_ne!(t1.fingerprint, ge.fingerprint);
        let asc = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("s").ge(lit(50i64)))
            .order_by("num_sightings", false)
            .limit(10)
            .build();
        assert_ne!(shape_signature(&asc).unwrap().fingerprint, t1.fingerprint);
        // Different constrained columns are different shapes.
        let other_col = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("num_sightings").ge(lit(50i64)))
            .build();
        assert_ne!(
            shape_signature(&other_col).unwrap().fingerprint,
            ge.fingerprint
        );
        // Flipped operand order normalizes: `50 <= s` is `s >= 50`.
        let flipped = PlanBuilder::scan("tracking_data", tracking())
            .filter(Expr::Cmp(
                CmpOp::Le,
                Box::new(lit(50i64)),
                Box::new(col("s")),
            ))
            .build();
        let f = shape_signature(&flipped).unwrap();
        assert_eq!(f.fingerprint, ge.fingerprint);
        assert!(f.ranges[0].same_interval(&ge.ranges[0]));
    }

    #[test]
    fn shape_signature_rejects_non_range_shapes() {
        let scan = || PlanBuilder::scan("tracking_data", tracking());
        // LIKE literals are not interval-comparable.
        assert!(shape_signature(&scan().filter(col("area").like("M%")).build()).is_none());
        // OR / NOT / NE / IN break the conjunction-of-ranges form.
        assert!(shape_signature(
            &scan()
                .filter(col("s").ge(lit(1i64)).or(col("s").lt(lit(0i64))))
                .build()
        )
        .is_none());
        assert!(shape_signature(&scan().filter(col("s").ge(lit(1i64)).not()).build()).is_none());
        assert!(shape_signature(&scan().filter(col("s").ne(lit(1i64))).build()).is_none());
        assert!(shape_signature(
            &scan()
                .filter(col("s").in_list(vec![Value::Int(1), Value::Int(2)]))
                .build()
        )
        .is_none());
        // NULL literals match no rows and are not range-representable.
        assert!(shape_signature(
            &scan()
                .filter(col("s").ge(Expr::Literal(Value::Null)))
                .build()
        )
        .is_none());
        // Mixed-type bounds on the same side of one column cannot be
        // intersected.
        assert!(shape_signature(
            &scan()
                .filter(col("s").ge(lit(1i64)).and(col("s").ge(lit("z"))))
                .build()
        )
        .is_none());
        // Bare LIMIT (no ORDER BY) and non-chain shapes are ineligible.
        assert!(shape_signature(&scan().filter(col("s").ge(lit(1i64))).limit(5).build()).is_none());
        let join = PlanBuilder::scan("trails", trails())
            .join(scan(), "mountain", "area", JoinType::Inner)
            .build();
        assert!(shape_signature(&join).is_none());
        // An unpredicated chain is eligible with empty ranges.
        let bare =
            shape_signature(&scan().order_by("num_sightings", true).limit(3).build()).unwrap();
        assert!(bare.ranges.is_empty());
        assert_eq!(bare.need, Some(3));
    }

    #[test]
    fn fingerprints_distinguish_literals_only_in_exact_mode() {
        let q = |k: i64| {
            PlanBuilder::scan("tracking_data", tracking())
                .filter(col("s").ge(lit(k)))
                .order_by("num_sightings", true)
                .limit(3)
                .build()
        };
        let (p1, p2) = (q(50), (q(99)));
        assert_eq!(
            fingerprint(&p1, FingerprintMode::Shape),
            fingerprint(&p2, FingerprintMode::Shape)
        );
        assert_ne!(
            fingerprint(&p1, FingerprintMode::Exact),
            fingerprint(&p2, FingerprintMode::Exact)
        );
        // Different order column changes the shape too.
        let p3 = PlanBuilder::scan("tracking_data", tracking())
            .filter(col("s").ge(lit(50i64)))
            .order_by("s", true)
            .limit(3)
            .build();
        assert_ne!(
            fingerprint(&p1, FingerprintMode::Shape),
            fingerprint(&p3, FingerprintMode::Shape)
        );
    }
}
