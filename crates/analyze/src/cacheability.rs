//! Engine-invariant checks: §8.2 cache-shape eligibility with
//! explanations, provenance preservation on cacheable spines, and
//! zone-map conjunct detection for scan predicates.
//!
//! [`explain_cacheability`] *is* the predicate cache's admission decision:
//! the executor consults the cache for exactly the plans whose
//! [`CacheReport::shape`] is `Some`, recording against the table and
//! ordering column the shape names. The report additionally records *why*
//! each plan is or isn't eligible, which surfaces through `ExecReport`.

use snowprune_expr::Expr;
use snowprune_plan::{detect_topk, Plan, TopKShape};
use snowprune_types::{DiagCode, Diagnostic};

/// Which §8.2 cache shape a plan matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheShape {
    /// A top-k spine: the heap records survivor partitions of
    /// `order_column` on `table`.
    TopK {
        /// Table whose scan the cached contributor set restricts.
        table: String,
        /// The ORDER BY column driving the boundary.
        order_column: String,
    },
    /// A filtered chain (or filtered aggregation input): filter survivors
    /// of `table` are the replay set.
    Filter {
        /// Table whose scan the cached contributor set restricts.
        table: String,
    },
}

/// Structured "why is/isn't this plan cacheable" report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheReport {
    /// The matched cache shape, or `None` when the plan is not cacheable.
    pub shape: Option<CacheShape>,
    /// Human-readable reasons backing the decision (never empty).
    pub reasons: Vec<String>,
}

impl CacheReport {
    fn cacheable(shape: CacheShape, reason: impl Into<String>) -> Self {
        CacheReport {
            shape: Some(shape),
            reasons: vec![reason.into()],
        }
    }

    fn not_cacheable(reason: impl Into<String>) -> Self {
        CacheReport {
            shape: None,
            reasons: vec![reason.into()],
        }
    }
}

/// Explain a plan's §8.2 cache-shape eligibility. `topk_enabled` must be
/// the executor's `enable_topk_pruning` flag: only the boundary-heap
/// execution path records survivor provenance, so disabling top-k pruning
/// disables top-k caching with it.
pub fn explain_cacheability(plan: &Plan, topk_enabled: bool) -> CacheReport {
    if let Some(spec) = detect_topk(plan) {
        if !topk_enabled {
            return CacheReport::not_cacheable(
                "top-k pruning is disabled: only the boundary-heap execution path \
                 records survivor provenance, so there is nothing to cache",
            );
        }
        return match spec.shape {
            TopKShape::AboveScan => CacheReport::cacheable(
                CacheShape::TopK {
                    table: spec.target_table.clone(),
                    order_column: spec.order_column.clone(),
                },
                format!(
                    "top-k above a scan of `{}`: the heap records each survivor's \
                     source partition (plus boundary ties) exactly",
                    spec.target_table
                ),
            ),
            TopKShape::JoinProbeSide | TopKShape::OuterJoinBuildSide => {
                if count_scans_of(plan, &spec.target_table) == 1 {
                    CacheReport::cacheable(
                        CacheShape::TopK {
                            table: spec.target_table.clone(),
                            order_column: spec.order_column.clone(),
                        },
                        format!(
                            "top-k through a join: joined rows carry `{}`-side partition \
                             provenance and the table is scanned exactly once; the other \
                             side's tables become auxiliary version dependencies",
                            spec.target_table
                        ),
                    )
                } else {
                    CacheReport::not_cacheable(format!(
                        "target table `{}` is scanned more than once (self-join): a warm \
                         replay restricting every scan to one side's contributors would \
                         be unsound",
                        spec.target_table
                    ))
                }
            }
            TopKShape::AboveAggregation => CacheReport::not_cacheable(
                "top-k above GROUP BY: distinct-key filtering drops rows before the \
                 heap sees them, so survivors are not partition-attributable",
            ),
        };
    }
    // Non-top-k shapes: a Filter*/Project* chain over one scan, optionally
    // under an aggregation, caches the scan's filter survivors.
    if let Plan::Aggregate { input, .. } = plan {
        return match chain_scan(input) {
            Some((table, Some(_))) => CacheReport::cacheable(
                CacheShape::Filter {
                    table: table.to_owned(),
                },
                format!(
                    "filtered aggregation over one scan of `{table}`: the aggregate \
                     folds exactly the chain's output rows, so the scan's filter \
                     survivors replay the whole aggregation"
                ),
            ),
            Some((table, None)) => CacheReport::not_cacheable(format!(
                "aggregation over an unpredicated scan of `{table}`: every partition \
                 contributes, so a cached contributor set could never restrict the scan"
            )),
            None => CacheReport::not_cacheable(
                "aggregation input is not a Filter/Project chain over a single scan \
                 (joins or nested aggregates in between)",
            ),
        };
    }
    match chain_scan(plan) {
        Some((table, Some(_))) => CacheReport::cacheable(
            CacheShape::Filter {
                table: table.to_owned(),
            },
            format!(
                "filtered chain over one scan of `{table}`: partitions that emitted a \
                 selected row are recorded as the replay set"
            ),
        ),
        Some((table, None)) => CacheReport::not_cacheable(format!(
            "unpredicated scan of `{table}`: every partition contributes, so there is \
             nothing a replay could skip"
        )),
        None => {
            if bare_limit(plan) {
                CacheReport::not_cacheable(
                    "LIMIT without ORDER BY: the result is legally nondeterministic \
                     (early stop), so the contributing set is timing-dependent",
                )
            } else {
                CacheReport::not_cacheable(
                    "plan shape is not a (possibly aggregated) Filter/Project chain \
                     over a single scan and not a prunable top-k spine",
                )
            }
        }
    }
}

/// Diagnostics derived from the cacheability report: one Info explaining
/// the decision, plus a Warning when a would-be-cacheable join-top-k spine
/// loses provenance to a repeated target scan.
pub fn cacheability_diags(plan: &Plan, report: &CacheReport, path: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match &report.shape {
        Some(_) => out.push(Diagnostic::info(
            DiagCode::Cacheable,
            path,
            report.reasons.join("; "),
        )),
        None => {
            out.push(Diagnostic::info(
                DiagCode::NotCacheable,
                path,
                report.reasons.join("; "),
            ));
            // A top-k spine that classifies but scans its target twice has
            // *severed provenance* — worth a warning, because the plan
            // author probably expected it to cache.
            if let Some(spec) = detect_topk(plan) {
                if matches!(
                    spec.shape,
                    TopKShape::JoinProbeSide | TopKShape::OuterJoinBuildSide
                ) && count_scans_of(plan, &spec.target_table) != 1
                {
                    out.push(Diagnostic::warning(
                        DiagCode::ProvenanceNotAttributable,
                        path,
                        format!(
                            "top-k spine targets `{}`, but the plan scans it {} times: \
                             row provenance cannot be attributed to a single scan",
                            spec.target_table,
                            count_scans_of(plan, &spec.target_table)
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Zone-map eligibility of a scan predicate: an Info counting how many
/// conjuncts the zone-map pruner can definitely evaluate, plus a Warning
/// when none can (filter pruning will not skip any partition).
///
/// The detection is a *conservative* proxy for
/// `snowprune_expr::pruneval`: a conjunct counts as eligible when it is a
/// single-column comparison/pattern/membership test — shapes whose
/// min/max range derivation is exact. Multi-column conjuncts may still
/// prune imprecisely at runtime; they are simply not counted here.
pub fn zone_map_diags(predicate: &Expr, path: &str) -> Vec<Diagnostic> {
    let conjuncts = predicate.split_conjunction();
    let total = conjuncts.len();
    let eligible = conjuncts.iter().filter(|c| conjunct_eligible(c)).count();
    let mut out = vec![Diagnostic::info(
        DiagCode::ZoneMapEligibility,
        path,
        format!("{eligible} of {total} conjuncts support exact zone-map evaluation"),
    )];
    if eligible == 0 {
        out.push(Diagnostic::warning(
            DiagCode::NoPrunableConjunct,
            path,
            "no conjunct of this scan predicate is zone-map eligible: filter \
             pruning cannot skip any partition for this scan",
        ));
    }
    out
}

/// Is this conjunct a shape the zone-map evaluator handles exactly?
fn conjunct_eligible(e: &Expr) -> bool {
    match e {
        Expr::Cmp(_, a, b) => matches!(
            (a.as_ref(), b.as_ref()),
            (Expr::Column(_), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(_))
                if !v.is_null()
        ),
        Expr::Like(x, _) | Expr::StartsWith(x, _) => matches!(x.as_ref(), Expr::Column(_)),
        Expr::InList(x, vals) => matches!(x.as_ref(), Expr::Column(_)) && !vals.is_empty(),
        Expr::IsNull(x) => matches!(x.as_ref(), Expr::Column(_)),
        Expr::Not(x) => conjunct_eligible(x),
        _ => false,
    }
}

/// The scan at the bottom of a Filter*/Project* chain, with its pushed
/// predicate. Mirrors the executor's `split_chain`: only the **scan's
/// own** predicate counts toward cacheability (plan construction pushes
/// filters into scans; a stray `Filter` node above an unpredicated scan
/// records nothing).
fn chain_scan(plan: &Plan) -> Option<(&str, Option<&Expr>)> {
    match plan {
        Plan::Scan {
            table, predicate, ..
        } => Some((table.as_str(), predicate.as_ref())),
        Plan::Filter { input, .. } | Plan::Project { input, .. } => chain_scan(input),
        _ => None,
    }
}

fn count_scans_of(plan: &Plan, table: &str) -> usize {
    let mut n = 0;
    plan.visit(&mut |p| {
        if let Plan::Scan { table: t, .. } = p {
            if t == table {
                n += 1;
            }
        }
    });
    n
}

fn bare_limit(plan: &Plan) -> bool {
    matches!(plan, Plan::Limit { input, .. } if !matches!(input.as_ref(), Plan::Sort { .. }))
}
