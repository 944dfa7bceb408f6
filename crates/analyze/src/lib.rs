//! Static plan analysis for `snowprune`: the admission-time verification
//! layer that runs **before** morsel generation.
//!
//! The paper's pruning guarantees (§4 scan-set pruning, §8.2
//! predicate-cache replay) are only sound when every executed plan
//! satisfies preconditions the engine otherwise assumes silently:
//! resolvable columns, Kleene-correct predicate typing, provenance
//! threading on cacheable spines. This crate checks them statically:
//!
//! * **Schema/column resolution and type inference** ([`typecheck`]):
//!   every column reference resolves; comparisons, boolean combinators,
//!   arithmetic, patterns, aggregates, and sort keys are typed under SQL's
//!   three-valued semantics, flagging expressions that are provably
//!   NULL/UNKNOWN on every row.
//! * **Engine-invariant checks** ([`cacheability`]): zone-map-eligible
//!   conjunct detection per scan, provenance preservation on cacheable
//!   spines, and §8.2 cache-shape eligibility with a structured
//!   explanation that surfaces through the executor's `ExecReport`.
//!
//! Findings are typed [`Diagnostic`] values. [`verify`] rejects plans
//! with error-severity findings as
//! [`Error::PlanRejected`]; the
//! executor calls it behind `ExecConfig::verify_plans` (default on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cacheability;
pub mod typecheck;

use snowprune_plan::{AggFunc, Plan};
use snowprune_storage::Schema;
use snowprune_types::{Error, Result};

pub use cacheability::{explain_cacheability, CacheReport, CacheShape};
pub use snowprune_types::{DiagCode, Diagnostic, Severity};

/// The result of analyzing one plan.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Every finding, in plan order (errors, warnings, and infos).
    pub diagnostics: Vec<Diagnostic>,
    /// The §8.2 cache-shape eligibility explanation.
    pub cacheability: CacheReport,
}

impl Analysis {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// True when the plan has no error-severity findings.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// Analyze a plan with top-k pruning assumed enabled (the default
/// configuration). See [`analyze_with`].
pub fn analyze(plan: &Plan) -> Analysis {
    analyze_with(plan, true)
}

/// Analyze a plan. `topk_enabled` is the executor's
/// `enable_topk_pruning` flag, which gates top-k cache eligibility.
pub fn analyze_with(plan: &Plan, topk_enabled: bool) -> Analysis {
    let mut diags = Vec::new();
    let mut path = Vec::new();
    walk(plan, &mut path, &mut diags);
    let cacheability = explain_cacheability(plan, topk_enabled);
    diags.extend(cacheability::cacheability_diags(
        plan,
        &cacheability,
        &label(plan),
    ));
    Analysis {
        diagnostics: diags,
        cacheability,
    }
}

/// Analyze a plan and reject it when any error-severity diagnostic is
/// found. On success returns the full analysis (warnings and infos
/// included); on failure returns
/// [`Error::PlanRejected`] carrying
/// the error diagnostics.
pub fn verify(plan: &Plan) -> Result<Analysis> {
    verify_with(plan, true)
}

/// [`verify`] with an explicit top-k pruning flag (see [`analyze_with`]).
pub fn verify_with(plan: &Plan, topk_enabled: bool) -> Result<Analysis> {
    let analysis = analyze_with(plan, topk_enabled);
    if analysis.is_clean() {
        Ok(analysis)
    } else {
        Err(Error::PlanRejected(analysis.errors().cloned().collect()))
    }
}

/// Display label of one plan node (path segment).
fn label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, .. } => format!("Scan({table})"),
        Plan::Filter { .. } => "Filter".into(),
        Plan::Project { .. } => "Project".into(),
        Plan::Join { .. } => "Join".into(),
        Plan::Aggregate { .. } => "Aggregate".into(),
        Plan::Sort { .. } => "Sort".into(),
        Plan::Limit { .. } => "Limit".into(),
    }
}

fn path_str(path: &[String], suffix: &str) -> String {
    format!("{}{}", path.join("/"), suffix)
}

/// Bottom-up schema-carrying walk. Returns the node's output schema, or
/// `None` when it could not be resolved (the cause is already reported);
/// downstream checks that need the schema are skipped rather than
/// re-reported.
fn walk(plan: &Plan, path: &mut Vec<String>, diags: &mut Vec<Diagnostic>) -> Option<Schema> {
    path.push(label(plan));
    let schema = walk_inner(plan, path, diags);
    path.pop();
    schema
}

fn walk_inner(plan: &Plan, path: &mut Vec<String>, diags: &mut Vec<Diagnostic>) -> Option<Schema> {
    match plan {
        Plan::Scan {
            schema, predicate, ..
        } => {
            if let Some(pred) = predicate {
                let at = path_str(path, ".predicate");
                typecheck::check_predicate(pred, schema, &at, diags);
                diags.extend(cacheability::zone_map_diags(pred, &at));
            }
            Some(schema.clone())
        }
        Plan::Filter { input, predicate } => {
            let schema = walk(input, path, diags)?;
            typecheck::check_predicate(predicate, &schema, &path_str(path, ".predicate"), diags);
            Some(schema)
        }
        Plan::Project { input, columns } => {
            let schema = walk(input, path, diags)?;
            let mut fields = Vec::with_capacity(columns.len());
            for c in columns {
                match schema.fields().iter().find(|f| &f.name == c) {
                    Some(f) => fields.push(f.clone()),
                    None => diags.push(Diagnostic::error(
                        DiagCode::UnknownColumn,
                        path_str(path, ""),
                        format!("projected column `{c}` is not in the input schema"),
                    )),
                }
            }
            Some(Schema::new(fields))
        }
        Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            ..
        } => {
            path.push("build".into());
            let bs = walk(build, path, diags);
            path.pop();
            path.push("probe".into());
            let ps = walk(probe, path, diags);
            path.pop();
            let at = path_str(path, "");
            let mut key_field = |schema: &Option<Schema>,
                                 key: &str,
                                 side: &str|
             -> Option<snowprune_types::ScalarType> {
                let s = schema.as_ref()?;
                match s.fields().iter().find(|f| f.name == key) {
                    Some(f) => Some(f.ty),
                    None => {
                        diags.push(Diagnostic::error(
                            DiagCode::UnknownColumn,
                            at.clone(),
                            format!("{side} key `{key}` is not produced by the {side} side"),
                        ));
                        None
                    }
                }
            };
            let bt = key_field(&bs, build_key, "build");
            let pt = key_field(&ps, probe_key, "probe");
            if let (Some(bt), Some(pt)) = (bt, pt) {
                if !bt.comparable_with(pt) {
                    diags.push(Diagnostic::error(
                        DiagCode::JoinKeyMismatch,
                        at,
                        format!(
                            "join keys `{build_key}` ({bt}) and `{probe_key}` ({pt}) can \
                             never compare equal: the join matches no pair"
                        ),
                    ));
                }
            }
            Some(bs?.join(&ps?, "probe_"))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = walk(input, path, diags)?;
            let at = path_str(path, "");
            let mut fields = Vec::new();
            for g in group_by {
                match schema.fields().iter().find(|f| &f.name == g) {
                    Some(f) => fields.push(f.clone()),
                    None => diags.push(Diagnostic::error(
                        DiagCode::UnknownColumn,
                        at.clone(),
                        format!("GROUP BY column `{g}` is not in the input schema"),
                    )),
                }
            }
            for agg in aggs {
                let input_ty = match agg.input_column() {
                    None => None,
                    Some(c) => match schema.fields().iter().find(|f| f.name == c) {
                        Some(f) => Some(f.ty),
                        None => {
                            diags.push(Diagnostic::error(
                                DiagCode::UnknownColumn,
                                at.clone(),
                                format!("aggregate input column `{c}` is not in the input schema"),
                            ));
                            continue;
                        }
                    },
                };
                if let (AggFunc::Sum(c) | AggFunc::Avg(c), Some(ty)) = (agg, input_ty) {
                    if !ty.is_numeric() {
                        diags.push(Diagnostic::error(
                            DiagCode::BadAggregateInput,
                            at.clone(),
                            format!(
                                "{} over non-numeric column `{c}` ({ty})",
                                if matches!(agg, AggFunc::Sum(_)) {
                                    "SUM"
                                } else {
                                    "AVG"
                                },
                            ),
                        ));
                    }
                }
                let out_ty = match agg {
                    AggFunc::CountStar | AggFunc::Count(_) => snowprune_types::ScalarType::Int,
                    AggFunc::Avg(_) => snowprune_types::ScalarType::Float,
                    AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_) => {
                        input_ty.unwrap_or(snowprune_types::ScalarType::Int)
                    }
                };
                fields.push(snowprune_storage::Field::new(agg.output_name(), out_ty));
            }
            Some(Schema::new(fields))
        }
        Plan::Sort { input, keys } => {
            let schema = walk(input, path, diags)?;
            if keys.is_empty() {
                diags.push(Diagnostic::error(
                    DiagCode::EmptySortKeys,
                    path_str(path, ""),
                    "Sort with no keys: the output order (and any LIMIT above it) is \
                     unspecified",
                ));
            }
            for (i, key) in keys.iter().enumerate() {
                typecheck::infer(
                    &key.expr,
                    &schema,
                    &path_str(path, &format!(".keys[{i}]")),
                    diags,
                );
            }
            Some(schema)
        }
        Plan::Limit { input, .. } => walk(input, path, diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_plan::{JoinType, PlanBuilder, SortKey};
    use snowprune_storage::Field;
    use snowprune_types::ScalarType;

    fn fact() -> Schema {
        Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("b", ScalarType::Int),
            Field::new("c", ScalarType::Str),
        ])
    }

    fn dim() -> Schema {
        Schema::new(vec![
            Field::new("id", ScalarType::Int),
            Field::new("label", ScalarType::Str),
        ])
    }

    #[test]
    fn clean_topk_plan_is_cacheable_with_reason() {
        let p = PlanBuilder::scan("fact", fact())
            .filter(col("b").ge(lit(10i64)))
            .order_by("a", true)
            .limit(5)
            .build();
        let a = analyze(&p);
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert!(a.cacheability.is_cacheable());
        assert!(a.diagnostics.iter().any(|d| d.code == DiagCode::Cacheable));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ZoneMapEligibility));
    }

    #[test]
    fn unknown_filter_column_is_rejected_with_path() {
        let p = PlanBuilder::scan("fact", fact())
            .filter(col("nope").ge(lit(10i64)))
            .build();
        let err = verify(&p).unwrap_err();
        let Error::PlanRejected(ds) = err else {
            panic!("expected PlanRejected");
        };
        assert_eq!(ds[0].code, DiagCode::UnknownColumn);
        assert!(
            ds[0].plan_path.contains("Scan(fact).predicate"),
            "{}",
            ds[0].plan_path
        );
    }

    #[test]
    fn join_key_type_mismatch_is_rejected() {
        let p = PlanBuilder::scan("dim", dim())
            .join(
                PlanBuilder::scan("fact", fact()),
                "label",
                "b",
                JoinType::Inner,
            )
            .build();
        let a = analyze(&p);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::JoinKeyMismatch && d.is_error()));
    }

    #[test]
    fn empty_sort_keys_are_rejected() {
        let p = PlanBuilder::scan("fact", fact())
            .sort(vec![])
            .limit(3)
            .build();
        let a = analyze(&p);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::EmptySortKeys));
    }

    #[test]
    fn unknown_sort_key_is_rejected() {
        let p = PlanBuilder::scan("fact", fact())
            .order_by("zz", false)
            .build();
        let a = analyze(&p);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UnknownColumn && d.plan_path.contains("Sort.keys[0]")));
    }

    #[test]
    fn sum_over_string_is_rejected() {
        let p = PlanBuilder::scan("fact", fact())
            .aggregate(vec!["a"], vec![snowprune_plan::AggFunc::Sum("c".into())])
            .build();
        let a = analyze(&p);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::BadAggregateInput));
    }

    #[test]
    fn self_join_topk_loses_provenance() {
        // Top-k ordered by a probe-side column where the probe table is
        // also scanned on the build side: classified, but uncacheable.
        let p = PlanBuilder::scan("fact", fact())
            .project(vec!["b"])
            .join(PlanBuilder::scan("fact", fact()), "b", "a", JoinType::Inner)
            .order_by("probe_a", true)
            .limit(3)
            .build();
        let a = analyze(&p);
        // Whether or not this exact shape classifies as a join top-k, it
        // must not be cacheable, and if it classifies the warning fires.
        assert!(!a.cacheability.is_cacheable());
    }

    #[test]
    fn aggregate_over_filtered_chain_explains_cacheable() {
        let p = PlanBuilder::scan("fact", fact())
            .filter(col("a").ge(lit(1i64)))
            .aggregate(vec!["c"], vec![snowprune_plan::AggFunc::CountStar])
            .build();
        let a = analyze(&p);
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert_eq!(
            a.cacheability.shape,
            Some(CacheShape::Filter {
                table: "fact".into()
            })
        );
    }

    #[test]
    fn bare_limit_explains_nondeterminism() {
        let p = PlanBuilder::scan("fact", fact())
            .filter(col("a").ge(lit(1i64)))
            .limit(4)
            .build();
        let a = analyze(&p);
        // A predicated chain under a bare LIMIT *is* split by the chain
        // walk in the executor... the LIMIT node itself blocks the chain,
        // so it is not cacheable.
        assert!(!a.cacheability.is_cacheable());
    }

    #[test]
    fn multi_key_sort_checks_every_key() {
        let p = PlanBuilder::scan("fact", fact())
            .sort(vec![
                SortKey {
                    expr: col("a"),
                    desc: false,
                },
                SortKey {
                    expr: col("nope"),
                    desc: true,
                },
            ])
            .limit(2)
            .build();
        let a = analyze(&p);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UnknownColumn && d.plan_path.contains("keys[1]")));
    }
}
