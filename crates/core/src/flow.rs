//! The combined pruning flow (§7): bookkeeping for how the four techniques
//! compose on a query, and aggregation across workloads (Figure 11).
//!
//! Order of application (matching Snowflake): **filter → LIMIT → join →
//! top-k**. Filter and LIMIT pruning run at compile time, join and top-k
//! pruning at execution time. The execution engine drives the techniques;
//! this module owns the accounting.

use std::collections::BTreeMap;

/// The four techniques as bit flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TechniqueSet(pub u8);

impl TechniqueSet {
    /// The empty set: no technique pruned anything.
    pub const NONE: TechniqueSet = TechniqueSet(0);
    /// Min/max filter pruning (§3).
    pub const FILTER: u8 = 1;
    /// LIMIT pruning via fully-matching partitions (§4).
    pub const LIMIT: u8 = 2;
    /// Join probe-side pruning (§6).
    pub const JOIN: u8 = 4;
    /// Top-k boundary pruning (§5).
    pub const TOPK: u8 = 8;

    /// Set (or leave unset) one technique flag, builder style.
    pub fn with(mut self, flag: u8, on: bool) -> Self {
        if on {
            self.0 |= flag;
        }
        self
    }

    /// Is the given technique flag set?
    pub fn contains(self, flag: u8) -> bool {
        self.0 & flag != 0
    }

    /// Human-readable combination label, e.g. `filter+topk`.
    pub fn label(self) -> String {
        if self.0 == 0 {
            return "none".into();
        }
        let mut parts = Vec::new();
        if self.contains(Self::FILTER) {
            parts.push("filter");
        }
        if self.contains(Self::LIMIT) {
            parts.push("limit");
        }
        if self.contains(Self::JOIN) {
            parts.push("join");
        }
        if self.contains(Self::TOPK) {
            parts.push("topk");
        }
        parts.join("+")
    }
}

/// Per-query pruning report assembled by the execution pipeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryPruningReport {
    /// Total partitions across all table scans before any pruning.
    pub partitions_total: u64,
    /// Partitions removed by filter pruning (applied first).
    pub pruned_by_filter: u64,
    /// Partitions removed by LIMIT pruning (applied second).
    pub pruned_by_limit: u64,
    /// Partitions removed by join pruning (applied third).
    pub pruned_by_join: u64,
    /// Partitions removed by top-k pruning (applied last).
    pub pruned_by_topk: u64,
    /// Partitions actually loaded by execution.
    pub partitions_scanned: u64,
    /// Fully-matching partitions identified during filter pruning.
    pub fully_matching: u64,
    /// Filter leaves disabled by the §3.2 cutoff, summed over the query's
    /// compiled scans.
    pub leaves_cut_off: u64,
    /// Whether filter pruning was *eligible* (not just effective).
    pub filter_eligible: bool,
    /// Whether LIMIT pruning was eligible.
    pub limit_eligible: bool,
    /// Whether join pruning was eligible.
    pub join_eligible: bool,
    /// Whether top-k pruning was eligible.
    pub topk_eligible: bool,
}

impl QueryPruningReport {
    /// Techniques that pruned at least one partition (Figure 11's notion of
    /// a query being "subject to" a technique).
    pub fn techniques_used(&self) -> TechniqueSet {
        TechniqueSet::NONE
            .with(TechniqueSet::FILTER, self.pruned_by_filter > 0)
            .with(TechniqueSet::LIMIT, self.pruned_by_limit > 0)
            .with(TechniqueSet::JOIN, self.pruned_by_join > 0)
            .with(TechniqueSet::TOPK, self.pruned_by_topk > 0)
    }

    /// Overall ratio of partitions never processed, relative to the total
    /// (the "99.4% of micro-partitions across all queries" metric).
    pub fn overall_pruning_ratio(&self) -> f64 {
        if self.partitions_total == 0 {
            return 0.0;
        }
        let pruned = self.partitions_total - self.partitions_scanned.min(self.partitions_total);
        pruned as f64 / self.partitions_total as f64
    }

    /// Per-technique ratios relative to what each technique saw as input,
    /// matching the paper's per-technique figures.
    pub fn filter_ratio(&self) -> f64 {
        ratio(self.pruned_by_filter, self.partitions_total)
    }

    /// LIMIT-pruning ratio over what filter pruning left behind.
    pub fn limit_ratio(&self) -> f64 {
        ratio(
            self.pruned_by_limit,
            self.partitions_total - self.pruned_by_filter,
        )
    }

    /// Join-pruning ratio over what filter and LIMIT pruning left behind.
    pub fn join_ratio(&self) -> f64 {
        ratio(
            self.pruned_by_join,
            self.partitions_total - self.pruned_by_filter - self.pruned_by_limit,
        )
    }

    /// Top-k-pruning ratio over what the other three techniques left.
    pub fn topk_ratio(&self) -> f64 {
        ratio(
            self.pruned_by_topk,
            self.partitions_total
                - self.pruned_by_filter
                - self.pruned_by_limit
                - self.pruned_by_join,
        )
    }
}

fn ratio(pruned: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        pruned as f64 / base as f64
    }
}

/// Aggregates reports across a workload for the Figure 11 flow diagram and
/// the Figure 1 distributions.
#[derive(Clone, Debug, Default)]
pub struct FlowAggregator {
    /// Number of reports folded in.
    pub queries: u64,
    /// Count of queries per technique combination.
    pub combo_counts: BTreeMap<TechniqueSet, u64>,
    /// Sum of `partitions_total` across reports.
    pub total_partitions: u64,
    /// Sum of `partitions_scanned` across reports.
    pub total_scanned: u64,
}

impl FlowAggregator {
    /// Start an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one query's report into the aggregate.
    pub fn add(&mut self, report: &QueryPruningReport) {
        self.queries += 1;
        *self
            .combo_counts
            .entry(report.techniques_used())
            .or_insert(0) += 1;
        self.total_partitions += report.partitions_total;
        self.total_scanned += report.partitions_scanned;
    }

    /// Share of queries where `technique` pruned at least one partition.
    pub fn share_using(&self, flag: u8) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let n: u64 = self
            .combo_counts
            .iter()
            .filter(|(combo, _)| combo.contains(flag))
            .map(|(_, c)| c)
            .sum();
        n as f64 / self.queries as f64
    }

    /// The platform-wide pruning ratio across all partitions of all queries.
    pub fn overall_pruning_ratio(&self) -> f64 {
        if self.total_partitions == 0 {
            return 0.0;
        }
        (self.total_partitions - self.total_scanned.min(self.total_partitions)) as f64
            / self.total_partitions as f64
    }

    /// (combination label, query share) rows for the Figure 11 diagram.
    pub fn combination_shares(&self) -> Vec<(String, f64)> {
        self.combo_counts
            .iter()
            .map(|(combo, count)| (combo.label(), *count as f64 / self.queries.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_set_labels() {
        let s = TechniqueSet::NONE
            .with(TechniqueSet::FILTER, true)
            .with(TechniqueSet::TOPK, true);
        assert_eq!(s.label(), "filter+topk");
        assert_eq!(TechniqueSet::NONE.label(), "none");
    }

    #[test]
    fn report_ratios_compose_in_order() {
        let r = QueryPruningReport {
            partitions_total: 100,
            pruned_by_filter: 50,
            pruned_by_limit: 0,
            pruned_by_join: 25,
            pruned_by_topk: 10,
            partitions_scanned: 15,
            ..Default::default()
        };
        assert_eq!(r.filter_ratio(), 0.5);
        assert_eq!(r.join_ratio(), 0.5); // 25 of the remaining 50
        assert_eq!(r.topk_ratio(), 0.4); // 10 of the remaining 25
        assert_eq!(r.overall_pruning_ratio(), 0.85);
        assert_eq!(r.techniques_used().label(), "filter+join+topk");
    }

    #[test]
    fn aggregator_counts_combinations() {
        let mut agg = FlowAggregator::new();
        let r1 = QueryPruningReport {
            partitions_total: 10,
            pruned_by_filter: 5,
            partitions_scanned: 5,
            ..Default::default()
        };
        agg.add(&r1);
        agg.add(&r1);
        let r2 = QueryPruningReport {
            partitions_total: 10,
            partitions_scanned: 10,
            ..Default::default()
        };
        agg.add(&r2);
        assert_eq!(agg.queries, 3);
        assert!((agg.share_using(TechniqueSet::FILTER) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(agg.share_using(TechniqueSet::TOPK), 0.0);
        assert!((agg.overall_pruning_ratio() - 10.0 / 30.0).abs() < 1e-9);
    }
}
