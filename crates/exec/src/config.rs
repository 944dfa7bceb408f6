//! Execution configuration: which pruning techniques run, and how.

use snowprune_core::filter::FilterPruneConfig;
use snowprune_core::join::SummaryKind;
use snowprune_core::topk::PartitionOrder;
use snowprune_storage::IoCostModel;

/// Knobs controlling the pruning behaviour of the [`crate::Executor`].
/// Every paper experiment toggles some subset of these.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Zone-map filter pruning at scan compilation (§3).
    pub enable_filter_pruning: bool,
    /// Compile-time LIMIT pruning via fully-matching partitions (§4).
    pub enable_limit_pruning: bool,
    /// Join pruning from build-side value summaries (§6).
    pub enable_join_pruning: bool,
    /// Boundary-driven top-k pruning (§5).
    pub enable_topk_pruning: bool,
    /// Partition processing order for top-k scans (§5.3).
    pub topk_order: PartitionOrder,
    /// Upfront boundary initialization from fully-matching partitions (§5.4).
    pub topk_init_boundary: bool,
    /// Build-side summary type for join pruning (§6.1).
    pub join_summary: SummaryKind,
    /// Row-level Bloom filter inside the join operator.
    pub join_bloom: bool,
    /// Scan worker threads (the virtual-warehouse stand-in). 1 = sequential
    /// in-driver scans; > 1 = scans run as morsels on a shared
    /// [`crate::MorselPool`] with this many workers, shared by every query
    /// the executor (or a whole [`crate::Session`]) runs.
    pub scan_threads: usize,
    /// Scan-set entries per morsel handed to a pool worker. Smaller morsels
    /// interleave queries more finely (better fairness, more queue traffic);
    /// larger morsels amortize scheduling.
    pub morsel_partitions: usize,
    /// Partition loads each scan lane keeps in flight ahead of evaluation
    /// (the async prefetch pipeline). 1 = the blocking model (load, then
    /// evaluate, serially); ≥ 2 overlaps simulated object-store GETs with
    /// predicate evaluation, and lets a boundary that tightens mid-flight
    /// *cancel* a load before its I/O cost is ever charged. On pooled
    /// scans a worker claims consecutive morsels of the same lane as one
    /// chain covering the depth, so the window carries across morsel
    /// boundaries and `prefetch_depth > morsel_partitions` overlaps
    /// exactly as deeply as on a sequential scan.
    pub prefetch_depth: usize,
    /// Enable the §8.2 predicate cache: `Session` (and `Executor`) keep a
    /// shared fingerprint-keyed cache of contributing-partition sets and
    /// restrict warm replays to them before morsel generation. Off by
    /// default so counter-exact unit tests and cold-path experiments stay
    /// byte-identical; the differential/bench suites enable it explicitly.
    pub predicate_cache: bool,
    /// Entry capacity of the predicate cache (LRU eviction keyed on hit
    /// recency, with a cost-aware tiebreak).
    pub predicate_cache_capacity: usize,
    /// Fingerprint mode of the predicate cache: `Exact` serves only
    /// identical plans; `Shape` additionally falls back to same-shape
    /// entries whose literal ranges subsume the query's (`v >= 50` serving
    /// `v >= 60`). See [`PredicateCacheMode`].
    pub predicate_cache_mode: PredicateCacheMode,
    /// Rows per column-major batch on the vectorized scan spine. Loaded
    /// partitions are chunked into windows of this many rows; predicates
    /// run as selection-vector kernels per window and rows materialize
    /// only at operator boundaries. `1` degenerates to row-at-a-time
    /// delivery (the differential oracle); the default amortizes per-batch
    /// overhead without hurting cache locality. Purely a CPU-side knob:
    /// partitions are still loaded (and I/O charged) whole, so it does not
    /// interact with `prefetch_depth`/`morsel_partitions` I/O capping.
    pub batch_rows: usize,
    /// Queries a single tenant may have in flight at once under admission
    /// control (see [`crate::admission`]). Admitted queries of one tenant
    /// start in arrival order, and a query may not start until every query
    /// `tenant_max_concurrent` positions earlier has finished — the
    /// windowed-FIFO discipline that keeps the adaptive-depth fold
    /// deterministic. Clamped to ≥ 1.
    pub tenant_max_concurrent: usize,
    /// Queries a tenant may hold *queued* behind its in-flight window when
    /// a burst arrives. Arrivals beyond
    /// `tenant_max_concurrent + admission_queue_cap` are rejected with
    /// [`crate::admission::Admission::Rejected`] instead of fanning in
    /// unboundedly.
    pub admission_queue_cap: usize,
    /// Feedback-tuned prefetch depth under admission control: each
    /// tenant's lane starts at `prefetch_depth` and, after every completed
    /// query, doubles/halves from the observed
    /// `io_overlapped_ns / simulated_cpu_ns` ratio, bounded to
    /// `[1, prefetch_max_depth]`. Off by default so every existing
    /// fixed-depth fingerprint stays bit-identical.
    pub adaptive_prefetch: bool,
    /// Upper bound of the adaptive prefetch depth walk.
    pub prefetch_max_depth: usize,
    /// Batch-native joins and aggregations: hash-join probe and GROUP BY
    /// consume column-major [`crate::vector::Batch`]es directly (late
    /// materialization, per-batch partition provenance) instead of
    /// dropping to row-at-a-time sinks at the first join or aggregate.
    /// On by default; the differential suite turns it off to obtain the
    /// row-fallback oracle, and the `joinagg` bench experiment compares
    /// both settings. Results are bit-identical either way.
    pub batch_native: bool,
    /// Run the static plan verifier (`snowprune-analyze`) at admission:
    /// before morsel generation, every plan is schema-resolved and
    /// type-checked and the engine invariants (sort-key validity, join-key
    /// comparability, aggregate input typing) are enforced. Plans with any
    /// error-severity diagnostic are rejected with
    /// [`snowprune_types::Error::PlanRejected`]. On by default — the
    /// analyzer is sound (zero false positives on every valid plan), so
    /// the only reason to disable it is to measure its admission-time cost.
    pub verify_plans: bool,
    /// Zone-map filter pruning knobs (§3).
    pub filter: FilterPruneConfig,
    /// Simulated object-store cost model for I/O accounting.
    pub io_cost: IoCostModel,
}

/// How the §8.2 predicate cache fingerprints plans at admission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PredicateCacheMode {
    /// Plans are keyed by exact fingerprint (literals included): an entry
    /// for `v >= 50` can only serve `v >= 50`.
    #[default]
    Exact,
    /// Exact lookup first, then fall back to entries with the same
    /// literal-abstracted shape whose recorded literal ranges *subsume*
    /// the query's — a `v >= 50` filter entry serves `v >= 60`, a
    /// `BETWEEN 10 AND 90` entry serves `BETWEEN 20 AND 80`, and a top-k
    /// entry serves the same predicate at a smaller `k`. Every shape hit
    /// replays a sound superset of the query's contributing partitions.
    Shape,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            enable_filter_pruning: true,
            enable_limit_pruning: true,
            enable_join_pruning: true,
            enable_topk_pruning: true,
            topk_order: PartitionOrder::ByBoundary,
            topk_init_boundary: true,
            join_summary: SummaryKind::RangeSet { budget: 128 },
            join_bloom: true,
            scan_threads: 1,
            morsel_partitions: 4,
            prefetch_depth: 2,
            predicate_cache: false,
            predicate_cache_capacity: 256,
            predicate_cache_mode: PredicateCacheMode::Exact,
            tenant_max_concurrent: 1,
            admission_queue_cap: 16,
            adaptive_prefetch: false,
            prefetch_max_depth: 8,
            batch_rows: 1024,
            batch_native: true,
            verify_plans: true,
            filter: FilterPruneConfig::default(),
            io_cost: IoCostModel::default(),
        }
    }
}

impl ExecConfig {
    /// Baseline configuration with every pruning technique disabled.
    pub fn no_pruning() -> Self {
        ExecConfig {
            enable_filter_pruning: false,
            enable_limit_pruning: false,
            enable_join_pruning: false,
            enable_topk_pruning: false,
            join_bloom: false,
            ..Default::default()
        }
    }

    /// Builder-style override for the scan worker count (clamped to ≥ 1).
    pub fn with_scan_threads(mut self, n: usize) -> Self {
        self.scan_threads = n.max(1);
        self
    }

    /// Builder-style override for the prefetch depth (clamped to ≥ 1).
    pub fn with_prefetch_depth(mut self, n: usize) -> Self {
        self.prefetch_depth = n.max(1);
        self
    }

    /// Builder-style toggle for the §8.2 predicate cache.
    pub fn with_predicate_cache(mut self, on: bool) -> Self {
        self.predicate_cache = on;
        self
    }

    /// Builder-style override for the predicate-cache fingerprint mode.
    pub fn with_predicate_cache_mode(mut self, mode: PredicateCacheMode) -> Self {
        self.predicate_cache_mode = mode;
        self
    }

    /// Builder-style override for the vectorized batch size (clamped to ≥ 1).
    // TEST-API: tests/common/lattice.rs sweeps batch sizes (knob-audit candidate).
    pub fn with_batch_rows(mut self, n: usize) -> Self {
        self.batch_rows = n.max(1);
        self
    }

    /// Builder-style override for the per-tenant in-flight cap (clamped
    /// to ≥ 1).
    pub fn with_tenant_max_concurrent(mut self, n: usize) -> Self {
        self.tenant_max_concurrent = n.max(1);
        self
    }

    /// Builder-style override for the per-tenant admission queue capacity.
    pub fn with_admission_queue_cap(mut self, n: usize) -> Self {
        self.admission_queue_cap = n;
        self
    }

    /// Builder-style toggle for feedback-tuned prefetch depth under
    /// admission control.
    pub fn with_adaptive_prefetch(mut self, on: bool) -> Self {
        self.adaptive_prefetch = on;
        self
    }

    /// Builder-style override for the adaptive-depth upper bound (clamped
    /// to ≥ 1).
    pub fn with_prefetch_max_depth(mut self, n: usize) -> Self {
        self.prefetch_max_depth = n.max(1);
        self
    }

    /// Builder-style toggle for batch-native joins and aggregations.
    /// `false` forces the row-at-a-time fallback operators — the
    /// differential oracle the batch-native path must match bit-for-bit.
    // TEST-API: tests/differential.rs runs the row-fallback oracle (knob-audit candidate).
    pub fn with_batch_native(mut self, on: bool) -> Self {
        self.batch_native = on;
        self
    }

    /// Builder-style toggle for the admission-time static plan verifier.
    // TEST-API: tests/common/lattice.rs toggles the verifier (knob-audit candidate).
    pub fn with_verify_plans(mut self, on: bool) -> Self {
        self.verify_plans = on;
        self
    }
}
