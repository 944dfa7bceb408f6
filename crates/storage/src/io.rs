//! I/O accounting for the simulated decoupled storage architecture.
//!
//! In a cloud data platform, pruning saves (a) network I/O for partition
//! loads, (b) metadata-service traffic, and (c) scan-set (de)serialization
//! (§2.1 "Summary"). Real hardware is replaced by counters plus a simple
//! linear cost model so benchmarks can report "bytes not loaded" and
//! "simulated I/O time saved" deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost model for the simulated object store.
#[derive(Clone, Copy, Debug)]
pub struct IoCostModel {
    /// Fixed per-partition request latency in nanoseconds (object-store GET).
    pub latency_ns_per_request: u64,
    /// Sustained throughput in bytes per second once a request is running.
    pub throughput_bytes_per_sec: u64,
    /// Metadata-service lookup cost in nanoseconds per partition metadata read.
    pub metadata_ns_per_read: u64,
    /// Simulated CPU cost of predicate evaluation per row — the "evaluate"
    /// stage of the prefetch pipeline, overlapped against in-flight loads.
    pub eval_ns_per_row: u64,
}

impl Default for IoCostModel {
    fn default() -> Self {
        // Loosely modelled on cloud object storage: ~10ms first-byte latency,
        // ~500 MB/s per stream, sub-microsecond metadata KV lookups (cached),
        // and a few million predicate evaluations per second per core.
        IoCostModel {
            latency_ns_per_request: 10_000_000,
            throughput_bytes_per_sec: 500_000_000,
            metadata_ns_per_read: 500,
            eval_ns_per_row: 250,
        }
    }
}

impl IoCostModel {
    /// A model in which all I/O and simulated CPU is free (for
    /// microbenchmarks that want to isolate real CPU work).
    pub fn free() -> Self {
        IoCostModel {
            latency_ns_per_request: 0,
            throughput_bytes_per_sec: u64::MAX,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 0,
        }
    }

    /// Simulated cost of one partition GET of `bytes` bytes.
    pub fn load_cost_ns(&self, bytes: u64) -> u64 {
        let transfer = if self.throughput_bytes_per_sec == u64::MAX {
            0
        } else {
            bytes.saturating_mul(1_000_000_000) / self.throughput_bytes_per_sec.max(1)
        };
        self.latency_ns_per_request.saturating_add(transfer)
    }
}

/// Thread-safe I/O counters. Cloned handles share the same counters.
#[derive(Clone, Debug, Default)]
pub struct IoStats {
    inner: Arc<IoCounters>,
}

#[derive(Debug, Default)]
struct IoCounters {
    metadata_reads: AtomicU64,
    partitions_loaded: AtomicU64,
    bytes_loaded: AtomicU64,
    simulated_io_ns: AtomicU64,
    loads_cancelled: AtomicU64,
    io_overlapped_ns: AtomicU64,
    simulated_cpu_ns: AtomicU64,
    simulated_wall_ns: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Zone-map/metadata reads (one per partition considered at compile).
    pub metadata_reads: u64,
    /// Micro-partitions actually loaded from the simulated object store.
    pub partitions_loaded: u64,
    /// Bytes of partition data loaded.
    pub bytes_loaded: u64,
    /// Simulated object-store I/O time (request latency + throughput).
    pub simulated_io_ns: u64,
    /// In-flight prefetch loads cancelled before completion; charged zero
    /// bytes and zero latency.
    pub loads_cancelled: u64,
    /// Portion of `simulated_io_ns` hidden behind predicate evaluation by
    /// the prefetch pipeline.
    pub io_overlapped_ns: u64,
    /// Simulated predicate-evaluation CPU time (the evaluate stage).
    pub simulated_cpu_ns: u64,
    /// Simulated wall-clock: the sum of per-lane pipeline makespans. With
    /// prefetching this approaches `max(io, cpu)` per lane instead of the
    /// blocking model's `io + cpu`; the identity
    /// `wall = load_io + cpu - overlapped` holds exactly (metadata-read
    /// time is charged to `simulated_io_ns` but is not lane time).
    pub simulated_wall_ns: u64,
}

impl IoSnapshot {
    /// Accumulate another snapshot's counters (aggregating per-query
    /// deltas into totals). Lives here, next to the fields, so a future
    /// counter cannot be silently dropped from callers' aggregations.
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.metadata_reads += other.metadata_reads;
        self.partitions_loaded += other.partitions_loaded;
        self.bytes_loaded += other.bytes_loaded;
        self.simulated_io_ns += other.simulated_io_ns;
        self.loads_cancelled += other.loads_cancelled;
        self.io_overlapped_ns += other.io_overlapped_ns;
        self.simulated_cpu_ns += other.simulated_cpu_ns;
        self.simulated_wall_ns += other.simulated_wall_ns;
    }

    /// Load-stage I/O the prefetch pipeline failed to hide behind
    /// evaluation: load-stage I/O minus `io_overlapped_ns`, which the lane
    /// identity `wall = load_io + cpu - overlapped` makes `wall - cpu`.
    /// This is the feedback signal adaptive prefetch depth steers on: a
    /// large unhidden share means the lane is I/O-bound and a deeper
    /// window would help; zero means evaluation already covers every load.
    pub fn unhidden_io_ns(&self) -> u64 {
        self.simulated_wall_ns.saturating_sub(self.simulated_cpu_ns)
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            metadata_reads: self.metadata_reads - earlier.metadata_reads,
            partitions_loaded: self.partitions_loaded - earlier.partitions_loaded,
            bytes_loaded: self.bytes_loaded - earlier.bytes_loaded,
            simulated_io_ns: self.simulated_io_ns - earlier.simulated_io_ns,
            loads_cancelled: self.loads_cancelled - earlier.loads_cancelled,
            io_overlapped_ns: self.io_overlapped_ns - earlier.io_overlapped_ns,
            simulated_cpu_ns: self.simulated_cpu_ns - earlier.simulated_cpu_ns,
            simulated_wall_ns: self.simulated_wall_ns - earlier.simulated_wall_ns,
        }
    }
}

impl IoStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one zone-map/metadata read.
    pub fn record_metadata_read(&self, model: &IoCostModel) {
        self.record_metadata_reads(1, model);
    }

    /// Record `n` metadata reads in one step; the counters end up exactly
    /// where `n` calls of [`IoStats::record_metadata_read`] leave them.
    pub fn record_metadata_reads(&self, n: u64, model: &IoCostModel) {
        self.inner.metadata_reads.fetch_add(n, Ordering::Relaxed);
        self.inner.simulated_io_ns.fetch_add(
            n.wrapping_mul(model.metadata_ns_per_read),
            Ordering::Relaxed,
        );
    }

    /// Record one completed partition load of `bytes` bytes.
    pub fn record_partition_load(&self, bytes: u64, model: &IoCostModel) {
        self.inner.partitions_loaded.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_loaded.fetch_add(bytes, Ordering::Relaxed);
        self.inner
            .simulated_io_ns
            .fetch_add(model.load_cost_ns(bytes), Ordering::Relaxed);
    }

    /// Record an in-flight prefetch load that was cancelled before
    /// completion: nothing else is charged (no bytes, no latency).
    pub fn record_load_cancelled(&self) {
        self.inner.loads_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record I/O time that the prefetch pipeline hid behind evaluation.
    pub fn record_io_overlap(&self, ns: u64) {
        self.inner.io_overlapped_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record simulated evaluate-stage CPU time.
    pub fn record_cpu(&self, ns: u64) {
        self.inner.simulated_cpu_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one scan lane's simulated pipeline makespan.
    pub fn record_wall(&self, ns: u64) {
        self.inner
            .simulated_wall_ns
            .fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            metadata_reads: self.inner.metadata_reads.load(Ordering::Relaxed),
            partitions_loaded: self.inner.partitions_loaded.load(Ordering::Relaxed),
            bytes_loaded: self.inner.bytes_loaded.load(Ordering::Relaxed),
            simulated_io_ns: self.inner.simulated_io_ns.load(Ordering::Relaxed),
            loads_cancelled: self.inner.loads_cancelled.load(Ordering::Relaxed),
            io_overlapped_ns: self.inner.io_overlapped_ns.load(Ordering::Relaxed),
            simulated_cpu_ns: self.inner.simulated_cpu_ns.load(Ordering::Relaxed),
            simulated_wall_ns: self.inner.simulated_wall_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let io = IoStats::new();
        let model = IoCostModel::default();
        io.record_metadata_read(&model);
        io.record_partition_load(1_000_000, &model);
        io.record_partition_load(2_000_000, &model);
        let s = io.snapshot();
        assert_eq!(s.metadata_reads, 1);
        assert_eq!(s.partitions_loaded, 2);
        assert_eq!(s.bytes_loaded, 3_000_000);
        assert!(s.simulated_io_ns > 2 * model.latency_ns_per_request);
    }

    #[test]
    fn batched_metadata_reads_equal_single_reads() {
        let model = IoCostModel::default();
        for n in [0u64, 1, 7, 8_000] {
            let (one_by_one, batched) = (IoStats::new(), IoStats::new());
            // Both start from the same non-zero state.
            for io in [&one_by_one, &batched] {
                io.record_partition_load(1_000, &model);
                io.record_cpu(5);
            }
            for _ in 0..n {
                one_by_one.record_metadata_read(&model);
            }
            batched.record_metadata_reads(n, &model);
            assert_eq!(one_by_one.snapshot(), batched.snapshot(), "n = {n}");
            assert_eq!(batched.snapshot().metadata_reads, n);
        }
    }

    #[test]
    fn clones_share_counters() {
        let io = IoStats::new();
        let io2 = io.clone();
        io2.record_partition_load(10, &IoCostModel::free());
        assert_eq!(io.snapshot().partitions_loaded, 1);
        assert_eq!(io.snapshot().simulated_io_ns, 0);
    }

    #[test]
    fn cancelled_loads_charge_nothing() {
        let io = IoStats::new();
        let model = IoCostModel::default();
        io.record_load_cancelled();
        io.record_load_cancelled();
        let s = io.snapshot();
        assert_eq!(s.loads_cancelled, 2);
        assert_eq!(s.partitions_loaded, 0);
        assert_eq!(s.bytes_loaded, 0);
        assert_eq!(s.simulated_io_ns, 0);
        let _ = model;
    }

    #[test]
    fn overlap_identity_fields_accumulate() {
        let io = IoStats::new();
        io.record_cpu(700);
        io.record_io_overlap(300);
        io.record_wall(400);
        let s = io.snapshot();
        assert_eq!(s.simulated_cpu_ns, 700);
        assert_eq!(s.io_overlapped_ns, 300);
        assert_eq!(s.simulated_wall_ns, 400);
        // wall = io + cpu - overlapped (io contribution is 0 here).
        assert_eq!(
            s.simulated_wall_ns,
            s.simulated_io_ns + s.simulated_cpu_ns - s.io_overlapped_ns
        );
    }

    #[test]
    fn snapshot_delta() {
        let io = IoStats::new();
        let model = IoCostModel::free();
        io.record_partition_load(10, &model);
        let before = io.snapshot();
        io.record_partition_load(20, &model);
        let delta = io.snapshot().since(&before);
        assert_eq!(delta.partitions_loaded, 1);
        assert_eq!(delta.bytes_loaded, 20);
    }
}
