//! Asynchronous partition loading over the simulated object store — the
//! io_uring-style submit/complete abstraction behind the exec layer's
//! prefetch pipeline.
//!
//! An [`AsyncLake`] models one scan lane's serial network stream to the
//! object store. Loads are *submitted* ([`AsyncLake::submit_load`]) and
//! later either *completed* ([`AsyncLake::complete`]) or *cancelled*
//! ([`AsyncLake::cancel`]). All accounting is deferred to completion: a
//! cancelled ticket charges **zero** bytes and zero latency to [`IoStats`]
//! (only `loads_cancelled` is bumped), which is exactly what makes runtime
//! pruning *more* valuable under prefetching — a top-k boundary that
//! tightens while a load is in flight makes that load free.
//!
//! # The deterministic virtual clock
//!
//! Real async I/O would make overlap accounting depend on thread timing.
//! Instead each lane carries a *virtual clock* with two cursors:
//!
//! * `loader_busy_until` — the lane's serial GET stream: a submitted load
//!   starts at `max(loader_busy_until, eval_busy_until)` (a worker cannot
//!   issue a request before it reaches that point in its own timeline) and
//!   occupies the stream for its [`IoCostModel::load_cost_ns`].
//! * `eval_busy_until` — the evaluate stage: completing a load waits for
//!   its virtual ready time, and [`AsyncLake::note_evaluated`] advances the
//!   cursor by the simulated predicate-evaluation cost.
//!
//! The portion of a completed load's transfer window that falls *before*
//! the evaluator caught up is overlapped I/O (`io_overlapped_ns`); the lane
//! makespan recorded by [`AsyncLake::finish`] therefore approaches
//! `max(io, cpu)` with prefetching and degenerates to `io + cpu` for the
//! blocking depth-1 schedule (submit, complete, evaluate, repeat). Because
//! every quantity is pure arithmetic over the submit/complete/cancel
//! sequence, the counters are bit-identical under any thread interleaving
//! that produces the same sequence.
//!
//! Cancellation *refunds* the loader stream: later in-flight loads (and the
//! stream cursor) shift earlier by the cancelled cost, modelling a request
//! that is torn down before any byte moves.

use std::collections::VecDeque;
use std::sync::Arc;

use snowprune_types::{Error, Result};

use crate::io::{IoCostModel, IoStats};
use crate::partition::{MicroPartition, PartitionId};
use crate::table::Table;

/// Handle to one in-flight partition load. Deliberately neither `Clone` nor
/// `Copy`: a ticket is consumed exactly once, by `complete` or `cancel`.
#[derive(Debug)]
pub struct LoadTicket {
    seq: u64,
}

#[derive(Debug)]
struct Inflight {
    seq: u64,
    id: PartitionId,
    bytes: u64,
    cost_ns: u64,
    start_ns: u64,
    ready_ns: u64,
}

/// One scan lane's asynchronous view of the object store (see the module
/// docs for the clock model).
pub struct AsyncLake {
    table: Arc<Table>,
    io: IoStats,
    model: IoCostModel,
    inflight: VecDeque<Inflight>,
    next_seq: u64,
    loader_busy_until: u64,
    eval_busy_until: u64,
    finished: bool,
}

impl AsyncLake {
    /// A fresh lane over `table`, charging I/O to `io` under `model`.
    pub fn new(table: Arc<Table>, io: IoStats, model: IoCostModel) -> Self {
        AsyncLake {
            table,
            io,
            model,
            inflight: VecDeque::new(),
            next_seq: 0,
            loader_busy_until: 0,
            eval_busy_until: 0,
            finished: false,
        }
    }

    /// Submit an asynchronous load for `id`, whose metadata the caller has
    /// already read (`bytes` sizes the simulated GET — passing it in avoids
    /// a second metadata lookup on the hot path). Charges nothing yet; an
    /// unknown `id` surfaces as an error from [`AsyncLake::complete`].
    pub fn submit_load(&mut self, id: PartitionId, bytes: u64) -> LoadTicket {
        let cost_ns = self.model.load_cost_ns(bytes);
        let start_ns = self.loader_busy_until.max(self.eval_busy_until);
        let ready_ns = start_ns + cost_ns;
        self.loader_busy_until = ready_ns;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push_back(Inflight {
            seq,
            id,
            bytes,
            cost_ns,
            start_ns,
            ready_ns,
        });
        LoadTicket { seq }
    }

    fn take(&mut self, ticket: &LoadTicket) -> Result<Inflight> {
        let pos = self
            .inflight
            .iter()
            .position(|f| f.seq == ticket.seq)
            .ok_or_else(|| Error::NotFound(format!("load ticket {}", ticket.seq)))?;
        // PANIC-OK: position() just returned this index under &mut self.
        Ok(self.inflight.remove(pos).expect("position just found"))
    }

    /// Complete an in-flight load: charge its bytes and latency, account
    /// the overlap with evaluation, and hand back the partition.
    pub fn complete(&mut self, ticket: LoadTicket) -> Result<Arc<MicroPartition>> {
        let load = self.take(&ticket)?;
        let part = self.table.partition(load.id)?;
        self.io.record_partition_load(load.bytes, &self.model);
        // Transfer window [start, ready): whatever part of it the evaluator
        // spent busy (or that has already elapsed on the lane's timeline)
        // was hidden by the pipeline.
        let overlapped = self
            .eval_busy_until
            .min(load.ready_ns)
            .saturating_sub(load.start_ns);
        self.io.record_io_overlap(overlapped);
        self.eval_busy_until = self.eval_busy_until.max(load.ready_ns);
        Ok(part)
    }

    /// Cancel an in-flight load before completion: zero bytes and zero
    /// latency are charged, and the loader stream is refunded — loads
    /// queued behind the cancelled one shift earlier by its cost.
    pub fn cancel(&mut self, ticket: LoadTicket) {
        let Ok(load) = self.take(&ticket) else {
            return;
        };
        self.io.record_load_cancelled();
        self.loader_busy_until = self.loader_busy_until.saturating_sub(load.cost_ns);
        for f in self.inflight.iter_mut().filter(|f| f.seq > load.seq) {
            f.start_ns = f.start_ns.saturating_sub(load.cost_ns);
            f.ready_ns = f.ready_ns.saturating_sub(load.cost_ns);
        }
    }

    /// Advance the evaluate cursor by the simulated cost of evaluating
    /// `rows` rows and charge it as CPU time.
    pub fn note_evaluated(&mut self, rows: u64) {
        let ns = rows.saturating_mul(self.model.eval_ns_per_row);
        self.eval_busy_until += ns;
        self.io.record_cpu(ns);
    }

    /// Close the lane: record its pipeline makespan as simulated
    /// wall-clock. Remaining in-flight loads are cancelled (free).
    pub fn finish(&mut self) {
        while let Some(f) = self.inflight.front() {
            let ticket = LoadTicket { seq: f.seq };
            self.cancel(ticket);
        }
        if !self.finished {
            self.finished = true;
            self.io.record_wall(self.eval_busy_until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use snowprune_types::{ScalarType, Value};

    fn table() -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let mut b = TableBuilder::new("t", schema).target_rows_per_partition(10);
        for i in 0..40i64 {
            b.push_row(vec![Value::Int(i)]);
        }
        Arc::new(b.build())
    }

    fn submit(lake: &mut AsyncLake, t: &Table, id: u64) -> LoadTicket {
        lake.submit_load(id, t.partition_meta(id).unwrap().bytes)
    }

    fn model() -> IoCostModel {
        IoCostModel {
            latency_ns_per_request: 1_000,
            throughput_bytes_per_sec: u64::MAX,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 100,
        }
    }

    #[test]
    fn blocking_schedule_has_no_overlap() {
        let t = table();
        let io = IoStats::new();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model());
        for id in 0..4u64 {
            let ticket = submit(&mut lake, &t, id);
            let part = lake.complete(ticket).unwrap();
            lake.note_evaluated(part.row_count() as u64);
        }
        lake.finish();
        let s = io.snapshot();
        assert_eq!(s.partitions_loaded, 4);
        assert_eq!(s.io_overlapped_ns, 0);
        // wall = io + cpu exactly.
        assert_eq!(s.simulated_wall_ns, s.simulated_io_ns + s.simulated_cpu_ns);
        assert_eq!(s.simulated_io_ns, 4 * 1_000);
        assert_eq!(s.simulated_cpu_ns, 4 * 10 * 100);
    }

    #[test]
    fn prefetched_schedule_overlaps_io_with_eval() {
        let t = table();
        let io = IoStats::new();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model());
        // Depth-2 pipeline over 4 partitions.
        let mut tickets = VecDeque::new();
        tickets.push_back(submit(&mut lake, &t, 0));
        tickets.push_back(submit(&mut lake, &t, 1));
        for next in 2..=4u64 {
            let part = lake.complete(tickets.pop_front().unwrap()).unwrap();
            lake.note_evaluated(part.row_count() as u64);
            if next < 4 {
                let ticket = submit(&mut lake, &t, next);
                tickets.push_back(ticket);
            }
        }
        let part = lake.complete(tickets.pop_front().unwrap()).unwrap();
        lake.note_evaluated(part.row_count() as u64);
        lake.finish();
        let s = io.snapshot();
        assert_eq!(s.partitions_loaded, 4);
        assert!(s.io_overlapped_ns > 0, "pipeline must hide some I/O");
        assert_eq!(
            s.simulated_wall_ns,
            s.simulated_io_ns + s.simulated_cpu_ns - s.io_overlapped_ns
        );
        // io (1000/partition) and cpu (1000/partition) are equal here, so a
        // full overlap bounds the makespan below by max(io, cpu) = 4000.
        assert!(s.simulated_wall_ns >= 4_000);
        assert!(s.simulated_wall_ns < 8_000);
    }

    #[test]
    fn cancel_charges_nothing_and_refunds_the_stream() {
        let t = table();
        let io = IoStats::new();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model());
        let t0 = submit(&mut lake, &t, 0);
        let t1 = submit(&mut lake, &t, 1);
        let t2 = submit(&mut lake, &t, 2);
        lake.cancel(t1);
        let s = io.snapshot();
        assert_eq!(s.loads_cancelled, 1);
        assert_eq!(s.partitions_loaded, 0);
        assert_eq!(s.bytes_loaded, 0);
        assert_eq!(s.simulated_io_ns, 0);
        // p2 shifted into p1's slot: completing p0 then p2 behaves exactly
        // like a two-load stream.
        let _ = lake.complete(t0).unwrap();
        let _ = lake.complete(t2).unwrap();
        lake.finish();
        let s = io.snapshot();
        assert_eq!(s.partitions_loaded, 2);
        assert_eq!(s.simulated_wall_ns, 2_000);
    }

    #[test]
    fn finish_cancels_leftover_inflight() {
        let t = table();
        let io = IoStats::new();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model());
        let _t0 = submit(&mut lake, &t, 0);
        let _t1 = submit(&mut lake, &t, 1);
        lake.finish();
        let s = io.snapshot();
        assert_eq!(s.loads_cancelled, 2);
        assert_eq!(s.bytes_loaded, 0);
        assert_eq!(s.simulated_wall_ns, 0);
    }

    #[test]
    fn ticket_is_single_use_and_unknown_ids_fail_at_complete() {
        let t = table();
        let io = IoStats::new();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model());
        let ticket = submit(&mut lake, &t, 0);
        lake.complete(ticket).unwrap();
        assert!(lake.inflight.is_empty());
        // An unknown id surfaces at completion, with nothing charged.
        let bogus = lake.submit_load(999, 64);
        assert!(lake.complete(bogus).is_err());
        assert_eq!(io.snapshot().partitions_loaded, 1);
    }
}
