//! Admission control for production-scale multi-tenant bursts.
//!
//! [`crate::Session::run_admitted`] puts a per-tenant queue in front of
//! the shared [`crate::MorselPool`] instead of `run_batch`'s
//! one-driver-thread-per-plan unbounded fan-in:
//!
//! * **Concurrency caps.** Each tenant runs at most
//!   [`crate::ExecConfig::tenant_max_concurrent`] queries at once under a
//!   *windowed FIFO* discipline: query `i` of a tenant may start only
//!   once all of queries `0..=i - C` have completed (`C` = the cap).
//!   Cross-tenant scheduling is round-robin over tenants with eligible
//!   work, mirroring the injector's lane rotation one level up.
//! * **Queue caps.** Beyond the `C` runnable slots each tenant may queue
//!   at most [`crate::ExecConfig::admission_queue_cap`] further queries;
//!   the rest of the burst is refused upfront with
//!   [`Admission::Rejected`]. Admission is decided from arrival order
//!   alone — never from live completion timing — so the rejection set is
//!   deterministic.
//! * **Adaptive prefetch depth.** With
//!   [`crate::ExecConfig::adaptive_prefetch`] on, each tenant's prefetch
//!   depth is steered by the observed unhidden-I/O vs. CPU balance of its
//!   own completed queries ([`IoSnapshot::unhidden_io_ns`]), bounded to
//!   `[1, prefetch_max_depth]`. See `next_depth` in this module for the
//!   update rule and the determinism argument.
//! * **Fairness metrics.** The run returns per-tenant [`TenantStats`]
//!   (queue wait, morsels run, max lane gap, rejections) computed from
//!   the deterministic per-query virtual clocks, so starvation checks are
//!   exact and reproducible rather than sampled from host timing.
//!
//! Every per-query result is byte-identical to a sequential run of the
//! same plan: admission changes *when* a query runs and how deep its
//! prefetch window is, and neither affects result bytes (depth never
//! changes which partitions load absent runtime signals, and runtime
//! signals only ever under-prune).

use std::sync::atomic::{AtomicBool, Ordering};
// STD-SYNC-OK: admission shares the pool's poisoning-based worker-panic
// propagation (see pool.rs); parking_lot locks cannot observe a panic.
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use snowprune_plan::Plan;
use snowprune_storage::IoSnapshot;
use snowprune_types::Error;

use crate::exec::QueryOutput;
use crate::session::Session;

/// Identifies one tenant in an admitted burst. Tenant ids are opaque to
/// the engine — stats are reported per distinct id, first-arrival order.
pub type TenantId = u64;

/// Outcome of one arrival in an admission-controlled burst.
#[derive(Debug)]
pub enum Admission {
    /// The query was admitted and ran to completion on the shared pool.
    Completed(Box<QueryOutput>),
    /// The query was admitted but returned an execution error.
    Failed(Error),
    /// The tenant's window (`tenant_max_concurrent` runnable +
    /// `admission_queue_cap` queued) was already full when this query
    /// arrived; it was refused without touching the pool.
    Rejected,
}

impl Admission {
    /// The completed output, if this arrival ran successfully.
    pub fn output(&self) -> Option<&QueryOutput> {
        match self {
            Admission::Completed(out) => Some(out),
            _ => None,
        }
    }

    /// Whether this arrival was refused at admission.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Admission::Rejected)
    }
}

/// Per-tenant fairness/starvation metrics for one admitted burst.
///
/// The wait/gap numbers come from a *virtual-time replay* of the tenant's
/// admitted queries over `tenant_max_concurrent` lanes: every query of
/// the burst arrives at virtual time 0, queries start greedily in
/// admitted order on the earliest-free lane, and each occupies its lane
/// for its deterministic `simulated_wall_ns`. Because the replay consumes
/// only per-query virtual clocks (never host timing), the stats are
/// bit-identical across runs and safe to include in stress fingerprints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant these stats describe.
    pub tenant: TenantId,
    /// Arrivals admitted (ran, successfully or not).
    pub admitted: usize,
    /// Arrivals refused at admission.
    pub rejected: usize,
    /// Morsels executed across the tenant's queries (scan-set entries
    /// considered, grouped by `morsel_partitions`).
    pub morsels_run: u64,
    /// Largest virtual queue wait of any admitted query.
    pub max_queue_wait_ns: u64,
    /// Sum of virtual queue waits across admitted queries.
    pub total_queue_wait_ns: u64,
    /// Largest virtual gap between consecutive query starts — a starving
    /// tenant shows up as a gap far beyond its own queries' runtimes.
    pub max_lane_gap_ns: u64,
    /// Prefetch depths used, in completed-prefix order: entry `j` is the
    /// depth available to the query at window position `j` (all equal to
    /// `ExecConfig::prefetch_depth` unless `adaptive_prefetch` is on).
    pub depth_hist: Vec<usize>,
}

/// Result of [`crate::Session::run_admitted`]: per-arrival outcomes plus
/// per-tenant fairness metrics.
#[derive(Debug)]
pub struct AdmissionRun {
    /// One outcome per arrival, in arrival order.
    pub outcomes: Vec<Admission>,
    /// Per-tenant stats, in first-arrival order of the tenant ids.
    pub tenants: Vec<TenantStats>,
}

impl AdmissionRun {
    /// Stats for one tenant, if it appeared in the burst.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == id)
    }
}

/// Deterministic adaptive-depth update rule (pure integer arithmetic).
///
/// Given the [`IoSnapshot`] delta of a completed query and the depth its
/// window position used, pick the depth for the next window position:
///
/// * unhidden I/O (`wall - cpu`) above half the CPU time — the lane is
///   I/O-bound, double the depth (capped at `max`);
/// * overlapped I/O below one eighth of the CPU time — the pipeline is
///   barely used (CPU-bound lane), halve the depth (floored at 1);
/// * otherwise hold.
///
/// Determinism: the rule itself is pure, and the *inputs* are pinned by
/// the windowed-FIFO discipline. The depth history is extended only along
/// a tenant's completed prefix (query `j`'s snapshot produces entry
/// `j + 1`), and query `i` reads the fixed index `max(i + 1 - C, 0)` —
/// which the window guarantees exists before `i` may start. No entry is
/// ever read before the completions that define it, and completion
/// *timing* (which query of the window finishes first, which worker ran
/// it) never changes any entry's value.
fn next_depth(depth: usize, snap: &IoSnapshot, max: usize) -> usize {
    let unhidden = snap.unhidden_io_ns();
    let cpu = snap.simulated_cpu_ns;
    if unhidden > cpu / 2 {
        (depth * 2).min(max)
    } else if snap.io_overlapped_ns * 8 < cpu {
        (depth / 2).max(1)
    } else {
        depth
    }
}

/// Scheduler state for one tenant's admitted queries.
struct TenantSched {
    id: TenantId,
    /// Global arrival indices of admitted queries, in arrival order.
    admitted: Vec<usize>,
    rejected: usize,
    /// Next admitted index not yet started.
    next_start: usize,
    done: Vec<bool>,
    /// IoSnapshot deltas of completed queries (None for failed ones).
    snaps: Vec<Option<IoSnapshot>>,
    /// Length of the fully-completed prefix of `admitted`.
    completed_prefix: usize,
    /// `depth_hist[j]` = prefetch depth for window position `j`; always
    /// `completed_prefix + 1` entries long.
    depth_hist: Vec<usize>,
}

struct Sched {
    tenants: Vec<TenantSched>,
    /// Round-robin pick cursor over `tenants`.
    cursor: usize,
    /// Admitted queries not yet handed to a driver.
    unstarted: usize,
}

struct Pick {
    tenant_idx: usize,
    query_idx: usize,
    global: usize,
    depth: usize,
}

impl Sched {
    /// Claim the next eligible query, round-robin over tenants starting at
    /// the cursor. Eligibility is the windowed FIFO: tenant `t`'s next
    /// query `i` may start iff `i < completed_prefix + C`.
    fn pick(&mut self, cap: usize) -> Option<Pick> {
        let n = self.tenants.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            let t = &mut self.tenants[idx];
            let i = t.next_start;
            if i < t.admitted.len() && i < t.completed_prefix + cap {
                t.next_start += 1;
                self.unstarted -= 1;
                self.cursor = (idx + 1) % n;
                return Some(Pick {
                    tenant_idx: idx,
                    query_idx: i,
                    global: t.admitted[i],
                    depth: t.depth_hist[(i + 1).saturating_sub(cap)],
                });
            }
        }
        None
    }

    /// Record a completion and extend the tenant's depth history along the
    /// newly-completed prefix.
    fn complete(
        &mut self,
        tenant_idx: usize,
        query_idx: usize,
        snap: Option<IoSnapshot>,
        adaptive: bool,
        max_depth: usize,
    ) {
        let t = &mut self.tenants[tenant_idx];
        t.done[query_idx] = true;
        t.snaps[query_idx] = snap;
        while t.completed_prefix < t.admitted.len() && t.done[t.completed_prefix] {
            // PANIC-OK: depth_hist is seeded at construction, never emptied.
            let last = *t.depth_hist.last().expect("seeded with initial depth");
            let next = match (&t.snaps[t.completed_prefix], adaptive) {
                (Some(snap), true) => next_depth(last, snap, max_depth),
                _ => last,
            };
            t.depth_hist.push(next);
            t.completed_prefix += 1;
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run an admission-controlled burst on the session's pool. See the
/// module docs for the discipline; [`crate::Session::run_admitted`] is
/// the public entry point.
pub(crate) fn run_admitted(session: &Session, arrivals: &[(TenantId, Plan)]) -> AdmissionRun {
    let cfg = session.config();
    let cap = cfg.tenant_max_concurrent.max(1);
    let queue_cap = cfg.admission_queue_cap;
    let max_depth = cfg.prefetch_max_depth.max(1);
    let adaptive = cfg.adaptive_prefetch;
    let initial_depth = if adaptive {
        cfg.prefetch_depth.clamp(1, max_depth)
    } else {
        cfg.prefetch_depth.max(1)
    };

    // ---- burst admission: decided from arrival order alone -------------
    let mut tenants: Vec<TenantSched> = Vec::new();
    let mut outcomes: Vec<Option<Admission>> = Vec::with_capacity(arrivals.len());
    for (global, (tenant, _plan)) in arrivals.iter().enumerate() {
        // LINEAR-OK: once per arrival (not per partition), over the burst's
        // distinct tenants — at most the arrival count.
        let idx = match tenants.iter().position(|t| t.id == *tenant) {
            Some(idx) => idx,
            None => {
                tenants.push(TenantSched {
                    id: *tenant,
                    admitted: Vec::new(),
                    rejected: 0,
                    next_start: 0,
                    done: Vec::new(),
                    snaps: Vec::new(),
                    completed_prefix: 0,
                    depth_hist: vec![initial_depth],
                });
                tenants.len() - 1
            }
        };
        let t = &mut tenants[idx];
        if t.admitted.len() < cap + queue_cap {
            t.admitted.push(global);
            t.done.push(false);
            t.snaps.push(None);
            outcomes.push(None);
        } else {
            t.rejected += 1;
            outcomes.push(Some(Admission::Rejected));
        }
    }

    // ---- bounded-driver execution --------------------------------------
    let unstarted = tenants.iter().map(|t| t.admitted.len()).sum();
    let sched = Mutex::new(Sched {
        tenants,
        cursor: 0,
        unstarted,
    });
    let work_cv = Condvar::new();
    let results = Mutex::new(outcomes);
    let driver_panicked = AtomicBool::new(false);
    let drivers = session.pool().worker_count().max(1).min(unstarted.max(1));
    std::thread::scope(|scope| {
        for _ in 0..drivers {
            scope.spawn(|| {
                let mut st = lock(&sched);
                loop {
                    let pick = match st.pick(cap) {
                        Some(pick) => pick,
                        None if st.unstarted == 0 => return,
                        None => {
                            st = work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                            continue;
                        }
                    };
                    drop(st);
                    let exec = session.executor_with_prefetch_depth(pick.depth);
                    let plan = &arrivals[pick.global].1;
                    // A panicking query must not wedge the whole burst:
                    // record it as Failed, complete the slot (so the
                    // tenant's window reopens), and flag the run.
                    let outcome =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            exec.run(plan)
                        })) {
                            Ok(Ok(out)) => Admission::Completed(Box::new(out)),
                            Ok(Err(e)) => Admission::Failed(e),
                            Err(_) => {
                                driver_panicked.store(true, Ordering::Release);
                                Admission::Failed(Error::Invalid("query driver panicked".into()))
                            }
                        };
                    let snap = outcome.output().map(|out| out.io);
                    lock(&results)[pick.global] = Some(outcome);
                    st = lock(&sched);
                    st.complete(pick.tenant_idx, pick.query_idx, snap, adaptive, max_depth);
                    work_cv.notify_all();
                }
            });
        }
    });
    if driver_panicked.load(Ordering::Acquire) {
        // PANIC-OK: deliberate panic propagation from a worker thread.
        panic!("a query panicked inside an admitted burst");
    }

    let outcomes: Vec<Admission> = lock(&results)
        .drain(..)
        // PANIC-OK: the burst drivers above filled every slot or panicked.
        .map(|o| o.expect("every admitted query ran"))
        .collect();
    let sched = lock(&sched);

    // ---- deterministic fairness metrics (virtual-time replay) ----------
    let morsel_partitions = cfg.morsel_partitions.max(1) as u64;
    let tenants = sched
        .tenants
        .iter()
        .map(|t| {
            let mut stats = TenantStats {
                tenant: t.id,
                admitted: t.admitted.len(),
                rejected: t.rejected,
                depth_hist: t.depth_hist.clone(),
                ..TenantStats::default()
            };
            let mut lanes = vec![0u64; cap];
            let mut last_start: Option<u64> = None;
            for &global in &t.admitted {
                let (wall, considered) = match &outcomes[global] {
                    Admission::Completed(out) => {
                        (out.io.simulated_wall_ns, out.report.scan_stats.considered)
                    }
                    _ => (0, 0),
                };
                let lane = lanes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &busy)| (busy, i))
                    .map(|(i, _)| i)
                    // PANIC-OK: tenant_max_concurrent is clamped to >= 1.
                    .expect("cap >= 1");
                let start = lanes[lane];
                stats.total_queue_wait_ns += start;
                stats.max_queue_wait_ns = stats.max_queue_wait_ns.max(start);
                if let Some(prev) = last_start {
                    stats.max_lane_gap_ns = stats.max_lane_gap_ns.max(start - prev);
                }
                last_start = Some(start);
                lanes[lane] = start + wall;
                stats.morsels_run += considered.div_ceil(morsel_partitions);
            }
            stats
        })
        .collect();

    AdmissionRun { outcomes, tenants }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(wall: u64, cpu: u64, overlapped: u64) -> IoSnapshot {
        IoSnapshot {
            simulated_wall_ns: wall,
            simulated_cpu_ns: cpu,
            io_overlapped_ns: overlapped,
            ..IoSnapshot::default()
        }
    }

    #[test]
    fn depth_rule_grows_on_io_bound_lanes() {
        // wall 10ms vs cpu 2ms: unhidden 8ms > 1ms ⇒ double.
        let s = snap(10_000_000, 2_000_000, 1_000_000);
        assert_eq!(next_depth(1, &s, 8), 2);
        assert_eq!(next_depth(4, &s, 8), 8);
        assert_eq!(next_depth(8, &s, 8), 8, "bounded at max");
    }

    #[test]
    fn depth_rule_shrinks_on_cpu_bound_lanes() {
        // wall ≈ cpu, barely any overlap used ⇒ halve, floored at 1.
        let s = snap(10_100_000, 10_000_000, 100_000);
        assert_eq!(next_depth(8, &s, 8), 4);
        assert_eq!(next_depth(1, &s, 8), 1);
    }

    #[test]
    fn depth_rule_holds_when_balanced() {
        // Overlap is doing real work and little I/O is left unhidden.
        let s = snap(10_500_000, 10_000_000, 4_000_000);
        assert_eq!(next_depth(4, &s, 8), 4);
    }
}
