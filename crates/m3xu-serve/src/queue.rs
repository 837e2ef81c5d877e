//! The sharded submission queues and the request model.
//!
//! Admission control happens here. Each shard owns a bounded queue of
//! three priority classes ([`Priority`]); [`ShardQueue::try_push`]
//! rejects with [`ServeError::QueueFull`] when that shard is at capacity
//! (typed backpressure the client can route on), while
//! [`ShardQueue::wait_push`] blocks the submitter until space frees — the
//! two standard load-shedding postures. Tenants route to shards by hash
//! (tenant-affine: one tenant's requests land on one shard's context and
//! drain in FIFO order within a priority class), and shard schedulers
//! whose own queue is empty *steal* from their siblings through the same
//! [`ShardSet`] handle, so an idle shard never watches a loaded one
//! queue.
//!
//! Wakeup protocol: every push bumps a generation counter on one shared
//! condvar ([`ShardSet::wait_for_work`]) so *any* sleeping shard
//! scheduler — not just the affine one — can wake and steal. Blocking
//! submitters park on their shard's own `space` condvar.

use crate::error::ServeError;
use crate::scheduler::ShardCore;
use crate::tenant::TenantAccount;
use m3xu_fp::C32;
use m3xu_kernels::context::M3xuContext;
use m3xu_kernels::gemm::GemmResult;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::mma::{MmaShape, MmaStats};
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Scheduling priority of one request. Within a shard, queued requests
/// drain strictly by class (all `High` before any `Normal` before any
/// `Low`), FIFO within a class. Priorities order the *queue*, not the
/// MXU: an already-executing low-priority request is never preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Drained before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Drained only when no higher class is queued.
    Low,
}

/// Number of priority classes (the length of a shard's queue array).
pub(crate) const PRIORITY_CLASSES: usize = 3;

impl Priority {
    /// Index into a shard's per-class queue array, drain order.
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Test-only misbehaviour injected through `M3xuServe::inject_chaos`,
/// exercising the scheduler's self-healing paths from outside the crate.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Panic on every execution attempt — a *poison* request. The
    /// quarantine guard catches the panic, re-runs the request alone, and
    /// finally fails it with [`ServeError::Quarantined`] without touching
    /// the tenant's circuit breaker.
    Panic,
    /// Settle the request successfully, then kill the shard scheduler
    /// thread executing it — the watchdog must respawn the scheduler with
    /// the shard's queue intact.
    KillShard,
}

/// One queued operation, with the reply channel its [`Ticket`](crate::Ticket)
/// listens on. Reply senders are rendezvous-free (`sync_channel(1)`): the
/// single reply never blocks the worker.
pub(crate) enum Work {
    /// A GEMM-family op: plain GEMM at every precision of the dial, CGEMM,
    /// the op-GEMMs and the triangular BLAS-3 surface.
    Gemm(Box<dyn GemmWork>),
    /// GEMM-formulated FFT of a power-of-two-length signal. Classified as
    /// one output tile: it decomposes into many small internal CGEMMs.
    Fft {
        /// The input signal.
        x: Vec<C32>,
        /// Reply channel.
        reply: SyncSender<Result<(Vec<C32>, MmaStats), ServeError>>,
    },
    /// Test-only chaos hook (see [`ChaosKind`]). Classified as "large"
    /// (`usize::MAX` output tiles) so it always executes serially on the
    /// scheduler thread itself, never inside a pooled epoch.
    Chaos {
        /// The misbehaviour to perform.
        kind: ChaosKind,
        /// Reply channel.
        reply: SyncSender<Result<(), ServeError>>,
    },
}

/// The typed context call of a GEMM-family request.
pub(crate) type GemmCall<T> =
    Box<dyn Fn(&M3xuContext) -> Result<GemmResult<T>, M3xuError> + Send + Sync>;

/// A GEMM-family request. Every op's [`GemmResult`] reports its own mode,
/// operand bytes and faults, so one job shape serves the whole family:
/// the submission computes the tile count and wraps the op's typed
/// `M3xuContext::try_*` method.
pub(crate) struct GemmJob<T> {
    /// Output tiles the op schedules, computed at admission (see
    /// [`grid_tiles`] and [`triangle_tiles`]).
    pub tiles: usize,
    /// Calls the op on whichever context executes the request: the home
    /// shard's, a retry's or a hedge's.
    pub run: GemmCall<T>,
    /// Reply channel.
    pub reply: SyncSender<Result<GemmResult<T>, ServeError>>,
}

/// A [`GemmJob`] with its element type erased, so one [`Work`] variant
/// holds every op of the family.
pub(crate) trait GemmWork: Send + Sync {
    /// The job's output-tile count.
    fn tiles(&self) -> usize;
    /// Resolve the ticket with `err` without executing.
    fn reject(&self, err: ServeError);
    /// Execute on `shard` under its retry and hedge policy, bill `req`'s
    /// tenant and resolve the ticket.
    fn execute(&self, shard: &ShardCore, req: &Request, wait_ns: u64);
}

/// Output tiles of a GEMM-family op writing the whole of `c`: the
/// small/large classifier, and the unit of the adaptive batching cost
/// model.
pub(crate) fn grid_tiles<T>(c: &Matrix<T>) -> usize {
    let frag = MmaShape::BASELINE_FP16;
    c.rows().div_ceil(frag.m) * c.cols().div_ceil(frag.n)
}

/// Output tiles of a rank-k update writing one triangle of the square
/// `c`: only the scheduled `T*(T+1)/2` of the `T x T` grid, so the
/// batching rule and the shard threshold see the real (halved)
/// footprint.
pub(crate) fn triangle_tiles<T>(c: &Matrix<T>) -> usize {
    let t = c.rows().div_ceil(MmaShape::BASELINE_FP16.m);
    t * (t + 1) / 2
}

impl Work {
    /// Output tiles the request shards into (see [`GemmJob::tiles`]).
    pub(crate) fn output_tiles(&self) -> usize {
        match self {
            Work::Gemm(job) => job.tiles(),
            Work::Fft { .. } => 1,
            Work::Chaos { .. } => usize::MAX,
        }
    }

    /// Resolve the request's ticket with `err` without executing it.
    pub(crate) fn reject(&self, err: ServeError) {
        match self {
            Work::Gemm(job) => job.reject(err),
            Work::Fft { reply, .. } => drop(reply.try_send(Err(err))),
            Work::Chaos { reply, .. } => drop(reply.try_send(Err(err))),
        }
    }
}

/// A queued request: the operation plus its tenant handle and timing /
/// deadline metadata.
pub(crate) struct Request {
    /// The tenant account every outcome is recorded into.
    pub tenant: Arc<TenantAccount>,
    /// When the request was accepted into the queue.
    pub enqueued: Instant,
    /// Drop (or, post-execution, reclassify) the request if its result
    /// cannot be delivered by this instant.
    pub deadline: Option<Instant>,
    /// Queue-ordering class.
    pub priority: Priority,
    /// Executions of this request that ended in a caught panic (the
    /// scheduler's quarantine guard). A suspect (`> 0`) always re-runs
    /// serially — alone, never pooled with batch-mates — and at the
    /// quarantine threshold the request is failed with
    /// [`ServeError::Quarantined`].
    pub poison_attempts: u32,
    /// The operation itself.
    pub work: Work,
}

struct ShardState {
    classes: [VecDeque<Request>; PRIORITY_CLASSES],
    len: usize,
    shutdown: bool,
}

impl ShardState {
    /// Pop up to `max` requests in priority-then-FIFO order.
    fn pop(&mut self, max: usize) -> Vec<Request> {
        let mut out = Vec::new();
        for class in &mut self.classes {
            while out.len() < max {
                match class.pop_front() {
                    Some(r) => out.push(r),
                    None => break,
                }
            }
        }
        self.len -= out.len();
        out
    }
}

/// One shard's bounded MPSC queue: many submitters, one (affine)
/// scheduler, plus stealing siblings.
pub(crate) struct ShardQueue {
    state: Mutex<ShardState>,
    capacity: usize,
    /// Blocking submitters wait here for space (or shutdown).
    space: Condvar,
}

fn lock(m: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(ShardState {
                classes: Default::default(),
                len: 0,
                shutdown: false,
            }),
            capacity: capacity.max(1),
            space: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.state).len
    }

    /// Non-blocking enqueue. On rejection the request is handed back with
    /// the typed reason so the caller can account and resolve its ticket.
    // The large Err is the point: rejection must return ownership of the
    // request (operands included) so the submitter can resolve its ticket.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, req: Request) -> Result<(), (Request, ServeError)> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Err((req, ServeError::ShuttingDown));
        }
        if st.len >= self.capacity {
            return Err((
                req,
                ServeError::QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        st.classes[req.priority.index()].push_back(req);
        st.len += 1;
        Ok(())
    }

    /// Blocking enqueue: waits for space instead of rejecting. Fails only
    /// on shutdown.
    #[allow(clippy::result_large_err)]
    fn wait_push(&self, req: Request) -> Result<(), (Request, ServeError)> {
        let mut st = lock(&self.state);
        while !st.shutdown && st.len >= self.capacity {
            st = self.space.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.shutdown {
            return Err((req, ServeError::ShuttingDown));
        }
        st.classes[req.priority.index()].push_back(req);
        st.len += 1;
        Ok(())
    }

    /// Scheduler side: non-blocking drain of up to `max` requests in
    /// priority-then-FIFO order. Returns an empty vec when the shard has
    /// nothing queued (the caller then tries stealing, then sleeps on the
    /// set's work signal) — or once shutdown is flagged, so anything
    /// still queued is swept with `ShuttingDown` instead of executed.
    pub(crate) fn try_drain(&self, max: usize) -> Vec<Request> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Vec::new();
        }
        let batch = st.pop(max.max(1));
        if !batch.is_empty() {
            // Space freed: wake every blocked submitter (they re-check
            // capacity under the lock).
            self.space.notify_all();
        }
        batch
    }

    /// Stealing sibling side: take up to half of this shard's queued
    /// requests (at least one, at most `max`), same priority-then-FIFO
    /// order the owner would use. FIFO order is preserved *per shard*,
    /// not service-wide — the usual work-stealing tradeoff.
    pub(crate) fn steal(&self, max: usize) -> Vec<Request> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Vec::new();
        }
        let take = st.len.div_ceil(2).min(max.max(1));
        let batch = st.pop(take);
        if !batch.is_empty() {
            self.space.notify_all();
        }
        batch
    }

    fn shutdown(&self) {
        let mut st = lock(&self.state);
        st.shutdown = true;
        self.space.notify_all();
    }

    /// Remove and return every queued request (the post-shutdown sweep).
    pub(crate) fn take_all(&self) -> Vec<Request> {
        let mut st = lock(&self.state);
        let n = st.len;
        let out = st.pop(n.max(1));
        self.space.notify_all();
        out
    }
}

/// The work signal every shard scheduler sleeps on: a generation counter
/// bumped by each push, so an idle scheduler wakes to drain *or steal*.
struct WorkSignal {
    generation: u64,
    shutdown: bool,
}

/// The service's full queue complex: one [`ShardQueue`] per shard plus
/// the shared ready signal.
pub(crate) struct ShardSet {
    shards: Vec<ShardQueue>,
    signal: Mutex<WorkSignal>,
    ready: Condvar,
}

/// What [`ShardSet::wait_for_work`] woke for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// The generation moved: something was pushed somewhere.
    Work(u64),
    /// Shutdown was flagged.
    Shutdown,
}

impl ShardSet {
    pub(crate) fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardSet {
            shards: (0..shards.max(1))
                .map(|_| ShardQueue::new(capacity_per_shard))
                .collect(),
            signal: Mutex::new(WorkSignal {
                generation: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shard(&self, i: usize) -> &ShardQueue {
        &self.shards[i]
    }

    /// Total queued requests across every shard.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn bump(&self) {
        let mut sig = self.signal.lock().unwrap_or_else(|e| e.into_inner());
        sig.generation = sig.generation.wrapping_add(1);
        self.ready.notify_all();
    }

    /// Whether service shutdown has been flagged — the watchdog reads
    /// this to distinguish a shard scheduler that exited *because* of
    /// shutdown (leave it) from one that died mid-service (respawn it).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.signal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown
    }

    /// Current generation — read *before* scanning the queues, so a push
    /// racing the scan is caught by [`ShardSet::wait_for_work`] returning
    /// immediately.
    pub(crate) fn generation(&self) -> u64 {
        self.signal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// Park until the generation moves past `seen` or shutdown is
    /// flagged.
    pub(crate) fn wait_for_work(&self, seen: u64) -> Wake {
        let mut sig = self.signal.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if sig.shutdown {
                return Wake::Shutdown;
            }
            if sig.generation != seen {
                return Wake::Work(sig.generation);
            }
            sig = self.ready.wait(sig).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Submitter side: enqueue on `shard`, non-blocking or waiting for
    /// space, then wake the schedulers.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(
        &self,
        shard: usize,
        req: Request,
        blocking: bool,
    ) -> Result<(), (Request, ServeError)> {
        let q = &self.shards[shard];
        if blocking {
            q.wait_push(req)?;
        } else {
            q.try_push(req)?;
        }
        self.bump();
        Ok(())
    }

    /// Flag shutdown and wake everyone: the shard schedulers (to exit and
    /// sweep their queues) and any blocked submitters (to fail with
    /// [`ServeError::ShuttingDown`]).
    pub(crate) fn shutdown(&self) {
        for q in &self.shards {
            q.shutdown();
        }
        let mut sig = self.signal.lock().unwrap_or_else(|e| e.into_inner());
        sig.shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    /// A queued request tagged by its tile count `n` (it never runs).
    fn dummy(
        n: usize,
        priority: Priority,
    ) -> (
        Request,
        std::sync::mpsc::Receiver<Result<GemmResult<f32>, ServeError>>,
    ) {
        let (reply, rx) = sync_channel(1);
        let job = GemmJob::<f32> {
            tiles: n,
            run: Box::new(|ctx: &M3xuContext| {
                let z = Matrix::zeros(0, 0);
                ctx.try_gemm_f32(m3xu_kernels::GemmPrecision::M3xuFp32, &z, &z, &z)
            }),
            reply,
        };
        let req = Request {
            tenant: Arc::new(TenantAccount::default()),
            enqueued: Instant::now(),
            deadline: None,
            priority,
            poison_attempts: 0,
            work: Work::Gemm(Box::new(job)),
        };
        (req, rx)
    }

    #[test]
    fn try_push_rejects_when_full_with_capacity() {
        let set = ShardSet::new(1, 2);
        for _ in 0..2 {
            let (r, k) = dummy(1, Priority::Normal);
            std::mem::forget(k);
            set.push(0, r, false).map_err(|_| ()).unwrap();
        }
        let (r3, _k3) = dummy(1, Priority::Normal);
        match set.push(0, r3, false) {
            Err((_, ServeError::QueueFull { capacity })) => assert_eq!(capacity, 2),
            _ => panic!("expected QueueFull"),
        }
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn drain_is_priority_then_fifo_and_bounded_by_max() {
        let set = ShardSet::new(1, 8);
        let order = [
            (1, Priority::Low),
            (2, Priority::Normal),
            (3, Priority::High),
            (4, Priority::Normal),
            (5, Priority::High),
        ];
        for (n, p) in order {
            let (r, k) = dummy(n, p);
            std::mem::forget(k);
            set.push(0, r, false).map_err(|_| ()).unwrap();
        }
        // High first (3 then 5), then Normal FIFO (2), bounded at 3.
        let batch = set.shard(0).try_drain(3);
        let sizes: Vec<usize> = batch.iter().map(|r| r.work.output_tiles()).collect();
        assert_eq!(sizes, vec![3, 5, 2]);
        // Remainder: Normal (4) before Low (1).
        let rest = set.shard(0).try_drain(8);
        let sizes: Vec<usize> = rest.iter().map(|r| r.work.output_tiles()).collect();
        assert_eq!(sizes, vec![4, 1]);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn steal_takes_about_half_from_a_sibling() {
        let set = ShardSet::new(2, 16);
        for n in 1..=5 {
            let (r, k) = dummy(n, Priority::Normal);
            std::mem::forget(k);
            set.push(0, r, false).map_err(|_| ()).unwrap();
        }
        let stolen = set.shard(0).steal(16);
        assert_eq!(stolen.len(), 3, "ceil(5/2)");
        assert_eq!(set.shard(0).len(), 2);
        // The steal bound is respected too.
        let stolen = set.shard(0).steal(1);
        assert_eq!(stolen.len(), 1);
    }

    #[test]
    fn shutdown_wakes_waiters_and_rejects_pushes() {
        let set = Arc::new(ShardSet::new(2, 1));
        let s2 = Arc::clone(&set);
        let gen = set.generation();
        let h = std::thread::spawn(move || s2.wait_for_work(gen));
        set.shutdown();
        assert_eq!(h.join().unwrap(), Wake::Shutdown);
        let (r, _k) = dummy(1, Priority::Normal);
        match set.push(0, r, false) {
            Err((_, ServeError::ShuttingDown)) => {}
            _ => panic!("expected ShuttingDown"),
        }
    }

    #[test]
    fn push_wakes_sleeping_scheduler_via_generation() {
        let set = Arc::new(ShardSet::new(2, 4));
        let gen = set.generation();
        let s2 = Arc::clone(&set);
        let h = std::thread::spawn(move || s2.wait_for_work(gen));
        // Push to shard 1: the waiter (conceptually shard 0's scheduler)
        // must still wake — that is what enables stealing.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (r, k) = dummy(1, Priority::Normal);
        std::mem::forget(k);
        set.push(1, r, false).map_err(|_| ()).unwrap();
        match h.join().unwrap() {
            Wake::Work(g) => assert_ne!(g, gen),
            Wake::Shutdown => panic!("unexpected shutdown"),
        }
    }

    #[test]
    fn wait_push_blocks_until_space() {
        let set = Arc::new(ShardSet::new(1, 1));
        let (r1, _k1) = dummy(1, Priority::Normal);
        set.push(0, r1, false).map_err(|_| ()).unwrap();
        let s2 = Arc::clone(&set);
        let h = std::thread::spawn(move || {
            let (r2, k2) = dummy(2, Priority::Normal);
            std::mem::forget(k2);
            s2.push(0, r2, true).map_err(|_| ()).unwrap();
        });
        // Let the pusher block, then free space by draining.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let b = set.shard(0).try_drain(1);
        assert_eq!(b.len(), 1);
        h.join().unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn output_tiles_classifies_by_output_grid() {
        // A 17 x 9 output: 3 x 2 tiles of 8 x 8.
        assert_eq!(grid_tiles(&Matrix::<f32>::zeros(17, 9)), 3 * 2);
        // A rank-k update of a 17 x 17 output schedules one triangle of
        // the T = 3 grid: T(T+1)/2 = 6 tiles, not 9.
        assert_eq!(triangle_tiles(&Matrix::<C32>::zeros(17, 17)), 6);
        let (tx, _rx) = sync_channel::<Result<(Vec<C32>, MmaStats), ServeError>>(1);
        assert_eq!(
            Work::Fft {
                x: vec![],
                reply: tx
            }
            .output_tiles(),
            1
        );
    }
}
