//! The multi-tenant batched decode engine.
//!
//! ```text
//!   submit(tenant, frame) ──► bounded per-tenant FIFO queue
//!                                  │  (full ⇒ Submit::Rejected)
//!                  tenant token ──►│
//!        ┌─────────────────────────┴──────────────────────────┐
//!        │ work-stealing workers: pop own deque, steal others │
//!        │ claim tenant session ─► drain same-shape batch     │
//!        │ decode (warm, panic-guarded) ─► complete handles   │
//!        └────────────────────────────────────────────────────┘
//! ```
//!
//! Scheduling model: each registered tenant has a *home* worker; when a
//! frame lands in an empty (unscheduled) tenant queue, a tenant token
//! is pushed onto the home worker's deque. Workers pop their own deque
//! FIFO and steal from the back of other workers' deques when idle, so
//! load spreads without losing per-tenant locality. A token grants
//! exclusive access to the tenant's [`Session`]; the holder drains up
//! to `max_batch` *same-shape* frames in one claim (amortizing the
//! session's cached DCT plan and warm-start state, and the worker's
//! solver workspace)
//! and re-enqueues the token if frames remain, so no tenant can starve
//! the others on its worker.
//!
//! Per-tenant decode order is always FIFO submission order and the
//! session is held by one worker at a time, so results are bit-identical
//! to decoding the tenant's stream serially — regardless of worker
//! count or stealing.

use crate::error::ServeError;
use crate::handle::{completion_pair, Completion, DecodedFrame, FrameHandle, FrameResult};
use crate::metrics::{EngineMetrics, LatencyReservoir, TenantMetrics};
use crate::session::{DecodeBackend, FrameRequest, Session, SessionConfig, WarmDecodeBackend};
use crate::tel;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` resolves to
    /// [`flexcs_parallel::default_threads`] (which honours the
    /// `FLEXCS_THREADS` override).
    pub workers: usize,
    /// Per-tenant queue capacity; a submit against a full queue returns
    /// [`Submit::Rejected`] (backpressure).
    pub queue_capacity: usize,
    /// Maximum frames drained into one same-shape batch.
    pub max_batch: usize,
    /// Global latency-reservoir capacity (per-tenant reservoirs hold
    /// 1/16th, minimum 1024).
    pub latency_reservoir: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 64,
            max_batch: 16,
            latency_reservoir: 1 << 17,
        }
    }
}

/// Outcome of [`Engine::submit`].
#[derive(Debug)]
pub enum Submit {
    /// The frame was queued; the handle resolves when it completes.
    Accepted(FrameHandle),
    /// The tenant's queue is full — backpressure. Resubmit later.
    Rejected {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
    },
}

impl Submit {
    /// Unwraps the handle of an accepted submission.
    pub fn accepted(self) -> Option<FrameHandle> {
        match self {
            Submit::Accepted(handle) => Some(handle),
            Submit::Rejected { .. } => None,
        }
    }

    /// Whether the submission was rejected by backpressure.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Submit::Rejected { .. })
    }
}

struct Job {
    req: FrameRequest,
    completion: Completion,
    sequence: u64,
    submitted_at: Instant,
}

#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    /// True while a token for this tenant sits in a deque or a worker
    /// holds the claim; guarantees at most one token per tenant.
    scheduled: bool,
    next_sequence: u64,
}

struct Tenant {
    id: usize,
    name: String,
    home: usize,
    queue: Mutex<TenantQueue>,
    session: Mutex<Session>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    latency: LatencyReservoir,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    decoded: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    batches: AtomicU64,
    batch_frames: AtomicU64,
    steals: AtomicU64,
}

struct Sched {
    /// One ready-token deque per worker, all behind a single lock (the
    /// critical sections are a few pointer moves; decodes dominate by
    /// orders of magnitude).
    deques: Mutex<Vec<VecDeque<usize>>>,
    available: Condvar,
    running: AtomicBool,
}

struct Inner {
    queue_capacity: usize,
    max_batch: usize,
    workers: usize,
    backend: Arc<dyn DecodeBackend>,
    tenants: RwLock<Vec<Arc<Tenant>>>,
    sched: Sched,
    counters: Counters,
    latency: LatencyReservoir,
    tenant_reservoir: usize,
}

/// The long-running multi-tenant decode engine.
///
/// # Examples
///
/// ```
/// use flexcs_core::SamplingPlan;
/// use flexcs_linalg::Matrix;
/// use flexcs_serve::{Engine, EngineConfig, FrameRequest, SessionConfig, Submit};
/// use flexcs_transform::Dct2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A DCT-sparse 8x8 frame sampled at 60 %.
/// let dct = Dct2d::new(8, 8)?;
/// let mut coeffs = Matrix::zeros(8, 8);
/// coeffs[(0, 0)] = 4.0;
/// coeffs[(1, 2)] = 1.5;
/// let frame = dct.inverse(&coeffs)?;
/// let plan = SamplingPlan::random_subset(64, 38, &[], 7)?;
///
/// let engine = Engine::new(EngineConfig::default());
/// let tenant = engine.register_tenant(SessionConfig::named("array-0"));
/// let submit = engine.submit(
///     tenant,
///     FrameRequest {
///         rows: 8,
///         cols: 8,
///         selected: plan.selected().to_vec(),
///         y: plan.measure(&frame.to_flat()),
///     },
/// )?;
/// let Submit::Accepted(handle) = submit else { unreachable!("queue empty") };
/// let decoded = handle.wait()?;
/// assert!(decoded.frame.max_abs_diff(&frame)? < 1e-2);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    inner: Arc<Inner>,
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Engine {
    /// Starts the engine with the real warm decoder backend.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_backend(config, Arc::new(WarmDecodeBackend))
    }

    /// Starts the engine with a custom decode backend (tests, benches).
    pub fn with_backend(config: EngineConfig, backend: Arc<dyn DecodeBackend>) -> Self {
        let workers = if config.workers == 0 {
            flexcs_parallel::default_threads()
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
            workers,
            backend,
            tenants: RwLock::new(Vec::new()),
            sched: Sched {
                deques: Mutex::new(vec![VecDeque::new(); workers]),
                available: Condvar::new(),
                running: AtomicBool::new(true),
            },
            counters: Counters::default(),
            latency: LatencyReservoir::new(config.latency_reservoir.max(1024)),
            tenant_reservoir: (config.latency_reservoir / 16).max(1024),
        });
        let worker_handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flexcs-serve-{w}"))
                    .spawn(move || inner.worker_loop(w))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            inner,
            worker_handles: Mutex::new(worker_handles),
            stopped: AtomicBool::new(false),
        }
    }

    /// Number of worker threads the engine runs.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Registers a tenant and returns its id. Sessions live for the
    /// engine's lifetime; ids are dense and assigned in registration
    /// order.
    pub fn register_tenant(&self, config: SessionConfig) -> usize {
        let mut tenants = self
            .inner
            .tenants
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let id = tenants.len();
        tenants.push(Arc::new(Tenant {
            id,
            name: config.name.clone(),
            home: id % self.inner.workers,
            queue: Mutex::new(TenantQueue::default()),
            session: Mutex::new(Session::new(config)),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            latency: LatencyReservoir::new(self.inner.tenant_reservoir),
        }));
        id
    }

    /// Submits a frame for the tenant. Returns [`Submit::Rejected`]
    /// when the tenant's bounded queue is full (backpressure); the
    /// caller decides whether to retry, drop, or throttle.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for an unregistered id,
    /// [`ServeError::BadRequest`] for malformed requests, and
    /// [`ServeError::EngineStopped`] after shutdown.
    pub fn submit(&self, tenant: usize, req: FrameRequest) -> Result<Submit, ServeError> {
        if !self.inner.sched.running.load(Ordering::Acquire) {
            return Err(ServeError::EngineStopped);
        }
        req.validate()?;
        let tenant = self.inner.tenant(tenant)?;
        let (handle, completion) = completion_pair();
        let (depth, needs_token) = {
            let mut q = tenant.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.jobs.len() >= self.inner.queue_capacity {
                let depth = q.jobs.len();
                drop(q);
                tenant.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                tel::counter("serve.rejected", 1);
                return Ok(Submit::Rejected { queue_depth: depth });
            }
            let sequence = q.next_sequence;
            q.next_sequence += 1;
            q.jobs.push_back(Job {
                req,
                completion,
                sequence,
                submitted_at: Instant::now(),
            });
            let needs_token = if q.scheduled {
                false
            } else {
                q.scheduled = true;
                true
            };
            (q.jobs.len(), needs_token)
        };
        tenant.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        if tel::enabled() {
            tel::counter("serve.submitted", 1);
            tel::histogram("serve.queue_depth", depth as f64);
        }
        if needs_token {
            self.inner.push_token(tenant.home, tenant.id);
        }
        Ok(Submit::Accepted(handle))
    }

    /// Point-in-time metrics snapshot (queue depths, throughput
    /// counters, latency percentiles).
    pub fn metrics(&self) -> EngineMetrics {
        self.inner.metrics()
    }

    /// Stops accepting new frames, drains every queued frame, and joins
    /// the workers. Idempotent; also runs on drop. Every handle issued
    /// before shutdown resolves.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.sched.running.store(false, Ordering::Release);
        // Lock-step with waiting workers: once we hold (and release)
        // the deque lock, every worker has either observed
        // `running == false` or is parked in `wait` where `notify_all`
        // reaches it — no lost-wakeup window.
        drop(
            self.inner
                .sched
                .deques
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        self.inner.sched.available.notify_all();
        let handles = std::mem::take(
            &mut *self
                .worker_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // A submit racing the shutdown can slip a job in after the
        // workers' final drain pass; fail it rather than strand its
        // waiter until the engine drops.
        let tenants = self.inner.tenants.read().unwrap_or_else(|e| e.into_inner());
        for tenant in tenants.iter() {
            let mut q = tenant.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.scheduled = false;
            for job in q.jobs.drain(..) {
                job.completion.complete(Err(ServeError::EngineStopped));
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.inner.workers)
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("max_batch", &self.inner.max_batch)
            .finish_non_exhaustive()
    }
}

impl Inner {
    fn tenant(&self, id: usize) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .cloned()
            .ok_or(ServeError::UnknownTenant(id))
    }

    fn push_token(&self, worker: usize, tenant: usize) {
        {
            let mut deques = self.sched.deques.lock().unwrap_or_else(|e| e.into_inner());
            deques[worker].push_back(tenant);
        }
        self.sched.available.notify_one();
    }

    fn worker_loop(&self, w: usize) {
        loop {
            let claimed = {
                let mut deques = self.sched.deques.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(t) = deques[w].pop_front() {
                        break Some((t, false));
                    }
                    // Steal from the back of the first non-empty peer
                    // deque (scanning round-robin from our right-hand
                    // neighbour): the back is the peer's coldest work,
                    // so its own locality is disturbed least.
                    let n = deques.len();
                    let stolen = (1..n)
                        .map(|k| (w + k) % n)
                        .find_map(|v| deques[v].pop_back());
                    if let Some(t) = stolen {
                        break Some((t, true));
                    }
                    if !self.sched.running.load(Ordering::Acquire) {
                        break None;
                    }
                    deques = self
                        .sched
                        .available
                        .wait(deques)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some((tenant_id, stolen)) = claimed else {
                return;
            };
            if stolen {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                tel::counter("serve.steals", 1);
            }
            self.process_tenant(tenant_id, w);
        }
    }

    /// Claims the tenant's session, drains one same-shape batch, and
    /// decodes it. Re-enqueues the tenant token if frames remain so
    /// deep queues interleave fairly with other tenants.
    fn process_tenant(&self, tenant_id: usize, w: usize) {
        let Ok(tenant) = self.tenant(tenant_id) else {
            return;
        };
        let mut session = tenant.session.lock().unwrap_or_else(|e| e.into_inner());
        let batch = {
            let mut q = tenant.queue.lock().unwrap_or_else(|e| e.into_inner());
            let mut batch = Vec::new();
            if let Some(first) = q.jobs.pop_front() {
                let shape = first.req.shape();
                batch.push(first);
                while batch.len() < self.max_batch
                    && q.jobs.front().is_some_and(|j| j.req.shape() == shape)
                {
                    batch.push(q.jobs.pop_front().expect("front checked non-empty"));
                }
            }
            if batch.is_empty() {
                q.scheduled = false;
                return;
            }
            batch
        };
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batch_frames
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        if tel::enabled() {
            tel::counter("serve.batches", 1);
            tel::histogram("serve.batch_occupancy", batch.len() as f64);
        }
        for job in batch {
            self.decode_job(&tenant, &mut session, job);
        }
        drop(session);
        let more = {
            let mut q = tenant.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.jobs.is_empty() {
                q.scheduled = false;
                false
            } else {
                true
            }
        };
        if more {
            self.push_token(w, tenant_id);
        }
    }

    /// Decodes one frame under a panic guard: a panicking solver marks
    /// only this frame failed (and resets the session's possibly-torn
    /// warm state) instead of killing the worker and wedging the queue.
    fn decode_job(&self, tenant: &Tenant, session: &mut Session, job: Job) {
        let Job {
            req,
            completion,
            sequence,
            submitted_at,
        } = job;
        let decoded = catch_unwind(AssertUnwindSafe(|| self.backend.decode(&req, session)));
        session.note_frame();
        let latency = submitted_at.elapsed();
        let outcome: FrameResult = match decoded {
            Ok(Ok(rec)) => {
                self.counters.decoded.fetch_add(1, Ordering::Relaxed);
                Ok(DecodedFrame {
                    tenant: tenant.id,
                    sequence,
                    frame: rec.frame,
                    report: rec.report,
                    latency,
                })
            }
            Ok(Err(e)) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Decode(e))
            }
            Err(payload) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                self.counters.panicked.fetch_add(1, Ordering::Relaxed);
                tel::counter("serve.panics", 1);
                session.reset_after_panic();
                Err(ServeError::DecodePanic(panic_message(payload.as_ref())))
            }
        };
        tenant.completed.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        tenant.latency.record(nanos);
        self.latency.record(nanos);
        if tel::enabled() {
            tel::counter("serve.frames", 1);
            tel::histogram("serve.latency_ms", nanos as f64 / 1e6);
            tel::histogram(
                &format!("serve.tenant.{}.latency_ms", tenant.name),
                nanos as f64 / 1e6,
            );
        }
        completion.complete(outcome);
    }

    fn metrics(&self) -> EngineMetrics {
        let tenants = self.tenants.read().unwrap_or_else(|e| e.into_inner());
        let per_tenant: Vec<TenantMetrics> = tenants
            .iter()
            .map(|t| TenantMetrics {
                tenant: t.id,
                name: t.name.clone(),
                submitted: t.submitted.load(Ordering::Relaxed),
                rejected: t.rejected.load(Ordering::Relaxed),
                completed: t.completed.load(Ordering::Relaxed),
                queue_depth: t.queue.lock().unwrap_or_else(|e| e.into_inner()).jobs.len(),
                p50_ms: t.latency.percentile_ms(0.50),
                p99_ms: t.latency.percentile_ms(0.99),
            })
            .collect();
        let batches = self.counters.batches.load(Ordering::Relaxed);
        let batch_frames = self.counters.batch_frames.load(Ordering::Relaxed);
        EngineMetrics {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            decoded: self.counters.decoded.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            panicked: self.counters.panicked.load(Ordering::Relaxed),
            batches,
            steals: self.counters.steals.load(Ordering::Relaxed),
            mean_batch_occupancy: (batches > 0).then(|| batch_frames as f64 / batches as f64),
            p50_ms: self.latency.percentile_ms(0.50),
            p99_ms: self.latency.percentile_ms(0.99),
            tenants: per_tenant,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcs_core::{Decoder, Reconstruction, SamplingPlan};
    use flexcs_linalg::Matrix;
    use flexcs_solver::SolveReport;
    use flexcs_transform::Dct2d;
    use std::time::Duration;

    fn sparse_frame(rows: usize, cols: usize) -> Matrix {
        let dct = Dct2d::new(rows, cols).unwrap();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 5.0;
        coeffs[(1, 1)] = 2.0;
        coeffs[(2, 0)] = -1.5;
        dct.inverse(&coeffs).unwrap()
    }

    fn request(frame: &Matrix, m: usize, seed: u64) -> FrameRequest {
        let (rows, cols) = (frame.rows(), frame.cols());
        let plan = SamplingPlan::random_subset(rows * cols, m, &[], seed).unwrap();
        FrameRequest {
            rows,
            cols,
            selected: plan.selected().to_vec(),
            y: plan.measure(&frame.to_flat()),
        }
    }

    #[test]
    fn engine_decode_matches_direct_decoder() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let tenant = engine.register_tenant(SessionConfig::named("t0"));
        let frame = sparse_frame(8, 8);
        let req = request(&frame, 40, 11);
        let direct = Decoder::default()
            .reconstruct(8, 8, &req.selected, &req.y)
            .unwrap();
        let handle = engine.submit(tenant, req).unwrap().accepted().unwrap();
        let decoded = handle.wait().unwrap();
        assert_eq!(decoded.frame, direct.frame, "service path is bit-identical");
        assert_eq!(decoded.sequence, 0);
        let m = engine.metrics();
        assert_eq!(m.decoded, 1);
        assert_eq!(m.failed, 0);
        assert!(m.p50_ms.is_some());
    }

    #[test]
    fn unknown_tenant_and_bad_requests_are_rejected_eagerly() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let frame = sparse_frame(8, 8);
        assert!(matches!(
            engine.submit(3, request(&frame, 40, 1)),
            Err(ServeError::UnknownTenant(3))
        ));
        let tenant = engine.register_tenant(SessionConfig::default());
        let mut bad = request(&frame, 40, 1);
        bad.y.pop();
        assert!(matches!(
            engine.submit(tenant, bad),
            Err(ServeError::BadRequest(_))
        ));
    }

    /// Backend that parks decodes until the test releases a gate.
    struct GatedBackend {
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl DecodeBackend for GatedBackend {
        fn decode(
            &self,
            req: &FrameRequest,
            _session: &mut Session,
        ) -> flexcs_core::Result<Reconstruction> {
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            Ok(Reconstruction {
                frame: Matrix::zeros(req.rows, req.cols),
                coefficients: Matrix::zeros(req.rows, req.cols),
                report: SolveReport::new(1, 0.0, true, 0.0),
            })
        }
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let engine = Engine::with_backend(
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                max_batch: 1,
                ..EngineConfig::default()
            },
            Arc::new(GatedBackend {
                gate: Arc::clone(&gate),
            }),
        );
        let tenant = engine.register_tenant(SessionConfig::named("bp"));
        let frame = sparse_frame(4, 4);
        let first = engine.submit(tenant, request(&frame, 10, 1)).unwrap();
        let h1 = first.accepted().expect("empty queue accepts");
        // Wait until the worker has claimed the first frame (queue
        // drains to 0) so the next accept/reject pair is deterministic.
        while engine.metrics().tenants[0].queue_depth > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        let second = engine.submit(tenant, request(&frame, 10, 2)).unwrap();
        let h2 = second.accepted().expect("one slot free while decoding");
        let third = engine.submit(tenant, request(&frame, 10, 3)).unwrap();
        assert!(third.is_rejected(), "capacity-1 queue rejects the third");
        let m = engine.metrics();
        assert_eq!(m.rejected, 1);
        // Open the gate; both accepted frames must complete.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
    }

    #[test]
    fn same_shape_frames_batch_together() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let engine = Engine::with_backend(
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 8,
                ..EngineConfig::default()
            },
            Arc::new(GatedBackend {
                gate: Arc::clone(&gate),
            }),
        );
        let tenant = engine.register_tenant(SessionConfig::named("batch"));
        let small = sparse_frame(4, 4);
        let big = sparse_frame(8, 8);
        let mut handles = Vec::new();
        // Hold the worker on a sacrificial first frame so the rest of
        // the queue builds up and drains as shaped batches.
        handles.push(
            engine
                .submit(tenant, request(&small, 10, 0))
                .unwrap()
                .accepted()
                .unwrap(),
        );
        while engine.metrics().tenants[0].queue_depth > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        for seed in 1..=4 {
            handles.push(
                engine
                    .submit(tenant, request(&small, 10, seed))
                    .unwrap()
                    .accepted()
                    .unwrap(),
            );
        }
        for seed in 5..=6 {
            handles.push(
                engine
                    .submit(tenant, request(&big, 40, seed))
                    .unwrap()
                    .accepted()
                    .unwrap(),
            );
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let mut sequences = Vec::new();
        for h in handles {
            sequences.push(h.wait().unwrap().sequence);
        }
        assert_eq!(sequences, vec![0, 1, 2, 3, 4, 5, 6], "FIFO per tenant");
        let m = engine.metrics();
        // 1 sacrificial + one 4-frame same-shape batch + one 2-frame
        // batch at the shape boundary = 3 batches.
        assert_eq!(m.batches, 3, "same-shape batching groups the queue");
        assert_eq!(m.mean_batch_occupancy, Some(7.0 / 3.0));
    }

    #[test]
    fn shutdown_drains_queued_frames_and_stops_intake() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let tenant = engine.register_tenant(SessionConfig::named("drain"));
        let frame = sparse_frame(8, 8);
        let handles: Vec<FrameHandle> = (0..6)
            .map(|seed| {
                engine
                    .submit(tenant, request(&frame, 40, seed))
                    .unwrap()
                    .accepted()
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        for h in handles {
            assert!(h.wait().is_ok(), "queued frames drain on shutdown");
        }
        assert!(matches!(
            engine.submit(tenant, request(&frame, 40, 99)),
            Err(ServeError::EngineStopped)
        ));
        engine.shutdown(); // idempotent
    }

    #[test]
    fn many_tenants_spread_over_workers() {
        let engine = Engine::new(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
        let frame = sparse_frame(8, 8);
        let handles: Vec<FrameHandle> = (0..9)
            .map(|i| {
                let t = engine.register_tenant(SessionConfig::named(format!("t{i}")));
                engine
                    .submit(t, request(&frame, 40, i as u64))
                    .unwrap()
                    .accepted()
                    .unwrap()
            })
            .collect();
        for h in handles {
            assert!(h.wait().is_ok());
        }
        let m = engine.metrics();
        assert_eq!(m.decoded, 9);
        assert_eq!(m.tenants.len(), 9);
        assert!(m.tenants.iter().all(|t| t.completed == 1));
    }
}
