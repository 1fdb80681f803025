//! Completion handles: the caller-side future for a submitted frame
//! and the worker-side guard that fulfils it.
//!
//! The pair is a one-shot slot guarded by a `Mutex` + `Condvar`. The
//! worker half ([`Completion`]) is **drop-safe**: if a worker thread
//! dies while owning a completion — a panic that escaped the per-frame
//! guard, an abort mid-batch — the `Drop` impl resolves the slot with
//! [`ServeError::WorkerLost`] instead of leaving waiters blocked
//! forever. A wedged queue can therefore lose at most the frames it
//! had claimed, never the callers waiting on them.

use crate::error::ServeError;
use flexcs_linalg::Matrix;
use flexcs_solver::SolveReport;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One decoded frame routed back through its [`FrameHandle`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Tenant the frame belongs to.
    pub tenant: usize,
    /// Per-tenant submission sequence number (0-based, FIFO order).
    pub sequence: u64,
    /// Reconstructed frame.
    pub frame: Matrix,
    /// Solver diagnostics for the decode.
    pub report: SolveReport,
    /// Submit-to-completion latency (queue wait + decode).
    pub latency: Duration,
}

/// Outcome of one submitted frame.
pub type FrameResult = Result<DecodedFrame, ServeError>;

#[derive(Debug)]
struct Shared {
    slot: Mutex<Option<FrameResult>>,
    ready: Condvar,
}

/// Caller-side handle for a frame accepted by [`crate::Engine::submit`].
#[derive(Debug)]
pub struct FrameHandle {
    shared: Arc<Shared>,
}

impl FrameHandle {
    /// Blocks until the frame completes and takes its result.
    pub fn wait(self) -> FrameResult {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .shared
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether a result is waiting (false after it has been taken).
    pub fn is_done(&self) -> bool {
        self.shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }
}

/// Worker-side half: fulfils the handle exactly once, or resolves it
/// with [`ServeError::WorkerLost`] when dropped unfulfilled.
#[derive(Debug)]
pub(crate) struct Completion {
    shared: Option<Arc<Shared>>,
}

impl Completion {
    /// Resolves the handle with `result`.
    pub(crate) fn complete(mut self, result: FrameResult) {
        if let Some(shared) = self.shared.take() {
            Completion::fill(&shared, result);
        }
    }

    fn fill(shared: &Shared, result: FrameResult) {
        let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(result);
            shared.ready.notify_all();
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            Completion::fill(&shared, Err(ServeError::WorkerLost));
        }
    }
}

/// Creates a connected handle/completion pair.
pub(crate) fn completion_pair() -> (FrameHandle, Completion) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(None),
        ready: Condvar::new(),
    });
    (
        FrameHandle {
            shared: Arc::clone(&shared),
        },
        Completion {
            shared: Some(shared),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_then_wait_round_trips() {
        let (handle, completion) = completion_pair();
        assert!(!handle.is_done());
        completion.complete(Err(ServeError::EngineStopped));
        assert!(handle.is_done());
        assert_eq!(handle.wait(), Err(ServeError::EngineStopped));
    }

    #[test]
    fn dropped_completion_resolves_worker_lost() {
        // The drop-safety contract: losing the worker half never
        // strands a waiter.
        let (handle, completion) = completion_pair();
        drop(completion);
        assert_eq!(handle.wait(), Err(ServeError::WorkerLost));
    }

    #[test]
    fn wait_blocks_until_cross_thread_completion() {
        let (handle, completion) = completion_pair();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            completion.complete(Err(ServeError::WorkerLost));
        });
        assert_eq!(handle.wait(), Err(ServeError::WorkerLost));
        t.join().unwrap();
    }
}
