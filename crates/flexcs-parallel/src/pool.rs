//! A bounded, blocking pool of reusable workspaces.
//!
//! The fan-out points run many more jobs than threads, and each job
//! needs a scratch arena (solver buffers, factor caches). Building one
//! per job would allocate and fault in thousands of arenas; [`Pool`]
//! caps live workspaces at its capacity — typically the worker-thread
//! count — and **blocks** a checkout while all are out, rather than
//! allocating past the cap.
//!
//! The pool has no reset policy: a workspace comes back exactly as its
//! last user left it. Callers that need a clean state clear what they
//! check out; callers whose workspaces are fully overwritten on use
//! keep them warm.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A bounded, blocking pool of `T` workspaces. Clones share one pool.
///
/// # Examples
///
/// ```
/// use flexcs_parallel::Pool;
///
/// let pool: Pool<Vec<f64>> = Pool::with_capacity(2);
/// {
///     let mut ws = pool.checkout(); // a fresh `Vec::default()`
///     ws.push(1.0);
/// } // returned on drop, contents intact
/// let ws = pool.checkout();
/// assert!(ws.reused());
/// assert_eq!(*ws, vec![1.0]);
/// assert_eq!((pool.checkouts(), pool.reuses()), (2, 1));
/// ```
#[derive(Debug)]
pub struct Pool<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
    reuses: AtomicU64,
    checkouts: AtomicU64,
}

#[derive(Debug)]
struct State<T> {
    idle: Vec<T>,
    live: usize,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Pool<T> {
    /// A pool holding at most `capacity` workspaces (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Pool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    idle: Vec::new(),
                    live: 0,
                }),
                available: Condvar::new(),
                capacity: capacity.max(1),
                reuses: AtomicU64::new(0),
                checkouts: AtomicU64::new(0),
            }),
        }
    }

    /// Maximum number of workspaces the pool mints itself.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Adds an already-built workspace to the idle list (for example
    /// one whose caches a serial pre-pass warmed). It counts against the
    /// capacity like a minted one.
    pub fn seed(&self, item: T) {
        let mut state = self.inner.lock();
        state.live += 1;
        state.idle.push(item);
        drop(state);
        self.inner.available.notify_one();
    }

    /// Checks a workspace out, blocking while the pool is exhausted. An
    /// idle workspace is handed out as its last user left it; otherwise,
    /// below capacity, a `T::default()` is minted. The guard returns the
    /// workspace on drop.
    pub fn checkout(&self) -> Pooled<T>
    where
        T: Default,
    {
        let mut state = self.inner.lock();
        let (item, reused) = loop {
            if let Some(item) = state.idle.pop() {
                self.inner.reuses.fetch_add(1, Ordering::Relaxed);
                break (item, true);
            }
            if state.live < self.inner.capacity {
                state.live += 1;
                break (T::default(), false);
            }
            state = self
                .inner
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        };
        drop(state);
        self.inner.checkouts.fetch_add(1, Ordering::Relaxed);
        Pooled {
            item: Some(item),
            reused,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Total checkouts served so far.
    pub fn checkouts(&self) -> u64 {
        self.inner.checkouts.load(Ordering::Relaxed)
    }

    /// Checkouts served by handing out a returned (or seeded) workspace.
    pub fn reuses(&self) -> u64 {
        self.inner.reuses.load(Ordering::Relaxed)
    }

    /// Workspaces currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().idle.len()
    }
}

/// RAII guard over a checked-out workspace; dereferences to it and
/// returns it to the pool, unchanged, on drop.
#[derive(Debug)]
pub struct Pooled<T> {
    item: Option<T>,
    reused: bool,
    pool: Arc<Inner<T>>,
}

impl<T> Pooled<T> {
    /// `true` when this checkout reused an idle workspace rather than
    /// minting a new one.
    pub fn reused(&self) -> bool {
        self.reused
    }
}

impl<T> std::ops::Deref for Pooled<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("present until drop")
    }
}

impl<T> std::ops::DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("present until drop")
    }
}

impl<T> Drop for Pooled<T> {
    fn drop(&mut self) {
        let item = self.item.take().expect("dropped once");
        self.pool.lock().idle.push(item);
        self.pool.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_returned_workspaces() {
        let pool: Pool<Vec<u8>> = Pool::with_capacity(2);
        {
            let a = pool.checkout();
            let _b = pool.checkout();
            assert!(!a.reused());
        }
        assert_eq!(pool.idle(), 2);
        let c = pool.checkout();
        assert!(c.reused());
        assert_eq!(pool.checkouts(), 3);
        assert_eq!(
            pool.reuses(),
            1,
            "third checkout reuses a returned workspace"
        );
    }

    #[test]
    fn pool_exhaustion_blocks_until_return() {
        use std::sync::mpsc;
        let pool: Pool<Vec<u8>> = Pool::with_capacity(1);
        let held = pool.checkout();
        let (tx, rx) = mpsc::channel();
        let contender = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                let _ws = pool.checkout();
                std::time::Instant::now()
            })
        };
        rx.recv().unwrap();
        // Give the contender time to reach the blocking wait; the pool
        // must not have minted a second workspace meanwhile.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            pool.checkouts(),
            1,
            "cap-1 pool never allocates a second workspace"
        );
        let released_at = std::time::Instant::now();
        drop(held);
        let acquired_at = contender.join().unwrap();
        assert!(
            acquired_at >= released_at,
            "blocked checkout completed only after the release"
        );
        assert_eq!(pool.checkouts(), 2);
        assert_eq!(pool.reuses(), 1);
    }
}
