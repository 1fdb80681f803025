//! Proof that the greedy solver (OMP) is allocation-free after warm-up.
//!
//! A counting global allocator measures heap traffic around a second
//! solve through an already-warmed `SolveWorkspace`. The count is kept
//! per thread, so tests running concurrently in the same binary cannot
//! add their allocations to the one being measured. The only
//! allocations allowed are the ones that build the returned `Recovery`
//! (the scattered solution vector and its support metadata) — the inner
//! loop itself (correlation scan, column appends, QR refits) must not touch the
//! allocator once the arena has grown to the problem's high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor
    // registration, so the allocator can bump it re-entrantly.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` keeps allocations made during thread teardown safe.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use flexcs_linalg::Matrix;
use flexcs_solver::{omp, DenseOperator, GreedyConfig, LinearOperator, SolveWorkspace};

fn gaussian_op(m: usize, n: usize, seed: u64) -> DenseOperator {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let scale = 1.0 / (m as f64).sqrt();
    DenseOperator::new(Matrix::from_fn(m, n, |_, _| {
        let u1 = next().max(1e-300);
        let u2 = next();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * scale
    }))
}

fn sparse_truth(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut x = vec![0.0; n];
    let mut placed = 0;
    while placed < k {
        let idx = (next() * n as f64) as usize % n;
        if x[idx] == 0.0 {
            x[idx] = if next() < 0.5 { -1.0 } else { 1.0 } * (1.0 + next());
            placed += 1;
        }
    }
    x
}

/// Counts the allocations of a warmed repeat solve. The result
/// `Recovery` accounts for a handful of allocations (solution vector,
/// report plumbing); anything beyond that budget means the inner loop
/// leaked per-iteration allocations.
#[test]
fn omp_is_allocation_free_after_warmup() {
    let (m, n, k) = (40, 100, 5);
    let op = gaussian_op(m, n, 9);
    let x = sparse_truth(n, k, 10);
    let b = op.apply(&x);
    let cfg = GreedyConfig::with_sparsity(k);
    let mut ws = SolveWorkspace::new();
    // Warm-up: grows every buffer to the high-water mark.
    let warm = omp(&op, &b, &cfg, &mut ws).unwrap();
    let before = allocations();
    let repeat = omp(&op, &b, &cfg, &mut ws).unwrap();
    let allocs = allocations() - before;
    assert_eq!(warm.x, repeat.x, "warmed repeat must be bit-identical");
    assert!(allocs <= 4, "omp allocated {allocs} times after warm-up");
}
