//! Proof that fresh circuit nodes cost no per-node allocation.
//!
//! A counting global allocator measures heap traffic around a run of
//! `fresh_node` calls. The count is kept per thread, so tests running
//! concurrently in the same binary cannot add their allocations to the
//! one being measured. A fresh node keeps only its interned prefix: the
//! only allocations allowed are the prefix's first interning and the
//! amortized growth of the node vector — no formatted name, no map entry.

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

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no heap.
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

use flexcs_circuit::Circuit;

/// 256 fresh nodes, one per access TFT of a 16x16 readout array: the
/// node vector doubles about eight times and the prefix is interned
/// once, well inside the budget. Formatting and storing a name per node
/// would cost at least three allocations a node.
#[test]
fn fresh_nodes_allocate_only_for_vector_growth() {
    let mut ckt = Circuit::new();
    let mut ids = Vec::with_capacity(256);
    let before = allocations();
    for _ in 0..256 {
        ids.push(ckt.fresh_node("px").index());
    }
    let allocs = allocations() - before;
    assert_eq!(ids, (1..=256).collect::<Vec<_>>(), "ids follow call order");
    assert!(allocs <= 16, "256 fresh nodes allocated {allocs} times");
}
