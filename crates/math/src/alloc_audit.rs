//! Counting global allocator: the runtime half of the workspace's
//! zero-alloc contract.
//!
//! The hot paths of this workspace — `LocalizationPipeline::step`,
//! `Fleet::step_round`, and the three batch likelihood kernels — claim an
//! allocation-free steady state: after a warm-up pass has sized every
//! reusable buffer, further frames must not touch the heap. The static
//! side of that contract is checked by `navicim-lint` (rule
//! `hot-path-alloc`); this module is the *runtime* side: a counting
//! wrapper around the system allocator that lets a test assert, to the
//! exact event, that a region of code performed zero heap operations.
//!
//! Compiled only under the `alloc-audit` feature, which registers the
//! counter as the process-wide `#[global_allocator]`. The counters are
//! process-global and count *every* thread's traffic, so audited regions
//! must run while no other thread allocates — the `tests/alloc_audit.rs`
//! target runs without the libtest harness, one case after another on
//! the main thread, and pins fleet rounds to one worker for exactly this
//! reason.
//!
//! Overhead is one relaxed atomic increment per heap event, so the full
//! test suite can run under the audit allocator unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap events since process start, split by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` calls.
    pub allocs: u64,
    /// `realloc` calls (growth *and* shrink — either may move or split a
    /// heap block, so a zero-alloc region admits neither).
    pub reallocs: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
}

impl AllocCounts {
    /// Total heap events: allocations, reallocations and frees.
    pub fn total(&self) -> u64 {
        self.allocs + self.reallocs + self.deallocs
    }

    /// Events that acquire or resize heap memory (frees excluded) — the
    /// quantity a *zero-alloc* steady state pins to zero. Frees are
    /// reported separately: a steady state that frees without
    /// allocating is shrinking, which is legal but worth seeing.
    pub fn acquisitions(&self) -> u64 {
        self.allocs + self.reallocs
    }

    /// Component-wise difference against an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is ahead of `self` (swapped
    /// snapshots).
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        debug_assert!(
            self.allocs >= earlier.allocs
                && self.reallocs >= earlier.reallocs
                && self.deallocs >= earlier.deallocs,
            "allocation snapshots out of order"
        );
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            reallocs: self.reallocs - earlier.reallocs,
            deallocs: self.deallocs - earlier.deallocs,
        }
    }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator: delegates every operation to [`System`] and
/// tallies it. Registered as the global allocator by this module, so
/// simply enabling the `alloc-audit` feature puts the whole process
/// under audit.
pub struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump,
// which neither allocates nor observes the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: counter bump then verbatim delegation; `layout` obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller guarantees `layout` has
        // non-zero size per the `GlobalAlloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counter bump then verbatim delegation; same contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; same contract as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counter bump then verbatim delegation; `ptr`/`layout`/`new_size` obligations pass through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller guarantees `ptr` was
        // allocated with `layout` by this allocator and `new_size` is
        // non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: counter bump then verbatim delegation; `ptr`/`layout` obligations pass through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller guarantees `ptr`/`layout`
        // match the original allocation.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Snapshot of the process-wide heap-event counters.
///
/// Counters are read individually with relaxed ordering: the snapshot is
/// exact whenever no *other* thread is mid-heap-operation, which is the
/// regime audited tests run in (see the module docs).
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        reallocs: REALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns the heap events it performed (including any
/// other thread's traffic in the window — audited regions run
/// single-threaded).
pub fn audited<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = counts();
    let out = f();
    (out, counts().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_boxed_allocation_and_free() {
        let ((), delta) = audited(|| {
            let b = Box::new([0u8; 64]);
            std::hint::black_box(&b);
        });
        assert!(delta.allocs >= 1, "Box::new must count as an allocation");
        assert!(delta.deallocs >= 1, "drop must count as a free");
    }

    // Exact-zero steady-state assertions live in the workspace-level
    // `tests/alloc_audit.rs` target, whose cases run one after another
    // on its main thread: these module tests share a process (and
    // therefore the global counters) with the rest of the crate's
    // parallel suite, so only monotone `>=` claims are meaningful here.
    #[test]
    fn counts_vec_growth_as_acquisition() {
        let mut v: Vec<u64> = Vec::new();
        let ((), delta) = audited(|| {
            for i in 0..1000 {
                v.push(i);
            }
        });
        assert!(delta.acquisitions() >= 1, "growth must be visible");
        drop(v);
    }
}
