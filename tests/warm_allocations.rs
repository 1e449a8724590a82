//! Allocation budget of a warm run-cache hit.
//!
//! A warm sweep simulates nothing: each cell is one `RunCache::lookup`,
//! which reads the entry file, checks its checksum and envelope as bytes,
//! and reads the payload straight from the text with
//! `JsonCodec::read`, building no `Json` tree. This pins that: one hit on
//! an entry of the benchmark's pinned sweep (`benchmark/specs/campaign.toml`)
//! may allocate at most [`BUDGET`] times. Building the payload's tree and
//! decoding it took about 80 allocations per hit.
//!
//! The counting allocator counts on the calling thread only, so the test
//! harness's other threads cannot disturb the count.

use sim::cache::RunCache;
use sim::spec::SweepSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations one warm hit may make: the entry's path and buffer, and
/// the payload's own strings and vectors.
const BUDGET: u64 = 20;

struct Counting;

thread_local! {
    /// (allocations, reallocations) on this thread while it counts;
    /// `None` while it does not.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn bump(add: (u64, u64)) {
    // `try_with`: the slot is gone while the thread exits.
    let _ = COUNTS.try_with(|c| {
        if let Some((allocs, reallocs)) = c.get() {
            c.set(Some((allocs + add.0, reallocs + add.1)));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump((1, 0));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump((1, 0));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump((0, 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its output and the (allocations, reallocations) it
/// made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counts = COUNTS.with(Cell::take).expect("counting");
    (out, counts)
}

#[test]
fn a_warm_hit_stays_within_its_allocation_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("benchmark/specs/campaign.toml"))
        .expect("read the pinned sweep");
    let spec = SweepSpec::from_toml_str(&text).expect("pinned sweep parses");
    let (e, key) = spec.expand_keyed().expect("pinned sweep expands").swap_remove(0);
    let key = key.expect("pinned cells are cacheable");

    let dir = std::env::temp_dir().join(format!("dapper-warm-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::open(&dir).expect("open run cache");
    let result = e.run();
    cache.save(&key, &result);
    // A first hit, uncounted: nothing lazily set up on the first call
    // belongs to the per-hit cost.
    assert_eq!(cache.lookup(&key).as_ref(), Some(&result), "the entry serves its result");

    let (hit, (allocs, reallocs)) = counted(|| cache.lookup(&key));
    assert_eq!(hit.as_ref(), Some(&result));
    assert!(
        allocs <= BUDGET,
        "one warm hit made {allocs} allocations and {reallocs} reallocations; budget {BUDGET}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
