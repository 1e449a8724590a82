//! Allocation budget of one warm waiting `campaignd` submit.
//!
//! A warm submit simulates nothing: the server parses the request,
//! expands the sweep, answers every cell from its cell table, and writes
//! one progress line and the completion line; the client sends the
//! request and parses the response. This pins what that costs in
//! allocations, client and server together, for one waiting submit of
//! the benchmark's pinned sweep (`benchmark/specs/campaign.toml`, 18
//! cells) against an in-process server with a cache dir.
//!
//! A reallocation counts as an allocation. When the server built the
//! report and the response as `Json` trees, deep-copied the report for
//! every reply and built a full-size probe tracker per expansion, one such
//! submit made 1 756 (1 623 allocations and 133 reallocations). Rendering
//! the completion line once, straight to bytes, and checking tracker
//! parameters without building brought it to 914 (797 and 117);
//! [`BUDGET`] leaves a little room above that.
//!
//! The server runs on threads of its own, so the counting allocator
//! counts every thread of the process; this file holds one test, so
//! nothing else runs while it counts.

use campaignd::{submit_request, Client, Server, ServerConfig};
use sim::spec::SweepSpec;
use sim_core::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations and reallocations one warm waiting submit may make, client
/// and server together.
const BUDGET: u64 = 960;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counting touches
// only static atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its output and the allocations and reallocations
/// every thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::Relaxed))
}

fn field_u64(j: &Json, key: &str) -> u64 {
    j.field(key).unwrap_or_else(|e| panic!("{e} in {}", j.render()))
}

#[test]
fn a_warm_waiting_submit_stays_within_its_allocation_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("benchmark/specs/campaign.toml"))
        .expect("read the pinned sweep");
    let spec = SweepSpec::from_toml_str(&text).expect("pinned sweep parses");
    let request = submit_request(&spec, true);

    let dir = std::env::temp_dir().join(format!("dapper-warm-submit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("d.sock");
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        cache_dir: Some(dir.join("cache")),
        ..ServerConfig::default()
    })
    .expect("bind");
    let serve = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&socket).expect("connect");
    let mut submit = || {
        let done = client.request_streaming(&request, |_| {}).expect("submit");
        assert_eq!(done.get("ok"), Some(&Json::Bool(true)), "{}", done.render());
        done
    };
    // The cold submit simulates every cell; the next one is the first warm
    // one, uncounted: nothing set up lazily on a first call belongs to the
    // per-submit cost.
    assert_eq!(field_u64(&submit(), "executed"), 18);
    let first = submit();
    assert_eq!(field_u64(&first, "shared"), 18);

    let mut fewest = u64::MAX;
    for _ in 0..3 {
        let (done, allocs) = counted(&mut submit);
        assert_eq!(field_u64(&done, "executed"), 0, "a warm submit simulates nothing");
        assert_eq!(done.get("report"), first.get("report"), "warm reports are identical");
        fewest = fewest.min(allocs);
    }
    assert!(fewest <= BUDGET, "one warm waiting submit made {fewest} allocations; budget {BUDGET}");

    client.request(&Json::obj([("cmd", Json::str("shutdown"))])).expect("shutdown");
    drop(client);
    serve.join().expect("server thread").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}
