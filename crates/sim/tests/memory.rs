//! Memory regression test: heap requested while building an engine.
//!
//! A counting global allocator records every byte the process asks for.
//! The binary holds a single `#[test]`, so nothing else allocates while a
//! build is being measured.
//!
//! Two properties are guarded on an h = 4 Dragonfly FlexVC 4/2 point
//! (264 routers):
//!
//! * the bytes requested per router stay under a bound — engines store
//!   each packet once, in an arena that grows with traffic, so building
//!   one must not size any pool for its worst case;
//! * a 2-shard build requests at most 1.25x the 1-shard build — each shard
//!   builds per-router and per-port state only for the routers it owns,
//!   so sharding duplicates nothing but the global tables (adjacency,
//!   empty link replicas, boards).

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_sim::{Network, ShardedNetwork, SimConfig};
use flexvc_traffic::{Pattern, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested since process start: every allocation's size, plus the
/// growth of every reallocation.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        REQUESTED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested while running `f` (its result is dropped afterwards).
fn requested_by<T>(f: impl FnOnce() -> T) -> u64 {
    let before = REQUESTED.load(Ordering::Relaxed);
    let built = f();
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
    drop(built);
    bytes
}

/// Per-router bound on the heap requested by a 1-shard build. Measured at
/// 12,468 B per router on this point (x86-64 Linux, release; debug builds
/// request 12 B more). The bound leaves 1.5x headroom for incidental
/// growth, while an engine that sizes its pools for their worst case
/// (154,584 B per router on this point) fails it by a wide margin.
const MAX_BYTES_PER_ROUTER: u64 = 18_700;

#[test]
fn engine_build_memory_stays_bounded() {
    let cfg =
        SimConfig::dragonfly_baseline(4, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
            .with_flexvc(Arrangement::dragonfly(4, 2));
    let topo = cfg.topology.build();
    let routers = topo.num_routers() as u64;

    let single = requested_by(|| {
        Network::with_topology(cfg.clone(), 0.3, 1, topo.clone()).expect("valid config")
    });
    let per_router = single / routers;
    eprintln!("1-shard build: {single} B requested, {per_router} B per router");
    assert!(
        per_router <= MAX_BYTES_PER_ROUTER,
        "building the engine requested {per_router} B per router \
         (bound {MAX_BYTES_PER_ROUTER} B)"
    );

    let mut sharded_cfg = cfg.clone();
    sharded_cfg.shards = 2;
    let sharded = requested_by(|| {
        ShardedNetwork::with_topology(sharded_cfg, 0.3, 1, topo.clone()).expect("valid config")
    });
    eprintln!(
        "2-shard build: {sharded} B requested, {:.3}x the 1-shard build",
        sharded as f64 / single as f64
    );
    assert!(
        sharded * 4 <= single * 5,
        "a 2-shard build requested {sharded} B, more than 1.25x the \
         1-shard build's {single} B: shards must build owned state only"
    );
}
