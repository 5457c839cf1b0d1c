//! Steady-state allocation test for the event engine.
//!
//! The zero-alloc rework (packet slab, calendar queue, streaming
//! latency recorder) claims the hot loop performs **no heap
//! allocation per event** once warm: packets come from the arena's
//! free list, events live inline in wheel buckets, and latency samples
//! stream into a histogram whose bucket table grows only to the largest
//! latency seen, which a run reaches early. This test proves it with a
//! counting `#[global_allocator]` — integration tests are separate
//! binaries, so the allocator override is confined to this file. The
//! counts (calls and bytes) are per thread: the test harness runs this
//! file's tests in parallel, and each must see only its own
//! allocations.
//!
//! Methodology: run the same scenario at two durations and compare the
//! *deltas* — extra events vs extra allocations. One-time costs (graph
//! build, wheel tables, arena growth to peak occupancy, report
//! assembly) are identical in both runs and cancel; what remains is
//! the steady-state per-event cost. The bound is a small epsilon
//! rather than literal zero so a rare amortized growth (a wheel bucket
//! first touched late in the long run, or a latency past the end of the
//! histogram's table) cannot flake the suite. The
//! check runs on fixed-size traffic and on a three-class size mixture,
//! whose packets miss and refill the engine's per-class size tables.
//!
//! Two start-up costs are pinned in bytes: a new latency recorder
//! allocates nothing, and a new `Service` (the registry's scenarios)
//! stays under 64 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lognic::prelude::*;
use lognic::service::{ServeConfig, Service};

struct CountingAlloc;

thread_local! {
    // `const`-initialized: reading them never allocates, so the
    // allocator may touch them from inside `alloc`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation call and the size of the block it returns.
fn count_alloc(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result and the bytes it allocated.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let b0 = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - b0)
}

/// The steady pipeline under `sizes` at 30 Gb/s.
fn scenario(sizes: PacketSizeDist) -> (ExecutionGraph, HardwareModel, TrafficProfile) {
    let graph = ExecutionGraph::chain(
        "steady",
        &[
            (
                "parse",
                IpParams::new(Bandwidth::gbps(40.0)).with_queue_capacity(128),
            ),
            (
                "crypto",
                IpParams::new(Bandwidth::gbps(50.0))
                    .with_parallelism(4)
                    .with_queue_capacity(64),
            ),
            (
                "dma",
                IpParams::new(Bandwidth::gbps(60.0)).with_queue_capacity(64),
            ),
        ],
    )
    .unwrap();
    let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
    let traffic = TrafficProfile::new(Bandwidth::gbps(30.0), sizes);
    (graph, hw, traffic)
}

fn fixed_size() -> PacketSizeDist {
    PacketSizeDist::fixed(Bytes::new(1500))
}

/// A request/response mixture like the registry's `dns-kv`, at sizes
/// whose per-event costs differ.
fn three_classes() -> PacketSizeDist {
    PacketSizeDist::mix([
        (Bytes::new(80), 0.55),
        (Bytes::new(576), 0.35),
        (Bytes::new(1500), 0.10),
    ])
    .expect("static mixture is valid")
}

/// Runs the scenario for `millis` and returns `(events, allocations)`
/// for the whole build + run.
fn run_counted(sizes: PacketSizeDist, millis: f64) -> (u64, u64) {
    let (graph, hw, traffic) = scenario(sizes);
    let a0 = allocs_now();
    let report = Simulation::builder(&graph, &hw, &traffic)
        .seed(7)
        .duration(Seconds::millis(millis))
        .warmup(Seconds::millis(millis * 0.2))
        .run()
        .expect("valid scenario");
    (report.events, allocs_now() - a0)
}

/// Asserts that the run's allocations do not grow with its length.
fn assert_steady_state_allocation_free(sizes: fn() -> PacketSizeDist) {
    // Warm the allocator's own caches before measuring.
    run_counted(sizes(), 5.0);

    let (ev_short, alloc_short) = run_counted(sizes(), 10.0);
    let (ev_long, alloc_long) = run_counted(sizes(), 30.0);

    let extra_events = ev_long - ev_short;
    let extra_allocs = alloc_long.saturating_sub(alloc_short);
    assert!(
        extra_events > 100_000,
        "need a meaningful delta, got {extra_events} events"
    );
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.001,
        "steady state must not allocate per event: \
         {extra_allocs} allocations over {extra_events} extra events \
         ({per_event:.6} allocs/event)"
    );
}

#[test]
fn calendar_engine_steady_state_is_allocation_free() {
    assert_steady_state_allocation_free(fixed_size);
}

#[test]
fn size_mixture_steady_state_is_allocation_free() {
    assert_steady_state_allocation_free(three_classes);
}

#[test]
fn calendar_queue_hold_pattern_reuses_slab_slots() {
    // The capacity-planning hold pattern: a large pending set
    // (scheduled-but-not-due events) churned through push/pop for
    // millions of operations. The slab-backed bucket chains must reach
    // peak occupancy once and then recycle slots through the free
    // list — BENCH_sim.json historically showed 0.166 allocs/event
    // here when buckets were growable `Vec`s.
    const PENDING: u64 = 200_000;
    const OPS: u64 = 2_000_000;
    let mut q: CalendarQueue<u64> = CalendarQueue::new(20_000);
    let mut seq = 0u64;
    let mut t = 0u64;
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let step = |rng: &mut u64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % 40_000_000
    };
    for _ in 0..PENDING {
        t += step(&mut rng) / PENDING;
        q.push(t + step(&mut rng), seq, seq);
        seq += 1;
    }
    // Warm to peak: churn one full pending-set's worth of operations.
    for _ in 0..PENDING {
        let (now, _, _) = q.pop().expect("pending events remain");
        q.push(now + 1 + step(&mut rng), seq, seq);
        seq += 1;
    }
    let a0 = allocs_now();
    for _ in 0..OPS {
        let (now, _, _) = q.pop().expect("pending events remain");
        q.push(now + 1 + step(&mut rng), seq, seq);
        seq += 1;
    }
    let extra = allocs_now() - a0;
    let per_op = extra as f64 / OPS as f64;
    assert!(
        per_op < 0.0001,
        "hold pattern must not allocate per event: \
         {extra} allocations over {OPS} ops ({per_op:.6} allocs/op)"
    );
}

#[test]
fn arena_reuses_freed_packet_slots() {
    // Over three identical runs the arena high-water mark is reached
    // in the first; later runs must not allocate meaningfully more.
    run_counted(fixed_size(), 10.0);
    let (_, a1) = run_counted(fixed_size(), 10.0);
    let (_, a2) = run_counted(fixed_size(), 10.0);
    // Identical work → near-identical allocation counts (the build
    // phase allocates; the delta between identical runs is noise).
    let diff = a1.abs_diff(a2);
    assert!(
        diff < a1 / 10 + 16,
        "repeat runs should allocate alike: {a1} vs {a2}"
    );
}

#[test]
fn a_new_latency_recorder_allocates_nothing() {
    let (_, bytes) = bytes_in(LatencyRecorder::new);
    assert_eq!(bytes, 0, "the bucket table must start empty");
}

#[test]
fn a_new_service_allocates_under_64_kib() {
    // The registry's scenarios, and no zero-filled histogram: the
    // stats recorder grows with the requests it records.
    let (_, bytes) = bytes_in(|| Service::new(ServeConfig::default()));
    assert!(
        bytes < 64 * 1024,
        "Service::new allocated {bytes} B, the budget is 65,536 B"
    );
}
