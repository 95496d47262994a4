//! Proof that the steady-state per-cycle hot path performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator,
//! each fabric warms up until every scratch arena has reached its peak
//! capacity, and the counter must then stay at zero across 1 000 further
//! cycles of uniform-random traffic.
//!
//! The single-switch proof runs twice: with the invariant checker off,
//! and with it recording, which is how every `hirise-lab` job runs.
//! The counter is thread-local, so parallel test threads cannot
//! pollute one another's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hirise_core::{
    ArbitrationScheme, Fabric, Fault, FaultSite, FoldedSwitch, HiRiseConfig, HiRiseSwitch,
    MatchingSwitch, Switch2d,
};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap};
use hirise_sim::shard::{ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetworkSim, SimConfig};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, bumping a thread-local counter for
/// every allocation (and reallocation) made while counting is enabled.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RADIX: usize = 64;
const WARMUP_CYCLES: u64 = 20_000;
const COUNTED_CYCLES: u64 = 1_000;

/// Runs `fabric` to steady state, then counts allocations over
/// [`COUNTED_CYCLES`] further cycles and returns the total. With
/// `record_invariants` the per-cycle [`hirise_sim::InvariantChecker`]
/// runs in recording mode, as every `hirise-lab` job runs it; its lane
/// table and arbitration scratch reach full size during warmup, and a
/// clean run records nothing, so it must allocate nothing either.
fn count_steady_state_allocations<F: Fabric>(fabric: F, record_invariants: bool) -> u64 {
    // A warmup window longer than the whole run keeps every packet
    // unmeasured, so completions never touch the (growable) latency
    // histogram. Injection is closed-loop (windowed) so the per-port
    // source queues are bounded — under open-loop injection an
    // unbounded queue can random-walk to a new depth record at any time,
    // which legitimately reallocates.
    let cfg = SimConfig::new(RADIX)
        .injection_rate(0.1)
        .window(Some(4))
        .warmup(u64::MAX / 2)
        .measure(1)
        .seed(0xA110_C8ED)
        .check_invariants(false)
        .record_invariants(record_invariants);
    let mut sim = NetworkSim::new(fabric, UniformRandom::new(RADIX), cfg);
    let mut report = sim.report();
    sim.run_cycles(&mut report, WARMUP_CYCLES);

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    sim.run_cycles(&mut report, COUNTED_CYCLES);
    COUNTING.set(false);
    if record_invariants {
        let checker = sim.checker().expect("recording checker is on");
        assert_eq!(checker.violation_count(), 0, "{:?}", checker.violations());
    }
    ALLOCATIONS.get()
}

/// Every fabric, with the invariant checker off or recording.
fn single_switch_allocations(record_invariants: bool) -> Vec<(&'static str, u64)> {
    let hirise_cfg = HiRiseConfig::builder(RADIX, 4)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration");

    // Fault masking must not re-introduce allocations: one dead and one
    // flaky TSV bundle keep the per-cycle resampling, masking, and
    // event-logging paths hot. (The fault log preallocates its bounded
    // recording buffer at enable time.)
    let mut faulty = HiRiseSwitch::new(&hirise_cfg);
    faulty
        .enable_faults(0xFA17_A110)
        .expect("Hi-Rise supports fault injection");
    faulty
        .inject_fault(Fault::dead(FaultSite::TsvBundle { index: 0 }))
        .expect("bundle 0 in range");
    faulty
        .inject_fault(Fault::flaky(FaultSite::TsvBundle { index: 1 }, 0.5))
        .expect("bundle 1 in range");

    vec![
        (
            "switch2d",
            count_steady_state_allocations(Switch2d::new(RADIX), record_invariants),
        ),
        (
            "folded3d",
            count_steady_state_allocations(FoldedSwitch::new(RADIX, 4), record_invariants),
        ),
        (
            "hirise",
            count_steady_state_allocations(HiRiseSwitch::new(&hirise_cfg), record_invariants),
        ),
        (
            "hirise+faults",
            count_steady_state_allocations(faulty, record_invariants),
        ),
        (
            "islip2",
            count_steady_state_allocations(MatchingSwitch::islip(RADIX, 2), record_invariants),
        ),
        (
            "eslip",
            count_steady_state_allocations(MatchingSwitch::eslip(RADIX, 2), record_invariants),
        ),
        (
            "wavefront",
            count_steady_state_allocations(MatchingSwitch::wavefront(RADIX), record_invariants),
        ),
    ]
}

#[test]
fn steady_state_cycles_allocate_nothing() {
    for (fabric, count) in single_switch_allocations(false) {
        assert_eq!(
            count, 0,
            "{fabric}: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
        );
    }
}

/// The lab's configuration: every job records invariants.
#[test]
fn steady_state_cycles_allocate_nothing_with_the_recording_checker() {
    for (fabric, count) in single_switch_allocations(true) {
        assert_eq!(
            count, 0,
            "{fabric}: {count} heap allocations across {COUNTED_CYCLES} steady-state \
             cycles with the recording invariant checker"
        );
    }
}

/// Radix-16 Hi-Rise switch used by the network-level cases below.
fn net_switch_cfg() -> HiRiseConfig {
    HiRiseConfig::builder(16, 4)
        .channel_multiplicity(4)
        .scheme(ArbitrationScheme::LayerToLayerLrg)
        .build()
        .expect("valid Hi-Rise configuration")
}

/// The network-level hot loop must also be allocation-free at steady
/// state: the packet arena, per-node scratch (worklists, candidate and
/// request buffers), active-set bitsets and source queues all reach
/// their peak capacity during warmup and are reused thereafter.
///
/// A warmup window longer than the run keeps every packet unmeasured,
/// so deliveries never touch the growable latency histogram. Injection
/// is open-loop here (the mesh has no windowed mode), but the seed is
/// fixed, so the queue/arena high-water marks — and therefore the
/// allocation count — are deterministic: the load sits well inside the
/// mesh's stable region (its 2-ports-per-direction bisection saturates
/// near 0.03/core), so every buffer plateaus during warmup.
///
/// The allocation counter is thread-local, so this pins the
/// single-shard configuration, which runs the worker loop inline on the
/// calling thread — the per-shard state (mailboxes, totals, frontier)
/// is identical at higher shard counts, and `tests/net_schedule.rs`
/// pins those byte-identical to this one.
#[test]
fn steady_state_sharded_cycles_allocate_nothing() {
    let cfg = ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(u64::MAX / 2)
        .seed(0xA110_C8ED);
    let switch_cfg = net_switch_cfg();
    // 4x4 nodes, radix 16, 2 ports per direction -> 8 cores per node.
    let geo = MeshGeometry::new(4, 4, 2, 16, MeshPortMap::Contiguous);
    let cores = geo.total_cores();
    let mut sim = ShardedSim::new(
        geo,
        cfg,
        1,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    );
    sim.run_cycles(WARMUP_CYCLES);

    ALLOCATIONS.set(0);
    COUNTING.set(true);
    sim.run_cycles(COUNTED_CYCLES);
    COUNTING.set(false);
    let count = ALLOCATIONS.get();
    assert_eq!(
        count, 0,
        "mesh: {count} heap allocations across {COUNTED_CYCLES} steady-state cycles"
    );
}
