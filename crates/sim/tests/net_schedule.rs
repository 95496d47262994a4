//! Twin-instance identity tests for the per-cycle scheduler: the
//! active-set schedule (skip routers with no buffered traffic, no
//! pending transfers and no flaky fault streams) must be a pure
//! execution knob. Every test runs the same simulation twice — once
//! dense, once active-set — and compares complete [`MeshReport`]s
//! (counters and latency histogram), with each other and, for the
//! mesh, with a pinned reference, under a fault mix that
//! exercises both directions of the set: dead resources (nodes drop
//! out of the work set when they drain) and flaky resampling streams
//! (nodes that must *never* leave it, or their fault PRNGs would
//! desynchronise from the dense run).

mod fingerprint;

use fingerprint::Fingerprint;
use hirise_core::rng::derive_stream_seed;
use hirise_core::{Fabric, Fault, FaultSite, HiRiseConfig, HiRiseSwitch};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshReport};
use hirise_sim::shard::{ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::NetSchedule;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const MEASURE: u64 = 600;

fn switch16() -> HiRiseConfig {
    HiRiseConfig::builder(16, 2)
        .channel_multiplicity(2)
        .build()
        .expect("valid configuration")
}

/// The shard_identity fault mix: dead TSV bundles on every third node,
/// flaky ones on every fourth.
fn faulty_switch(node: usize, seed: u64) -> HiRiseSwitch {
    let switch_cfg = switch16();
    let mut switch = HiRiseSwitch::new(&switch_cfg);
    switch
        .enable_faults(derive_stream_seed(seed, node as u64))
        .expect("hi-rise supports faults");
    if node.is_multiple_of(3) {
        switch
            .inject_fault(Fault::dead(FaultSite::TsvBundle { index: node % 2 }))
            .expect("valid fault site");
    }
    if node % 4 == 1 {
        switch
            .inject_fault(Fault::flaky(FaultSite::TsvBundle { index: 1 }, 0.05))
            .expect("valid fault site");
    }
    switch
}

/// The shard_identity mesh shape (4x2 radix-16 nodes, 64 cores) at a
/// load low enough that routers actually go idle — otherwise the
/// active set degenerates to "everyone" and the test proves nothing.
/// Returns the report, the active node-cycles and the fault events.
fn run_mesh(schedule: NetSchedule, shards: usize) -> (MeshReport, u64, u64) {
    let cfg = ShardedConfig::new()
        .injection_rate(0.01)
        .warmup(100)
        .measure(MEASURE)
        .drain(600)
        .seed(0x5C_11ED)
        .schedule(schedule);
    let mut sim = ShardedSim::new(
        MeshGeometry::new(4, 2, 2, 16, MeshPortMap::Contiguous),
        cfg,
        shards,
        |node| faulty_switch(node, 0x5C_11ED),
        || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
    );
    let report = sim.run();
    (report, sim.active_node_cycles(), sim.fault_event_count())
}

#[test]
fn mesh_active_set_is_byte_identical_to_dense() {
    let (dense, dense_active, dense_faults) = run_mesh(NetSchedule::Dense, 1);
    let (active, active_active, active_faults) = run_mesh(NetSchedule::ActiveSet, 1);
    assert!(dense.completed_measured() > 0, "nothing simulated");
    assert_eq!(active, dense, "schedules disagree on telemetry");
    assert_eq!(
        active_faults, dense_faults,
        "skipping changed the fault event stream"
    );
    // The schedules must do *different amounts of work* for identical
    // results — at this load most routers are idle most cycles, so the
    // active set has to be strictly smaller than the dense sweep.
    assert!(
        active_active < dense_active,
        "active set never skipped anything ({active_active} vs {dense_active} node-cycles)"
    );
}

// Reports pinned from the single-threaded mesh driver that `ShardedSim`
// replaced, recorded on the last commit that had it (where its reports
// equalled the sharded engine's at 1, 2 and 8 shards).

/// The low-load faulty mesh's pinned report (identical under both
/// schedules).
fn low_load_faulty_mesh() -> Fingerprint {
    Fingerprint {
        cores: 64,
        injected: 399,
        completed: 399,
        delivered: 394,
        hop_sum: 1086,
        latency_sum: 5017,
        latency_min: Some(4),
        latency_max: Some(36),
        buckets: vec![
            4, 44, 5, 1, 6, 1, 7, 1, 8, 83, 9, 11, 10, 9, 11, 12, 12, 71, 13, 8, 14, 16, 15, 12,
            16, 53, 17, 8, 18, 14, 19, 8, 20, 22, 21, 2, 22, 5, 23, 4, 25, 3, 26, 1, 27, 4, 31, 2,
            32, 1, 33, 1, 34, 1, 36, 1,
        ],
    }
}

/// Fault events the low-load faulty mesh logs.
const LOW_LOAD_FAULTY_MESH_FAULT_EVENTS: u64 = 146;

#[test]
fn mesh_schedules_match_the_pinned_reference_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        for schedule in [NetSchedule::Dense, NetSchedule::ActiveSet] {
            let (report, _, faults) = run_mesh(schedule, shards);
            assert_eq!(
                Fingerprint::of(&report, MEASURE),
                low_load_faulty_mesh(),
                "{schedule:?} diverged from the reference at {shards} shards"
            );
            assert_eq!(
                faults, LOW_LOAD_FAULTY_MESH_FAULT_EVENTS,
                "{schedule:?} changed the fault event stream at {shards} shards"
            );
        }
    }
}

fn run_dragonfly(schedule: NetSchedule, shards: usize) -> MeshReport {
    // One dead wafer link so adaptive detours are in play too.
    let geo = DragonflyGeometry::new(DragonflyConfig::new(4, 4, 2, 9), 16, &[(0, 5)])
        .expect("routable dragonfly");
    let switch_cfg = switch16();
    let cfg = ShardedConfig::new()
        .injection_rate(0.01)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0xD12A)
        .schedule(schedule);
    let mut sim = ShardedSim::new(
        geo,
        cfg,
        shards,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(144)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn dragonfly_active_set_is_byte_identical_to_dense_at_every_shard_count() {
    let reference = run_dragonfly(NetSchedule::Dense, 1);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in SHARD_COUNTS {
        for schedule in [NetSchedule::Dense, NetSchedule::ActiveSet] {
            assert_eq!(
                run_dragonfly(schedule, shards),
                reference,
                "{schedule:?} diverged from the dense 1-shard reference at {shards} shards"
            );
        }
    }
}
