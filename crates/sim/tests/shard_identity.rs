//! Identity tests for the sharded engine: the whole point of
//! `crate::shard` is that shard count is an *execution* knob, never a
//! *results* knob. Mesh runs at every shard count must equal the
//! reports pinned from the retired single-threaded mesh driver
//! (below), and dragonfly runs must equal each other; both compare
//! complete [`MeshReport`]s (counters and latency histogram).

mod fingerprint;

use fingerprint::Fingerprint;
use hirise_core::rng::derive_stream_seed;
use hirise_core::{Fabric, Fault, FaultSite, HiRiseConfig, HiRiseSwitch};
use hirise_core::{InputId, OutputId};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshReport};
use hirise_sim::shard::{ShardedConfig, ShardedSim};
use hirise_sim::traffic::{Custom, TrafficPattern, UniformRandom};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const MEASURE: u64 = 600;

fn switch16() -> HiRiseConfig {
    HiRiseConfig::builder(16, 2)
        .channel_multiplicity(2)
        .build()
        .expect("valid configuration")
}

/// A 4x2 mesh of radix-16 switches: 8 nodes (so an 8-shard run puts
/// one node per shard), 64 cores.
fn mesh_geometry() -> MeshGeometry {
    MeshGeometry::new(4, 2, 2, 16, MeshPortMap::Contiguous)
}

fn mesh_cfg(seed: u64) -> ShardedConfig {
    ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(100)
        .measure(MEASURE)
        .drain(600)
        .seed(seed)
}

// Reports pinned from the single-threaded mesh driver that `ShardedSim`
// replaced, recorded on the last commit that had it (where its reports
// equalled the sharded engine's at 1, 2 and 8 shards).

/// The fault-free mesh's pinned report.
fn fault_free_mesh() -> Fingerprint {
    Fingerprint {
        cores: 64,
        injected: 764,
        completed: 764,
        delivered: 753,
        hop_sum: 2092,
        latency_sum: 11412,
        latency_min: Some(4),
        latency_max: Some(78),
        buckets: vec![
            4, 79, 5, 2, 6, 2, 7, 1, 8, 109, 9, 19, 10, 19, 11, 15, 12, 111, 13, 29, 14, 19, 15,
            34, 16, 57, 17, 28, 18, 21, 19, 32, 20, 37, 21, 19, 22, 25, 23, 15, 24, 13, 25, 13, 26,
            8, 27, 7, 28, 6, 29, 9, 30, 6, 31, 4, 32, 4, 33, 1, 34, 1, 35, 3, 36, 4, 37, 2, 38, 1,
            39, 1, 40, 1, 41, 1, 47, 1, 49, 1, 51, 1, 53, 1, 55, 1, 71, 1,
        ],
    }
}

/// The faulty mesh's pinned report.
fn faulty_mesh() -> Fingerprint {
    Fingerprint {
        cores: 64,
        injected: 791,
        completed: 791,
        delivered: 797,
        hop_sum: 2171,
        latency_sum: 13475,
        latency_min: Some(4),
        latency_max: Some(107),
        buckets: vec![
            4, 79, 5, 2, 6, 3, 7, 6, 8, 86, 9, 29, 10, 19, 11, 22, 12, 84, 13, 38, 14, 24, 15, 32,
            16, 65, 17, 30, 18, 15, 19, 22, 20, 36, 21, 9, 22, 20, 23, 15, 24, 23, 25, 13, 26, 12,
            27, 7, 28, 7, 29, 5, 30, 6, 31, 10, 32, 6, 33, 4, 34, 2, 35, 4, 36, 3, 37, 6, 38, 6,
            39, 4, 40, 1, 41, 3, 42, 2, 43, 2, 44, 4, 45, 4, 46, 1, 47, 1, 49, 1, 52, 1, 54, 2, 55,
            3, 56, 1, 58, 1, 59, 1, 62, 1, 64, 1, 65, 2, 67, 1, 70, 1, 71, 1, 73, 1, 85, 1,
        ],
    }
}

/// Fault events the faulty mesh logs.
const FAULTY_MESH_FAULT_EVENTS: u64 = 148;

#[test]
fn mesh_matches_the_pinned_reference_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let switch_cfg = switch16();
        let mut sim = ShardedSim::new(
            mesh_geometry(),
            mesh_cfg(0xC0FFEE),
            shards,
            |_node| HiRiseSwitch::new(&switch_cfg),
            || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
        );
        assert_eq!(
            Fingerprint::of(&sim.run(), MEASURE),
            fault_free_mesh(),
            "sharded mesh diverged from the reference at {shards} shards"
        );
    }
}

/// Per-node faults: node index drives which switch gets which faults,
/// so a sharded build must reproduce the reference exactly — dead
/// resources, flaky resampling streams and all.
fn faulty_switch(node: usize, seed: u64) -> HiRiseSwitch {
    let switch_cfg = switch16();
    let mut switch = HiRiseSwitch::new(&switch_cfg);
    switch
        .enable_faults(derive_stream_seed(seed, node as u64))
        .expect("hi-rise supports faults");
    // Deterministic per-node fault mix: kill a TSV bundle on every
    // third node, make a bundle flaky on every fourth.
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

#[test]
fn faulty_mesh_matches_the_pinned_reference_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let mut sim = ShardedSim::new(
            mesh_geometry(),
            mesh_cfg(0xFA_117),
            shards,
            |node| faulty_switch(node, 0xFA_117),
            || Box::new(UniformRandom::new(64)) as Box<dyn TrafficPattern>,
        );
        assert_eq!(
            Fingerprint::of(&sim.run(), MEASURE),
            faulty_mesh(),
            "faulty sharded mesh diverged at {shards} shards"
        );
        assert_eq!(
            sim.fault_event_count(),
            FAULTY_MESH_FAULT_EVENTS,
            "fault event stream diverged at {shards} shards"
        );
    }
}

/// A small dragonfly: a=4, p=4, h=2, g=9 -> 36 routers, 144 endpoints
/// on radix-16 switches (9 ports used, 7 spare).
fn dragonfly(dead: &[(usize, usize)]) -> DragonflyGeometry {
    DragonflyGeometry::new(DragonflyConfig::new(4, 4, 2, 9), 16, dead).expect("routable dragonfly")
}

fn run_dragonfly(shards: usize, dead: &[(usize, usize)]) -> MeshReport {
    let switch_cfg = switch16();
    let cfg = ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(100)
        .measure(600)
        .drain(600)
        .seed(0xD12A);
    let mut sim = ShardedSim::new(
        dragonfly(dead),
        cfg,
        shards,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(144)) as Box<dyn TrafficPattern>,
    );
    sim.run()
}

#[test]
fn dragonfly_telemetry_is_shard_count_invariant() {
    let reference = run_dragonfly(1, &[]);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in [2, 8] {
        assert_eq!(
            run_dragonfly(shards, &[]),
            reference,
            "dragonfly diverged at {shards} shards"
        );
    }
}

#[test]
fn dragonfly_with_dead_wafer_links_is_shard_count_invariant() {
    let dead = [(0, 5), (2, 7), (3, 4)];
    let reference = run_dragonfly(1, &dead);
    assert!(reference.completed_measured() > 0, "nothing simulated");
    for shards in [2, 8] {
        assert_eq!(
            run_dragonfly(shards, &dead),
            reference,
            "faulty dragonfly diverged at {shards} shards"
        );
    }
}

/// Differential check against per-router golden stepping: single
/// packets must traverse exactly the routers `golden_path` predicts —
/// hop telemetry equals the golden path length (each switch traversal
/// including the final ejection counts one hop).
#[test]
fn dragonfly_single_packets_follow_the_golden_path() {
    for (dead, src, dst) in [
        (&[][..], 0usize, 143usize),    // cross-group, minimal
        (&[][..], 7, 9),                // same group, local hop
        (&[][..], 16, 17),              // same router
        (&[(0, 5)][..], 3, 5 * 16 + 2), // dead wafer link, detour
    ] {
        let geo = dragonfly(dead);
        let golden = geo.golden_path(src, dst);
        let switch_cfg = switch16();
        let cfg = ShardedConfig::new()
            .injection_rate(0.0)
            .warmup(0)
            .measure(400)
            .drain(400)
            .seed(1);
        let mut sim = ShardedSim::new(
            geo,
            cfg,
            3,
            |_node| HiRiseSwitch::new(&switch_cfg),
            move || {
                let mut fired = false;
                Box::new(Custom::new(
                    "single",
                    move |input: InputId, _r, _rng: &mut _| {
                        if input.index() == src && !fired {
                            fired = true;
                            Some(OutputId::new(dst))
                        } else {
                            None
                        }
                    },
                )) as Box<dyn TrafficPattern>
            },
        );
        let report = sim.run();
        assert_eq!(report.completed_measured(), 1, "packet {src}->{dst} lost");
        assert_eq!(
            report.avg_hops(),
            golden.len() as f64,
            "{src}->{dst}: expected route {golden:?}"
        );
    }
}
