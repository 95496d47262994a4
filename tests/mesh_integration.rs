//! Integration tests for the mesh-of-Hi-Rise topology (§VI-E, Fig. 13):
//! flit-level delivery across switches, agreement with the graph-level
//! analysis, and the layer-aware port-mapping benefit.

use hirise::core::{HiRiseConfig, HiRiseSwitch, InputId, OutputId};
use hirise::sim::mesh::{HiRiseMesh, NodeId};
use hirise::sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshReport};
use hirise::sim::shard::{ShardedConfig, ShardedSim};
use hirise::sim::traffic::{Custom, TrafficPattern, UniformRandom};

fn paper_switch() -> HiRiseConfig {
    HiRiseConfig::paper_optimal()
}

/// A `cols x rows` mesh of paper-optimal 64-radix switches with 6
/// ports per direction (40 cores per node), on one shard.
fn mesh(
    cols: usize,
    rows: usize,
    map: MeshPortMap,
    cfg: ShardedConfig,
    pattern: impl FnMut() -> Box<dyn TrafficPattern>,
) -> ShardedSim<HiRiseSwitch, MeshGeometry> {
    let switch_cfg = paper_switch();
    ShardedSim::new(
        MeshGeometry::new(cols, rows, 6, 64, map),
        cfg,
        1,
        |_node| HiRiseSwitch::new(&switch_cfg),
        pattern,
    )
}

#[test]
fn flit_level_hops_match_graph_analysis() {
    // 3x3 mesh of 64-radix switches, 6 ports/direction -> 40 cores/node.
    let cfg = ShardedConfig::new()
        .injection_rate(0.002)
        .warmup(500)
        .measure(4_000)
        .drain(8_000);
    let report = mesh(3, 3, MeshPortMap::Contiguous, cfg, || {
        Box::new(UniformRandom::new(360))
    })
    .run();
    assert!(report.is_stable());

    let mesh = HiRiseMesh::new(3, 3, paper_switch(), 6);
    let expected = mesh.avg_hops_uniform();
    assert!(
        (report.avg_hops() - expected).abs() < 0.15,
        "simulated {} vs analytic {expected}",
        report.avg_hops()
    );
}

#[test]
fn corner_to_corner_route_length() {
    let cfg = ShardedConfig::new().warmup(0).measure(500).drain(500);
    let cores = 4 * 4 * 40;
    let report = mesh(4, 4, MeshPortMap::Contiguous, cfg, || {
        let mut fired = false;
        Box::new(Custom::new(
            "corner",
            move |input: InputId, _r, _rng: &mut _| {
                if input.index() == 0 && !fired {
                    fired = true;
                    Some(OutputId::new(cores - 1))
                } else {
                    None
                }
            },
        ))
    })
    .run();
    assert_eq!(report.completed_measured(), 1);
    // (0,0) to (3,3): 3 east + 3 south + 1 eject = 7 switch traversals,
    // matching the graph route.
    let mesh = HiRiseMesh::new(4, 4, paper_switch(), 6);
    let route = mesh.xy_route(NodeId { x: 0, y: 0 }, NodeId { x: 3, y: 3 });
    assert_eq!(report.avg_hops() as usize, route.len());
}

/// §VI-E's layer-aware mapping must beat (or at worst match) the naive
/// contiguous assignment under straight-through cross traffic.
#[test]
fn layer_aware_mapping_helps_cross_traffic() {
    let run = |map: MeshPortMap| -> MeshReport {
        let cols = 4;
        let cores_per_node = 64 - 24;
        let cfg = ShardedConfig::new()
            .injection_rate(0.03)
            .warmup(500)
            .measure(4_000)
            .drain(0)
            .seed(3);
        mesh(cols, 2, map, cfg, || {
            Box::new(Custom::new("horizontal", move |input: InputId, r, rng| {
                use hirise_core::rng::Rng;
                let node = input.index() / cores_per_node;
                if !node.is_multiple_of(cols) {
                    return None;
                }
                if !rng.gen_bool(f64::clamp(r, 0.0, 1.0)) {
                    return None;
                }
                let dst_node = node + (cols - 1);
                Some(OutputId::new(
                    dst_node * cores_per_node + rng.gen_range(0..cores_per_node),
                ))
            }))
        })
        .run()
    };
    let contiguous = run(MeshPortMap::Contiguous);
    let aware = run(MeshPortMap::LayerAware { layers: 4 });
    assert!(
        aware.accepted_rate() >= contiguous.accepted_rate() * 0.98,
        "layer-aware {} vs contiguous {}",
        aware.accepted_rate(),
        contiguous.accepted_rate()
    );
}
