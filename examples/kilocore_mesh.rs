//! Kilo-core topology study (§VI-E, Fig. 13): compose Hi-Rise switches
//! into a 2D mesh with XY routing and compare hop counts and zero-load
//! latency against a flat low-radix mesh of the same core count.
//!
//! ```sh
//! cargo run --release --example kilocore_mesh
//! ```

use hirise::core::HiRiseSwitch;
use hirise::phys::SwitchDesign;
use hirise::sim::mesh::{HiRiseMesh, NodeId};
use hirise::sim::mesh_sim::{MeshGeometry, MeshPortMap};
use hirise::sim::shard::{ShardedConfig, ShardedSim};
use hirise::sim::traffic::UniformRandom;

fn main() {
    let mesh = HiRiseMesh::kilocore();
    println!(
        "mesh           : {}x{} Hi-Rise switches",
        mesh.cols(),
        mesh.rows()
    );
    println!(
        "concentration  : {} cores per switch",
        mesh.cores_per_node()
    );
    println!("total cores    : {}", mesh.total_cores());
    println!("bisection      : {} mesh links", mesh.bisection_links());

    let avg_hops = mesh.avg_hops_uniform();
    let switch = SwitchDesign::hirise(mesh.switch());
    let cycle_ns = switch.cycle_time_ns();
    println!("avg switches   : {avg_hops:.2} per packet (uniform random)");
    println!(
        "zero-load lat  : {:.2} ns for an average route (4-flit packet)",
        mesh.zero_load_latency_cycles(avg_hops.round() as usize, 4) as f64 * cycle_ns
    );

    // An example XY route corner to corner.
    let route = mesh.xy_route(NodeId { x: 0, y: 0 }, NodeId { x: 4, y: 4 });
    println!("corner route   : {} switches (XY ordered)", route.len());

    // Versus a flat 32x32 mesh of single-core low-radix routers
    // (~1000 cores): mean hops 2*(k^2-1)/(3k) + 1.
    let k = 32.0;
    let flat_hops = 2.0 * (k * k - 1.0) / (3.0 * k) + 1.0;
    println!("\nflat 32x32 mesh of 1-core routers: {flat_hops:.1} hops on average");
    println!(
        "concentrated Hi-Rise mesh needs {:.1}x fewer switch traversals,",
        flat_hops / avg_hops
    );
    println!("which is the §VI-E argument for high-radix concentration, with the");
    println!("switch's layers providing adaptive Z routing inside each hop.");

    // Now simulate the same topology flit-by-flit at a light uniform
    // random load and compare against the graph-level estimate. The
    // mesh is partitioned across one shard per available core; the
    // lockstep exchange keeps the telemetry byte-identical to a
    // single-shard run, so the shard count is purely an execution knob.
    let switch_cfg = mesh.switch().clone();
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(mesh.node_count());
    println!("\nflit-level simulation (uniform random, 0.005 packets/core/ns):");
    println!("  sharded across {shards} worker thread(s), telemetry shard-count-invariant");
    let rate = 0.005 / switch.frequency_ghz();
    let geo = MeshGeometry::new(
        mesh.cols(),
        mesh.rows(),
        6,
        switch_cfg.radix(),
        MeshPortMap::Contiguous,
    );
    let sim_cfg = ShardedConfig::new()
        .injection_rate(rate)
        .warmup(500)
        .measure(4_000);
    let total_cores = mesh.total_cores();
    let mut sim = ShardedSim::new(
        geo,
        sim_cfg,
        shards,
        |_node| HiRiseSwitch::new(&switch_cfg),
        || Box::new(UniformRandom::new(total_cores)),
    );
    let report = sim.run();
    println!(
        "  accepted {:.2} packets/ns | latency {:.2} ns | {:.2} switch hops | stable {}",
        report.accepted_rate() * switch.frequency_ghz(),
        report.avg_latency_cycles() / switch.frequency_ghz(),
        report.avg_hops(),
        report.is_stable()
    );
}
