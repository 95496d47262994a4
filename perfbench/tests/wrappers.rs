//! The tracing wrappers must be invisible to the simulators they sit
//! in: same reports, same fault streams, same active-set schedule.

use hirise_core::Fabric;
use hirise_lab::{derive_seed, FaultSpec, SimParams};
use hirise_perfbench::parts::{hirise64, router16};
use hirise_perfbench::trace::{read, sink, FabricTally, TracedFabric, TracedPattern, TrafficTally};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshReport};
use hirise_sim::shard::{ShardedConfig, ShardedSim};
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetSchedule, NetworkSim};

/// Flaky TSVs on even nodes only: those routers must tick every cycle,
/// the healthy odd ones may be skipped while idle.
fn faults(node: usize) -> FaultSpec {
    if node.is_multiple_of(2) {
        FaultSpec::none().with_flaky_tsvs(2, 0.3)
    } else {
        FaultSpec::none()
    }
}

fn mesh<F: Fabric>(shards: usize, wrap: impl Fn(Box<dyn Fabric>) -> F) -> (MeshReport, u64, u64) {
    let geo = MeshGeometry::new(4, 4, 2, 16, MeshPortMap::Contiguous);
    let cores = geo.total_cores();
    let cfg = ShardedConfig::new()
        .injection_rate(0.02)
        .warmup(200)
        .measure(1_000)
        .drain(1_000)
        .seed(0xF1A4)
        .schedule(NetSchedule::ActiveSet);
    let mut sim = ShardedSim::new(
        geo,
        cfg,
        shards,
        |node| {
            let mut fabric = wrap(router16().build());
            faults(node).apply(&mut fabric, derive_seed(0xF1A4, node as u64));
            fabric
        },
        || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
    );
    let report = sim.run();
    (report, sim.fault_event_count(), sim.active_node_cycles())
}

#[test]
fn wrapped_flaky_routers_give_the_unwrapped_mesh_report() {
    let plain = mesh(2, |f| f);
    assert!(plain.1 > 0, "the flaky TSVs must produce fault events");
    let tally = sink::<FabricTally>();
    let traced = mesh(2, |f| TracedFabric::new(f, tally.clone()));
    assert_eq!(traced.0, plain.0);
    assert_eq!(traced.1, plain.1, "fault events");
    assert_eq!(traced.2, plain.2, "active-set schedule");
    let tally = read(&tally);
    assert!(tally.arbitrate.calls > 0 && tally.arbitrate.sampled > 0);
    assert!(tally.grants <= tally.requests);
}

#[test]
fn wrapped_single_switch_gives_the_unwrapped_report() {
    let params = SimParams::new().cycles(200, 2_000, 2_000);
    let fault = FaultSpec::none().with_flaky_tsvs(3, 0.2);
    let cfg = params.to_sim_config(64, 0.1, 42);

    let mut fabric = hirise64().build();
    fault.apply(&mut fabric, 42);
    let mut plain = NetworkSim::new(fabric, UniformRandom::new(64), cfg.clone());
    let plain_report = plain.run();

    let fabric_tally = sink::<FabricTally>();
    let traffic_tally = sink::<TrafficTally>();
    let mut fabric = TracedFabric::new(hirise64().build(), fabric_tally.clone());
    fault.apply(&mut fabric, 42);
    let mut traced = NetworkSim::new(
        fabric,
        TracedPattern::new(UniformRandom::new(64), traffic_tally.clone()),
        cfg,
    );
    let traced_report = traced.run();
    assert_eq!(traced_report, plain_report);
    assert_eq!(traced.fault_event_count(), plain.fault_event_count());
    let cycles = traced.now();
    drop(traced);

    let traffic = read(&traffic_tally);
    assert_eq!(
        traffic.next.calls,
        64 * cycles,
        "one poll per input per cycle"
    );
    assert!(traffic.packets > 0 && traffic.next.sampled > 0);
    assert_eq!(read(&fabric_tally).arbitrate.calls, cycles);
}
