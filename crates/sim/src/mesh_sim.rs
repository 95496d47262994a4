//! The 2D mesh of switches (§VI-E, Fig. 13): its geometry, port
//! layouts and telemetry. [`ShardedSim`](crate::shard::ShardedSim)
//! simulates it, at one shard or many.
//!
//! Each mesh node is a full switch fabric (normally a
//! [`HiRiseSwitch`](hirise_core::HiRiseSwitch)) whose ports are split
//! between the four mesh directions and the locally attached cores.
//! Packets are routed XY dimension-ordered: store-and-forward per hop,
//! with the per-switch single-cycle arbitration, connection hold and
//! release semantics of the single-switch simulator. The Z (layer)
//! dimension is handled *inside* each Hi-Rise switch, which is exactly
//! the paper's point: "the 3D switch can provide the adaptable Z
//! dimension routing".
//!
//! Core numbering is global: core `g` lives on node
//! `(g / cores_per_node)` in row-major order, at local core index
//! `g % cores_per_node`.

use crate::stats::LatencyHistogram;
use hirise_core::OutputId;

/// The four mesh directions, in port-bank order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Direction {
    fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// How switch ports are assigned to mesh directions and cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MeshPortMap {
    /// Direction banks occupy consecutive ports (N, E, S, W, then
    /// cores). Simple, but straight-through traffic usually enters and
    /// leaves on different switch layers, consuming L2LC bandwidth
    /// inside every Hi-Rise hop.
    #[default]
    Contiguous,
    /// Layer-aware assignment (§VI-E: "layer-aware routing algorithms
    /// that minimize the traversal of traffic in the vertical direction
    /// will also help alleviate the L2LC bottleneck"): all four
    /// direction ports of a lane are placed on the *same* switch layer,
    /// so straight-through packets (which keep their lane hop to hop)
    /// never cross layers inside a switch.
    LayerAware {
        /// Stacked layer count of the mesh's switches.
        layers: usize,
    },
}

/// Results of a [`ShardedSim`](crate::shard::ShardedSim) run over a mesh
/// or any other topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshReport {
    pub(crate) measured_cycles: u64,
    pub(crate) delivered_in_window: u64,
    pub(crate) injected_measured: u64,
    pub(crate) completed_measured: u64,
    pub(crate) latency_sum: u64,
    pub(crate) hop_sum: u64,
    pub(crate) cores: usize,
    pub(crate) histogram: LatencyHistogram,
}

impl MeshReport {
    /// An all-zero report: the identity element for
    /// [`absorb`](Self::absorb). Every counter is a plain sum and the
    /// histogram is mergeable, so per-shard partial reports combine into
    /// exactly the report a single instance would have produced.
    pub(crate) fn empty(measured_cycles: u64, cores: usize) -> Self {
        Self {
            measured_cycles,
            delivered_in_window: 0,
            injected_measured: 0,
            completed_measured: 0,
            latency_sum: 0,
            hop_sum: 0,
            cores,
            histogram: LatencyHistogram::new(),
        }
    }

    /// Folds another partial report into this one (commutative and
    /// associative in every field).
    pub(crate) fn absorb(&mut self, other: &MeshReport) {
        self.delivered_in_window += other.delivered_in_window;
        self.injected_measured += other.injected_measured;
        self.completed_measured += other.completed_measured;
        self.latency_sum += other.latency_sum;
        self.hop_sum += other.hop_sum;
        self.histogram.merge(&other.histogram);
    }
    /// Aggregate accepted throughput in packets/cycle.
    pub fn accepted_rate(&self) -> f64 {
        self.delivered_in_window as f64 / self.measured_cycles as f64
    }

    /// Mean end-to-end packet latency in switch cycles.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.completed_measured == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.completed_measured as f64
        }
    }

    /// Mean switch traversals per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.completed_measured == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.completed_measured as f64
        }
    }

    /// Whether the mesh kept up with the offered load.
    pub fn is_stable(&self) -> bool {
        self.completed_measured as f64 >= 0.99 * self.injected_measured as f64
    }

    /// Total cores injecting.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Measured packets injected during the window.
    pub fn injected_measured(&self) -> u64 {
        self.injected_measured
    }

    /// Measured packets that completed.
    pub fn completed_measured(&self) -> u64 {
        self.completed_measured
    }

    /// The streaming end-to-end latency histogram over the measured
    /// population.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// The `p`-th end-to-end latency percentile in cycles (`p` in
    /// `[0, 100]`), or `None` if nothing completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile_cycles(&self, p: f64) -> Option<f64> {
        self.histogram.percentile(p)
    }
}

/// What a switch port is wired to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortRole {
    /// A mesh link in `dir` on spreading lane `lane`.
    Link { dir: Direction, lane: usize },
    /// Local core `local` (injection input / ejection output).
    Core { local: usize },
}

/// The port assignment shared by every switch of the mesh.
#[derive(Clone, Debug)]
struct PortLayout {
    /// `dir_ports[d][k]`: the port of direction `d`, lane `k`.
    dir_ports: Vec<Vec<usize>>,
    /// `core_ports[c]`: the port of local core `c`.
    core_ports: Vec<usize>,
    /// Inverse map.
    roles: Vec<PortRole>,
}

impl PortLayout {
    fn new(radix: usize, ports_per_direction: usize, map: MeshPortMap) -> Self {
        let p = ports_per_direction;
        let mut dir_ports = vec![vec![usize::MAX; p]; 4];
        let mut taken = vec![false; radix];
        match map {
            MeshPortMap::Contiguous => {
                for (d, bank) in dir_ports.iter_mut().enumerate() {
                    for (k, port) in bank.iter_mut().enumerate() {
                        *port = d * p + k;
                        taken[d * p + k] = true;
                    }
                }
            }
            MeshPortMap::LayerAware { layers } => {
                let per_layer = radix / layers;
                for k in 0..p {
                    let preferred = k % layers;
                    for bank in dir_ports.iter_mut() {
                        // First free port on the preferred layer, else
                        // anywhere (keeps the layout total).
                        let start = preferred * per_layer;
                        let slot = (start..start + per_layer)
                            .find(|&q| !taken[q])
                            .or_else(|| (0..radix).find(|&q| !taken[q]))
                            .expect("more ports than direction lanes");
                        bank[k] = slot;
                        taken[slot] = true;
                    }
                }
            }
        }
        let core_ports: Vec<usize> = (0..radix).filter(|&q| !taken[q]).collect();
        let mut roles = vec![PortRole::Core { local: 0 }; radix];
        for (d, bank) in dir_ports.iter().enumerate() {
            for (k, &port) in bank.iter().enumerate() {
                roles[port] = PortRole::Link {
                    dir: match d {
                        0 => Direction::North,
                        1 => Direction::East,
                        2 => Direction::South,
                        _ => Direction::West,
                    },
                    lane: k,
                };
            }
        }
        for (c, &port) in core_ports.iter().enumerate() {
            roles[port] = PortRole::Core { local: c };
        }
        Self {
            dir_ports,
            core_ports,
            roles,
        }
    }
}

/// Why a [`MeshGeometry`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeshError {
    /// Zero columns or zero rows.
    Empty,
    /// Zero ports reserved per mesh direction.
    NoDirectionPorts,
    /// The switch radix cannot host the direction ports plus a core.
    RadixTooSmall {
        /// The offered radix.
        radix: usize,
        /// Ports the shape needs (`4 * ports_per_direction + 1`).
        needed: usize,
    },
    /// A layer-aware map over a layer count that does not divide the
    /// radix.
    BadLayerCount {
        /// The switch radix.
        radix: usize,
        /// The map's layer count.
        layers: usize,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Empty => write!(f, "a mesh needs at least one column and one row"),
            MeshError::NoDirectionPorts => {
                write!(f, "a mesh needs at least one port per direction")
            }
            MeshError::RadixTooSmall { radix, needed } => write!(
                f,
                "radix {radix} too small: the direction ports and one core need {needed} ports"
            ),
            MeshError::BadLayerCount { radix, layers } => write!(
                f,
                "a layer-aware map needs a layer count that divides radix {radix}, got {layers}"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// The pure geometry of a 2D mesh of switches: node grid, port layout,
/// XY routing and link wiring. Implements
/// [`ShardTopology`](crate::shard::ShardTopology), so
/// [`ShardedSim`](crate::shard::ShardedSim) runs it.
#[derive(Clone, Debug)]
pub struct MeshGeometry {
    cols: usize,
    rows: usize,
    ports_per_direction: usize,
    radix: usize,
    cores_per_node: usize,
    layout: PortLayout,
}

impl MeshGeometry {
    /// Builds the geometry for `cols x rows` switches of `radix` ports,
    /// reserving `ports_per_direction` per mesh direction.
    ///
    /// # Errors
    ///
    /// [`MeshError`] if the mesh is empty, no direction ports are
    /// reserved, `radix` cannot serve the direction ports plus at least
    /// one core, or a layer-aware map's layer count does not divide
    /// `radix`.
    pub fn try_new(
        cols: usize,
        rows: usize,
        ports_per_direction: usize,
        radix: usize,
        map: MeshPortMap,
    ) -> Result<Self, MeshError> {
        if cols == 0 || rows == 0 {
            return Err(MeshError::Empty);
        }
        if ports_per_direction == 0 {
            return Err(MeshError::NoDirectionPorts);
        }
        let needed = 4 * ports_per_direction + 1;
        if radix < needed {
            return Err(MeshError::RadixTooSmall { radix, needed });
        }
        if let MeshPortMap::LayerAware { layers } = map {
            if layers == 0 || !radix.is_multiple_of(layers) {
                return Err(MeshError::BadLayerCount { radix, layers });
            }
        }
        Ok(Self {
            cols,
            rows,
            ports_per_direction,
            radix,
            cores_per_node: radix - 4 * ports_per_direction,
            layout: PortLayout::new(radix, ports_per_direction, map),
        })
    }

    /// [`try_new`](Self::try_new) for shapes known to be valid.
    ///
    /// # Panics
    ///
    /// Panics on any shape `try_new` rejects.
    pub fn new(
        cols: usize,
        rows: usize,
        ports_per_direction: usize,
        radix: usize,
        map: MeshPortMap,
    ) -> Self {
        Self::try_new(cols, rows, ports_per_direction, radix, map)
            .unwrap_or_else(|e| panic!("invalid mesh: {e}"))
    }

    /// Number of mesh nodes (switches).
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Cores attached to each node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total cores attached to the mesh.
    pub fn total_cores(&self) -> usize {
        self.cores_per_node * self.nodes()
    }

    fn node_of_core(&self, core: usize) -> usize {
        core / self.cores_per_node
    }

    fn node_xy(&self, node: usize) -> (usize, usize) {
        (node % self.cols, node / self.cols)
    }

    /// The node across the link in `dir`, or `None` off the grid edge
    /// (XY routing never targets an off-grid port; the `None` arm only
    /// matters when enumerating all ports, e.g. for shard frontiers).
    fn neighbor(&self, node: usize, dir: Direction) -> Option<usize> {
        let (x, y) = self.node_xy(node);
        let (nx, ny) = match dir {
            Direction::North => (x, y.checked_sub(1)?),
            Direction::East => (x + 1, y),
            Direction::South => (x, y + 1),
            Direction::West => (x.checked_sub(1)?, y),
        };
        (nx < self.cols && ny < self.rows).then(|| ny * self.cols + nx)
    }

    /// XY next-hop output port at `node` for a packet to `dst_core`
    /// with spreading lane `lane`.
    pub fn route(&self, node: usize, dst_core: usize, lane: usize) -> OutputId {
        let p = self.ports_per_direction;
        let dst_node = self.node_of_core(dst_core);
        let (x, y) = self.node_xy(node);
        let (dx, dy) = self.node_xy(dst_node);
        let dir = if x < dx {
            Some(Direction::East)
        } else if x > dx {
            Some(Direction::West)
        } else if y < dy {
            Some(Direction::South)
        } else if y > dy {
            Some(Direction::North)
        } else {
            None
        };
        match dir {
            Some(d) => OutputId::new(self.layout.dir_ports[d as usize][lane % p]),
            None => OutputId::new(self.layout.core_ports[dst_core % self.cores_per_node]),
        }
    }

    /// Which (node, input port) an output port of `node` feeds, or
    /// `None` for a local ejection port or an unwired grid-edge port.
    pub fn link_endpoint(&self, node: usize, output: OutputId) -> Option<(usize, usize)> {
        match self.layout.roles[output.index()] {
            PortRole::Core { .. } => None, // local ejection port
            PortRole::Link { dir, lane } => {
                let next = self.neighbor(node, dir)?;
                Some((next, self.layout.dir_ports[dir.opposite() as usize][lane]))
            }
        }
    }

    /// The switch input port of local core `local`.
    pub fn core_port(&self, local: usize) -> usize {
        self.layout.core_ports[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardedConfig, ShardedSim};
    use crate::traffic::{Custom, TrafficPattern, UniformRandom};
    use hirise_core::{HiRiseConfig, HiRiseSwitch, InputId};

    /// A mesh of 16-radix Hi-Rise switches over 2 layers; 2 ports per
    /// direction leave 8 cores per node.
    fn small_mesh(
        cols: usize,
        rows: usize,
        map: MeshPortMap,
        cfg: ShardedConfig,
        shards: usize,
        pattern: impl FnMut() -> Box<dyn TrafficPattern>,
    ) -> ShardedSim<HiRiseSwitch, MeshGeometry> {
        let switch_cfg = HiRiseConfig::builder(16, 2)
            .channel_multiplicity(2)
            .build()
            .expect("valid configuration");
        ShardedSim::new(
            MeshGeometry::new(cols, rows, 2, 16, map),
            cfg,
            shards,
            |_node| HiRiseSwitch::new(&switch_cfg),
            pattern,
        )
    }

    fn uniform(cores: usize) -> impl FnMut() -> Box<dyn TrafficPattern> {
        move || Box::new(UniformRandom::new(cores))
    }

    /// One packet from core `src` to core `dst`, then silence.
    fn single(src: usize, dst: usize) -> impl FnMut() -> Box<dyn TrafficPattern> {
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
            ))
        }
    }

    #[test]
    fn geometry_is_consistent() {
        let geo = MeshGeometry::new(3, 2, 2, 16, MeshPortMap::Contiguous);
        assert_eq!(geo.cores_per_node(), 8);
        assert_eq!(geo.total_cores(), 48);
    }

    #[test]
    fn invalid_shapes_are_errors() {
        let try_new = |cols, ppd, radix, map| MeshGeometry::try_new(cols, 2, ppd, radix, map);
        let contiguous = MeshPortMap::Contiguous;
        assert_eq!(try_new(0, 2, 16, contiguous).unwrap_err(), MeshError::Empty);
        assert_eq!(
            try_new(2, 0, 16, contiguous).unwrap_err(),
            MeshError::NoDirectionPorts
        );
        assert_eq!(
            try_new(2, 4, 16, contiguous).unwrap_err(),
            MeshError::RadixTooSmall {
                radix: 16,
                needed: 17
            }
        );
        assert_eq!(
            try_new(2, 2, 16, MeshPortMap::LayerAware { layers: 3 }).unwrap_err(),
            MeshError::BadLayerCount {
                radix: 16,
                layers: 3
            }
        );
        assert!(try_new(2, 2, 9, contiguous).is_ok(), "one core is enough");
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        // One packet from core 0 (node 0) to core 47 (node 5).
        let cfg = ShardedConfig::new().warmup(0).measure(200).drain(200);
        let mut sim = small_mesh(3, 2, MeshPortMap::Contiguous, cfg, 1, single(0, 47));
        let report = sim.run();
        assert_eq!(report.completed_measured(), 1);
        // XY from (0,0) to (2,1): East, East, South, then eject = 4
        // switch traversals.
        assert_eq!(report.avg_hops(), 4.0);
        assert!(
            report.avg_latency_cycles() >= 12.0,
            "{}",
            report.avg_latency_cycles()
        );
    }

    #[test]
    fn same_node_traffic_stays_local() {
        // Cores 1 and 3 both live on node 0.
        let cfg = ShardedConfig::new().warmup(0).measure(100).drain(100);
        let mut sim = small_mesh(2, 2, MeshPortMap::Contiguous, cfg, 1, single(1, 3));
        let report = sim.run();
        assert_eq!(report.completed_measured(), 1);
        assert_eq!(report.avg_hops(), 1.0);
    }

    #[test]
    fn low_load_uniform_random_is_stable() {
        let cfg = ShardedConfig::new()
            .injection_rate(0.01)
            .warmup(500)
            .measure(4_000)
            .drain(6_000);
        let mut sim = small_mesh(2, 2, MeshPortMap::Contiguous, cfg, 1, uniform(32));
        let report = sim.run();
        assert!(
            report.is_stable(),
            "{} of {} completed",
            report.completed_measured(),
            report.injected_measured()
        );
        assert!(report.avg_hops() >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = ShardedConfig::new()
                .injection_rate(0.02)
                .warmup(100)
                .measure(1_000)
                .seed(seed);
            let report = small_mesh(2, 2, MeshPortMap::Contiguous, cfg, 1, uniform(32)).run();
            (report.completed_measured(), report.latency_sum)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn port_layouts_are_permutations() {
        for map in [
            MeshPortMap::Contiguous,
            MeshPortMap::LayerAware { layers: 2 },
        ] {
            let layout = PortLayout::new(16, 2, map);
            let mut seen = [false; 16];
            for bank in &layout.dir_ports {
                for &port in bank {
                    assert!(!seen[port], "{map:?}: port {port} assigned twice");
                    seen[port] = true;
                }
            }
            for &port in &layout.core_ports {
                assert!(!seen[port], "{map:?}: port {port} assigned twice");
                seen[port] = true;
            }
            assert!(seen.iter().all(|&s| s), "{map:?}: unassigned ports");
            assert_eq!(layout.core_ports.len(), 8);
        }
    }

    #[test]
    fn layer_aware_aligns_opposite_directions() {
        // Radix 16 over 2 layers: 8 ports per layer. Each lane's four
        // direction ports must share a layer.
        let layout = PortLayout::new(16, 2, MeshPortMap::LayerAware { layers: 2 });
        let layer_of = |port: usize| port / 8;
        for lane in 0..2 {
            let layers: Vec<usize> = (0..4)
                .map(|d| layer_of(layout.dir_ports[d][lane]))
                .collect();
            assert!(
                layers.iter().all(|&l| l == layers[0]),
                "lane {lane} spans layers {layers:?}"
            );
        }
        // And the two lanes land on the two different layers.
        assert_ne!(
            layer_of(layout.dir_ports[0][0]),
            layer_of(layout.dir_ports[0][1])
        );
    }

    #[test]
    fn layer_aware_mesh_delivers_traffic() {
        let cfg = ShardedConfig::new()
            .injection_rate(0.01)
            .warmup(500)
            .measure(3_000)
            .drain(6_000);
        let map = MeshPortMap::LayerAware { layers: 2 };
        let report = small_mesh(3, 2, map, cfg, 1, uniform(48)).run();
        assert!(report.is_stable());
        assert!(report.avg_hops() >= 1.0);
    }

    #[test]
    fn back_pressure_bounds_link_buffers() {
        // Funnel traffic from every core to one corner node; with
        // credit-based links the interior buffers must never exceed the
        // advertised depth (the packets pile up at the sources instead).
        // Three shards put shard boundaries on the funnel's path, so
        // the credit checks also read published remote occupancies.
        for shards in [1, 3] {
            let mut cfg = ShardedConfig::new()
                .injection_rate(0.05)
                .warmup(0)
                .measure(2_000)
                .drain(0);
            cfg.link_buffer_packets = 2;
            let corner = move || -> Box<dyn TrafficPattern> {
                Box::new(Custom::new(
                    "corner",
                    move |_input: InputId, rate, rng: &mut _| {
                        use hirise_core::rng::Rng;
                        rng.gen_bool(f64::clamp(rate, 0.0, 1.0))
                            .then(|| OutputId::new(71))
                    },
                ))
            };
            let mut sim = small_mesh(3, 3, MeshPortMap::Contiguous, cfg, shards, corner);
            let report = sim.run();
            assert!(report.accepted_rate() > 0.0);
            for node in 0..9 {
                // Contiguous layout: the link-fed ports are the first 4*2.
                for input in 0..8 {
                    assert!(
                        sim.port(node, input).occupancy() <= 2,
                        "{shards} shards: node {node} port {input} overflowed"
                    );
                }
            }
        }
    }

    #[test]
    fn congestion_raises_latency() {
        let latency_at = |rate: f64| {
            let cfg = ShardedConfig::new()
                .injection_rate(rate)
                .warmup(500)
                .measure(3_000)
                .drain(8_000);
            small_mesh(2, 2, MeshPortMap::Contiguous, cfg, 1, uniform(32))
                .run()
                .avg_latency_cycles()
        };
        assert!(latency_at(0.02) > latency_at(0.002));
    }
}
