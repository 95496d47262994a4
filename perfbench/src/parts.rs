//! What the benchmark runs: the workloads, the campaign parts they are
//! made of, and the run context (threads, shards, loads) they share
//! with the traced layer split.

use hirise_core::rng::derive_stream_seed;
use hirise_core::{ArbitrationScheme, HiRiseConfig, MatchPolicy};
use hirise_lab::{CampaignSpec, FabricSpec, PatternSpec, SimParams, Topology};

/// Lab worker threads for the single-switch grid.
pub const GRID_THREADS: usize = 2;
/// Lab worker threads for the network campaigns.
pub const NET_THREADS: usize = 1;
/// Shards per job of the timed network campaigns. At two shards every
/// simulated cycle waits on three barriers across both vCPUs, so the
/// campaign time follows the host's scheduler more than the engine:
/// run alternately on a busy host, the 1st percentiles of two-shard
/// campaigns moved by 15-30% from run to run, those of one-shard
/// campaigns by 7%.
pub const NET_SHARDS: usize = 1;
/// Shards of the traced split's sharded-engine runs, which it times
/// against one shard for `engine.shard_speedup`.
pub const SPLIT_SHARDS: usize = 2;
/// `hirise-serve` worker threads.
pub const SERVER_WORKERS: usize = 2;
/// Closed-loop client connections to the server.
pub const CONNECTIONS: usize = 2;

/// Light single-switch load (packets/input/cycle).
pub const LIGHT_LOAD: f64 = 0.1;
/// Heavy single-switch load: the highest probed load at which Hi-Rise
/// r64 c=4 (saturating near 0.121), 2D r64 and iSLIP-2 r64 all keep up
/// with the offered load.
pub const HEAVY_LOAD: f64 = 0.11;
/// Mesh load (packets/core/cycle), about 80% of the 16x16 mesh's
/// saturation (~0.0105).
pub const MESH_LOAD: f64 = 0.0085;
/// Dragonfly load (packets/endpoint/cycle).
pub const DRAGONFLY_LOAD: f64 = 0.02;

/// Seed of the pinned reference outputs (see `pins.txt`).
pub const PIN_SEED: u64 = 1;

/// A user-facing workload: one value of `--workload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Light and heavy single-switch lab campaigns.
    SwitchGrid,
    /// Mesh and dragonfly campaigns on the sharded engine.
    Network,
    /// Cold and warm requests to an in-process `hirise-serve`.
    Serve,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "switch-grid" => Some(Self::SwitchGrid),
            "network" => Some(Self::Network),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    /// The `--workload` value.
    pub fn name(self) -> &'static str {
        match self {
            Self::SwitchGrid => "switch-grid",
            Self::Network => "network",
            Self::Serve => "serve",
        }
    }

    /// The campaign parts of a campaign workload, lighter first.
    pub fn parts(self) -> &'static [Part] {
        match self {
            Self::SwitchGrid => &[Part::Light, Part::Heavy],
            Self::Network => &[Part::Dragonfly, Part::Mesh],
            Self::Serve => &[],
        }
    }
}

/// One lab campaign of a campaign workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The single-switch grid at [`LIGHT_LOAD`].
    Light,
    /// The single-switch grid at [`HEAVY_LOAD`].
    Heavy,
    /// The 16x16 mesh of radix-16 Hi-Rise routers.
    Mesh,
    /// The 114-router dragonfly of radix-16 Hi-Rise routers.
    Dragonfly,
}

impl Part {
    /// Every part, in the order the layer split runs them.
    pub const ALL: [Part; 4] = [Part::Light, Part::Heavy, Part::Mesh, Part::Dragonfly];

    /// Short name used in metric names and output files.
    pub fn name(self) -> &'static str {
        match self {
            Part::Light => "light",
            Part::Heavy => "heavy",
            Part::Mesh => "mesh",
            Part::Dragonfly => "dragonfly",
        }
    }

    /// Lab worker threads the workload runs this part on.
    pub fn threads(self) -> usize {
        match self {
            Part::Light | Part::Heavy => GRID_THREADS,
            Part::Mesh | Part::Dragonfly => NET_THREADS,
        }
    }

    /// Whether the part runs on the sharded network engine.
    pub fn is_network(self) -> bool {
        matches!(self, Part::Mesh | Part::Dragonfly)
    }

    /// The part's campaign for workload seed `seed`. The seed only
    /// feeds the campaign's master seed; everything else is fixed.
    ///
    /// The simulated windows are short (one campaign takes 20-120 ms of
    /// host time) so that a measurement window holds a few hundred
    /// campaigns of each part: a shared host's speed moves from moment
    /// to moment, and a low percentile of many short operations finds
    /// its quiet moments far more reliably than one of a few dozen long
    /// ones.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let index = Part::ALL.iter().position(|&p| p == self).expect("listed") as u64;
        let spec = CampaignSpec::new(format!("perfbench-{}", self.name()))
            .master_seed(derive_stream_seed(seed, index))
            .pattern(PatternSpec::Uniform);
        match self {
            Part::Light | Part::Heavy => spec
                .fabric(hirise64())
                .fabric(FabricSpec::Flat2d { radix: 64 })
                .fabric(FabricSpec::Matching {
                    radix: 64,
                    policy: MatchPolicy::Islip { iterations: 2 },
                })
                .loads([if self == Part::Light {
                    LIGHT_LOAD
                } else {
                    HEAVY_LOAD
                }])
                .replicates(2)
                .sim(SimParams::new().cycles(200, 2_000, 2_000)),
            Part::Mesh => spec
                .topology(Topology::Mesh {
                    cols: 16,
                    rows: 16,
                    ports_per_direction: 2,
                    layer_aware: None,
                })
                .fabric(router16())
                .loads([MESH_LOAD])
                .shards(NET_SHARDS)
                .sim(SimParams::new().cycles(100, 300, 300)),
            Part::Dragonfly => spec
                .topology(Topology::Dragonfly {
                    routers_per_group: 6,
                    endpoints_per_router: 6,
                    global_per_router: 3,
                    groups: 19,
                    palmtree: false,
                })
                .fabric(router16())
                .loads([DRAGONFLY_LOAD])
                .shards(NET_SHARDS)
                .sim(SimParams::new().cycles(200, 1_000, 1_000)),
        }
    }
}

/// Hi-Rise r64: 4 layers, c=4, layer-to-layer LRG.
pub fn hirise64() -> FabricSpec {
    hirise(64)
}

/// The radix-16 Hi-Rise router of the network parts (same
/// configuration as [`hirise64`] at radix 16).
pub fn router16() -> FabricSpec {
    hirise(16)
}

fn hirise(radix: usize) -> FabricSpec {
    FabricSpec::hirise(
        HiRiseConfig::builder(radix, 4)
            .channel_multiplicity(4)
            .scheme(ArbitrationScheme::LayerToLayerLrg)
            .build()
            .expect("valid Hi-Rise configuration"),
    )
}

/// Short fabric name used in per-layer metric names.
pub fn fabric_key(fabric: &FabricSpec) -> &'static str {
    match fabric {
        FabricSpec::HiRise(cfg) if cfg.radix() == 16 => "router16",
        FabricSpec::HiRise(_) => "hirise64",
        FabricSpec::Flat2d { .. } => "2d64",
        FabricSpec::Matching { .. } => "islip64",
        FabricSpec::Folded { .. } => "folded",
    }
}

/// Fabric names of the per-layer metrics, in report order.
pub const FABRIC_KEYS: [&str; 4] = ["hirise64", "2d64", "islip64", "router16"];

/// Requests per cold request in each connection's stream: one cold
/// request, then this many minus one warm repeats.
pub const SERVE_BLOCK: usize = 5;

/// The `n`-th small campaign connection `conn` sends to the server:
/// four single-switch jobs (2 loads x 2 replicates), alternating
/// between a 2D and a Hi-Rise radix-16 switch. The seed feeds only the
/// master seed.
pub fn serve_campaign(seed: u64, conn: usize, n: usize) -> CampaignSpec {
    let stream = derive_stream_seed(seed, 100 + conn as u64);
    let fabric = if n.is_multiple_of(2) {
        FabricSpec::Flat2d { radix: 16 }
    } else {
        router16()
    };
    CampaignSpec::new(format!("perfbench-serve-c{conn}-{n}"))
        .master_seed(derive_stream_seed(stream, n as u64))
        .fabric(fabric)
        .pattern(PatternSpec::Uniform)
        .loads([0.1, 0.2])
        .replicates(2)
        .sim(SimParams::new().cycles(200, 1_000, 1_000))
}
