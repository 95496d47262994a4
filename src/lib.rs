//! Facade crate for the Hi-Rise reproduction workspace.
//!
//! Re-exports the four member crates so examples and downstream users can
//! depend on a single crate:
//!
//! * [`core`] — switch fabrics and arbitration ([`hirise_core`]).
//! * [`sim`] — the cycle-accurate network simulator ([`hirise_sim`]).
//! * [`phys`] — circuit delay/area/energy/TSV models ([`hirise_phys`]).
//! * [`manycore`] — the trace-driven 64-core CMP simulator
//!   ([`hirise_manycore`]).
//! * [`lab`] — the deterministic parallel experiment-campaign runner
//!   ([`hirise_lab`]).
//! * [`serve`] — the resident campaign service with content-addressed
//!   caching, admission control and a journal that survives a killed
//!   process ([`hirise_serve`]).

pub use hirise_core as core;
pub use hirise_lab as lab;
pub use hirise_manycore as manycore;
pub use hirise_phys as phys;
pub use hirise_serve as serve;
pub use hirise_sim as sim;
