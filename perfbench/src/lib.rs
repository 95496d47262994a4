//! End-to-end benchmark of the Hi-Rise reproduction.
//!
//! Three workloads drive the repository only through its public APIs:
//! `switch-grid` (single-switch lab campaigns), `network` (mesh and
//! dragonfly campaigns on the sharded engine) and `serve` (an
//! in-process `hirise-serve` under closed-loop TCP clients). A separate
//! traced run ([`split`]) splits host time across the layers. See
//! `README.md` for the metrics and how to run it.

pub mod campaigns;
pub mod outcome;
pub mod parts;
pub mod record;
pub mod serve;
pub mod split;
pub mod stats;
pub mod trace;
