//! `hirise-serve` — the resident campaign service.
//!
//! A std-only TCP daemon (line-delimited JSON, no external
//! dependencies) that accepts [`hirise_lab::CampaignSpec`] requests,
//! schedules the expanded jobs onto a shared worker pool, and streams
//! per-job telemetry back as records complete. Three subsystems make
//! it production-shaped:
//!
//! - **Content-addressed caching** ([`cache`]): every finished job is
//!   stored under a hash of its canonical spec + seed + axes, so an
//!   identical request — resubmitted, or arriving from another client —
//!   is served from disk, byte-identical to a fresh run.
//! - **Admission control** ([`server`]): a bounded queue, a global
//!   in-flight cap and per-client limits turn overload into typed
//!   `error` responses instead of unbounded latency.
//! - **Journaling** ([`journal`]): campaign intent is flushed to the
//!   journal before work starts, so a killed daemon restarts and
//!   resumes incomplete campaigns without recomputing finished jobs.
//!   The journal is not `fsync`ed: it survives a process kill, not an
//!   OS crash or a power loss.
//!
//! The protocol and response format are documented in [`protocol`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod protocol;
pub mod server;

pub use cache::{CacheKey, ResultCache};
pub use journal::{Journal, JournalEntry};
pub use protocol::{parse_request, Request, RequestError, StatsSnapshot};
pub use server::{run, ServeConfig, ServerHandle};
