//! Tracing for the layer split: delegating wrappers that time calls
//! into a layer, and in-memory spans.
//!
//! The wrappers sit between a simulator and the fabric or traffic
//! pattern it drives, forward every trait method unchanged, and time 1
//! call in `every`. Totals live in plain fields and are added to a
//! shared sink when the wrapper drops, so the per-call cost is a
//! countdown plus, on sampled calls, two clock reads.

use hirise_core::rng::StdRng;
use hirise_core::{ConfigError, Fabric, Fault, FaultLog, Grant, InputId, OutputId, Request};
use hirise_sim::traffic::TrafficPattern;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sampling strides. Primes, so a stride never locks onto one input
/// of a radix-16/64 switch or one endpoint of a node.
pub const ARBITRATE_EVERY: u32 = 3;
/// See [`ARBITRATE_EVERY`].
pub const RELEASE_EVERY: u32 = 7;
/// See [`ARBITRATE_EVERY`].
pub const TRAFFIC_EVERY: u32 = 61;

/// Count plus sampled time of one call boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Nanoseconds spent in the timed calls.
    pub ns: u64,
}

impl Tally {
    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.ns += other.ns;
    }

    /// Mean ns per call, less `floor` (the cost of an empty timed
    /// interval); `0` when nothing was sampled.
    pub fn mean_ns(&self, floor: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.ns as f64 / self.sampled as f64 - floor).max(0.0)
    }

    /// Estimated ns across all calls.
    pub fn total_ns(&self, floor: f64) -> f64 {
        self.mean_ns(floor) * self.calls as f64
    }
}

/// Times 1 call in `every` of one boundary.
#[derive(Debug)]
struct Probe {
    every: u32,
    countdown: u32,
    tally: Tally,
}

impl Probe {
    fn new(every: u32) -> Self {
        Self {
            every: every.max(1),
            countdown: 0,
            tally: Tally::default(),
        }
    }

    #[inline]
    fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        self.tally.calls += 1;
        if self.countdown > 0 {
            self.countdown -= 1;
            return call();
        }
        self.countdown = self.every - 1;
        let start = Instant::now();
        let out = call();
        self.tally.ns += start.elapsed().as_nanos() as u64;
        self.tally.sampled += 1;
        out
    }
}

/// The mean cost of an empty timed interval on this host, to subtract
/// from sampled call times.
pub fn timer_floor_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = 0u128;
    for _ in 0..N {
        let start = Instant::now();
        total += start.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// What the fabric wrappers of one measurement recorded, summed over
/// every wrapped switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricTally {
    /// `arbitrate` and `arbitrate_into` calls.
    pub arbitrate: Tally,
    /// `release` calls.
    pub release: Tally,
    /// Requests presented.
    pub requests: u64,
    /// Grants returned.
    pub grants: u64,
}

impl FabricTally {
    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &FabricTally) {
        self.arbitrate.add(&other.arbitrate);
        self.release.add(&other.release);
        self.requests += other.requests;
        self.grants += other.grants;
    }

    /// Estimated ns inside the fabric.
    pub fn total_ns(&self, floor: f64) -> f64 {
        self.arbitrate.total_ns(floor) + self.release.total_ns(floor)
    }
}

/// Where wrappers deposit their totals when they drop.
pub type Sink<T> = Arc<Mutex<T>>;

/// A new empty sink.
pub fn sink<T: Default>() -> Sink<T> {
    Arc::new(Mutex::new(T::default()))
}

/// Reads a sink's totals.
pub fn read<T: Copy>(sink: &Sink<T>) -> T {
    *sink.lock().expect("trace sink poisoned")
}

/// A [`Fabric`] that forwards every method to `inner` and times its
/// `arbitrate`, `arbitrate_into` and `release` calls.
pub struct TracedFabric<F: Fabric> {
    inner: F,
    arbitrate: Probe,
    release: Probe,
    requests: u64,
    grants: u64,
    sink: Sink<FabricTally>,
}

impl<F: Fabric> TracedFabric<F> {
    /// Wraps `inner`; totals go to `sink` when the wrapper drops.
    pub fn new(inner: F, sink: Sink<FabricTally>) -> Self {
        Self {
            inner,
            arbitrate: Probe::new(ARBITRATE_EVERY),
            release: Probe::new(RELEASE_EVERY),
            requests: 0,
            grants: 0,
            sink,
        }
    }
}

impl<F: Fabric> Drop for TracedFabric<F> {
    fn drop(&mut self) {
        let mine = FabricTally {
            arbitrate: self.arbitrate.tally,
            release: self.release.tally,
            requests: self.requests,
            grants: self.grants,
        };
        if let Ok(mut total) = self.sink.lock() {
            total.add(&mine);
        }
    }
}

impl<F: Fabric> Fabric for TracedFabric<F> {
    fn radix(&self) -> usize {
        self.inner.radix()
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let grants = self.arbitrate.time(|| self.inner.arbitrate(requests));
        self.requests += requests.len() as u64;
        self.grants += grants.len() as u64;
        grants
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        self.arbitrate
            .time(|| self.inner.arbitrate_into(requests, grants));
        self.requests += requests.len() as u64;
        self.grants += grants.len() as u64;
    }

    fn release(&mut self, input: InputId) {
        self.release.time(|| self.inner.release(input));
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.inner.connection(input)
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.inner.output_busy(output)
    }

    fn input_busy(&self, input: InputId) -> bool {
        self.inner.input_busy(input)
    }

    fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    fn tsv_bundle_count(&self) -> usize {
        self.inner.tsv_bundle_count()
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        self.inner.enable_faults(seed)
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        self.inner.inject_fault(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        self.inner.fault_log()
    }

    fn ticks_when_idle(&self) -> bool {
        self.inner.ticks_when_idle()
    }
}

/// What the traffic wrappers of one measurement recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficTally {
    /// `next` calls.
    pub next: Tally,
    /// Packets generated (calls that returned a destination).
    pub packets: u64,
}

/// A [`TrafficPattern`] that forwards to `inner` and times `next`.
pub struct TracedPattern<T: TrafficPattern> {
    inner: T,
    next: Probe,
    packets: u64,
    sink: Sink<TrafficTally>,
}

impl<T: TrafficPattern> TracedPattern<T> {
    /// Wraps `inner`; totals go to `sink` when the wrapper drops.
    pub fn new(inner: T, sink: Sink<TrafficTally>) -> Self {
        Self {
            inner,
            next: Probe::new(TRAFFIC_EVERY),
            packets: 0,
            sink,
        }
    }
}

impl<T: TrafficPattern> Drop for TracedPattern<T> {
    fn drop(&mut self) {
        if let Ok(mut total) = self.sink.lock() {
            total.next.add(&self.next.tally);
            total.packets += self.packets;
        }
    }
}

impl<T: TrafficPattern> TrafficPattern for TracedPattern<T> {
    fn next(&mut self, input: InputId, base_rate: f64, rng: &mut StdRng) -> Option<OutputId> {
        let out = self.next.time(|| self.inner.next(input, base_rate, rng));
        self.packets += u64::from(out.is_some());
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Identifies a span; `0` is "no parent".
pub type SpanId = u64;

#[derive(Clone, Debug)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    start: Duration,
    duration: Option<Duration>,
}

/// Spans of one run, kept in memory and written out when it ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now under `parent`.
    pub fn open(&mut self, parent: SpanId, name: impl Into<String>) -> SpanId {
        self.push(parent, name.into(), Instant::now(), None)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.origin.elapsed();
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.duration = Some(now.saturating_sub(span.start));
        }
    }

    /// Records a finished span that ran from `start` for `duration`.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        start: Instant,
        duration: Duration,
    ) -> SpanId {
        self.push(parent, name.into(), start, Some(duration))
    }

    fn push(
        &mut self,
        parent: SpanId,
        name: String,
        start: Instant,
        duration: Option<Duration>,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.origin),
            duration,
        });
        id
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(out, "{{\"id\":{},\"parent\":{},\"name\":", s.id, s.parent);
            hirise_lab::json::write_escaped(&mut out, &s.name);
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start.as_nanos(),
                s.duration.map_or(-1, |d| d.as_nanos() as i128)
            );
        }
        out
    }
}
