//! The common interface all switch fabrics expose to the simulator.

use crate::error::ConfigError;
use crate::fault::{Fault, FaultLog};
use crate::ids::{InputId, OutputId};

/// A request from an input port to connect to an output port, presented
/// for one arbitration cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// Requesting primary input.
    pub input: InputId,
    /// Desired final output.
    pub output: OutputId,
}

impl Request {
    /// Creates a request from `input` to `output`.
    pub const fn new(input: InputId, output: OutputId) -> Self {
        Self { input, output }
    }
}

/// A granted connection: `input` now owns `output` (and every internal
/// resource on the path) until [`Fabric::release`] is called.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The winning input.
    pub input: InputId,
    /// The output it was connected to.
    pub output: OutputId,
}

/// A switch fabric with built-in single-cycle arbitration and held
/// connections.
///
/// The protocol mirrors the Swizzle-Switch family: each arbitration cycle
/// the caller presents every outstanding [`Request`] (one per idle input);
/// the fabric resolves them in a single cycle and returns the [`Grant`]s.
/// A granted connection occupies its datapath — the output bus, and for
/// Hi-Rise the local-switch column and any layer-to-layer channel — until
/// the caller releases it, normally when a packet's tail flit has left.
///
/// Requests that lose simply have no effect; callers re-present them next
/// cycle. Requests from already-connected inputs are ignored.
///
/// `Send` is a supertrait so boxed fabrics can move into the sharded
/// simulator's worker threads; fabrics are plain data, so every
/// implementation satisfies it for free.
pub trait Fabric: Send {
    /// Number of input (and output) ports.
    fn radix(&self) -> usize;

    /// Runs one arbitration cycle over `requests`, establishing
    /// connections for the winners and writing them into `grants`.
    /// `grants` is cleared first, then filled; its capacity is reused
    /// across calls, which is what makes the simulator's steady-state
    /// cycle loop allocation-free.
    ///
    /// At most one request per input may be presented; later duplicates
    /// are ignored.
    ///
    /// # Panics
    ///
    /// Implementations panic if a request references an out-of-range port.
    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>);

    /// Runs one arbitration cycle like
    /// [`arbitrate_into`](Self::arbitrate_into), returning the winners
    /// in a freshly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if a request references an out-of-range port.
    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.arbitrate_into(requests, &mut grants);
        grants
    }

    /// Releases the connection held by `input`, freeing the output and
    /// all internal resources. Does nothing if `input` holds none.
    ///
    /// # Panics
    ///
    /// Implementations panic if `input` is out of range.
    fn release(&mut self, input: InputId);

    /// The output currently connected to `input`, if any.
    fn connection(&self, input: InputId) -> Option<OutputId>;

    /// Whether `output` is currently owned by a connection.
    fn output_busy(&self, output: OutputId) -> bool;

    /// Whether `input` currently holds a connection.
    fn input_busy(&self, input: InputId) -> bool {
        self.connection(input).is_some()
    }

    /// Number of connections currently held.
    fn active_connections(&self) -> usize {
        (0..self.radix())
            .filter(|&i| self.connection(InputId::new(i)).is_some())
            .count()
    }

    /// Number of TSV bundles this fabric models as fault sites. Zero
    /// for fabrics without TSVs (the flat 2D baseline) — injecting a
    /// [`FaultSite::TsvBundle`](crate::fault::FaultSite::TsvBundle)
    /// fault into such a fabric is rejected as out of range.
    fn tsv_bundle_count(&self) -> usize {
        0
    }

    /// Enables deterministic fault injection, seeding the dedicated
    /// flaky-fault sampler (independent of any traffic PRNG, so
    /// enabling faults never perturbs a fault-free simulation).
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultsUnsupported`] when the fabric does not
    /// model faults (the default).
    fn enable_faults(&mut self, _seed: u64) -> Result<(), ConfigError> {
        Err(ConfigError::FaultsUnsupported)
    }

    /// Injects `fault`, enabling fault support with seed 0 first if
    /// [`enable_faults`](Self::enable_faults) was never called. A down
    /// resource refuses new arbitration and channel allocation;
    /// in-flight connections complete normally.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultSiteOutOfRange`] for a site outside the
    /// fabric's geometry, [`ConfigError::InvalidFaultProbability`] for
    /// a flaky probability outside `[0, 1]`, or
    /// [`ConfigError::FaultsUnsupported`] when the fabric does not
    /// model faults (the default).
    fn inject_fault(&mut self, _fault: Fault) -> Result<(), ConfigError> {
        Err(ConfigError::FaultsUnsupported)
    }

    /// The fault-event log, if fault support was enabled.
    fn fault_log(&self) -> Option<&FaultLog> {
        None
    }

    /// Whether an idle arbitration cycle (no requests, no held
    /// connections) still mutates observable state, so the caller must
    /// tick the fabric every cycle rather than skipping it.
    ///
    /// Fabrics with flaky faults registered resample them (and draw
    /// from their fault PRNG) on every
    /// [`arbitrate_into`](Self::arbitrate_into) call, so skipping
    /// cycles would desynchronise the fault stream.
    /// Fault-free fabrics — and fabrics with only dead faults — are
    /// pure functions of the presented requests and may be skipped
    /// while idle. The conservative default is `true` (never skip);
    /// this crate's fabrics override it.
    fn ticks_when_idle(&self) -> bool {
        true
    }
}

impl<F: Fabric + ?Sized> Fabric for Box<F> {
    fn radix(&self) -> usize {
        (**self).radix()
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        (**self).arbitrate_into(requests, grants)
    }

    fn release(&mut self, input: InputId) {
        (**self).release(input)
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        (**self).connection(input)
    }

    fn output_busy(&self, output: OutputId) -> bool {
        (**self).output_busy(output)
    }

    fn tsv_bundle_count(&self) -> usize {
        (**self).tsv_bundle_count()
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        (**self).enable_faults(seed)
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        (**self).inject_fault(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        (**self).fault_log()
    }

    fn ticks_when_idle(&self) -> bool {
        (**self).ticks_when_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_fabrics_delegate() {
        let mut sw: Box<dyn Fabric> = Box::new(crate::Switch2d::new(4));
        assert_eq!(sw.radix(), 4);
        let grants = sw.arbitrate(&[Request::new(InputId::new(0), OutputId::new(1))]);
        assert_eq!(grants.len(), 1);
        assert!(sw.output_busy(OutputId::new(1)));
        sw.release(InputId::new(0));
        assert_eq!(sw.active_connections(), 0);
    }

    #[test]
    fn request_and_grant_are_plain_data() {
        let r = Request::new(InputId::new(1), OutputId::new(2));
        assert_eq!(r.input, InputId::new(1));
        assert_eq!(r.output, OutputId::new(2));
        let g = Grant {
            input: r.input,
            output: r.output,
        };
        assert!(!format!("{g:?}").is_empty());
    }
}
