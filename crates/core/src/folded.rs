//! The 3D *folded* baseline switch (§II-B).
//!
//! A 2D Swizzle-Switch folded evenly over `L` silicon layers: each layer
//! holds `N/L` inputs and `N/L` locally-connected outputs, but the fabric
//! is still one monolithic `N x N` crossbar whose 64 output buses punch
//! through every layer on TSVs. Arbitration is therefore *identical* to
//! the 2D switch — what changes is the physical cost: every output bus
//! wire needs a TSV per layer boundary (8192 TSVs for the 64-radix,
//! 128-bit, 4-layer switch of Table I) and the added TSV capacitance
//! slows the clock. The behavioural model here delegates to
//! [`Switch2d`]; the physical differences live in `hirise-phys`.

use crate::error::ConfigError;
use crate::fabric::{Fabric, Grant, Request};
use crate::fault::{Fault, FaultLog, TsvMap};
use crate::ids::{InputId, LayerId, OutputId};
use crate::kernel::ArbiterKernel;
use crate::switch2d::Switch2d;

/// A 2D switch folded over `layers` silicon layers.
#[derive(Clone, Debug)]
pub struct FoldedSwitch {
    inner: Switch2d,
    layers: usize,
    flit_bits: usize,
}

impl FoldedSwitch {
    /// Creates a folded switch of the given radix over `layers` layers
    /// with the default 128-bit bus.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero, `layers < 2`, or the radix does not
    /// divide evenly over the layers.
    pub fn new(radix: usize, layers: usize) -> Self {
        Self::with_flit_bits(radix, layers, crate::config::DEFAULT_FLIT_BITS)
    }

    /// Creates a folded switch with an explicit bus width.
    ///
    /// # Panics
    ///
    /// As [`FoldedSwitch::new`], and if `flit_bits` is zero.
    pub fn with_flit_bits(radix: usize, layers: usize, flit_bits: usize) -> Self {
        Self::with_kernel(radix, layers, flit_bits, ArbiterKernel::default())
    }

    /// Creates a folded switch with an explicit arbitration kernel (see
    /// [`Switch2d::with_kernel`]); arbitration delegates to the flat
    /// switch, so the kernel choice passes straight through.
    ///
    /// # Panics
    ///
    /// As [`FoldedSwitch::with_flit_bits`].
    pub fn with_kernel(
        radix: usize,
        layers: usize,
        flit_bits: usize,
        kernel: ArbiterKernel,
    ) -> Self {
        assert!(layers >= 2, "a folded switch needs at least 2 layers");
        assert!(
            radix.is_multiple_of(layers),
            "radix {radix} does not divide evenly over {layers} layers"
        );
        assert!(flit_bits > 0, "flit width must be non-zero");
        Self {
            inner: Switch2d::with_kernel(radix, kernel),
            layers,
            flit_bits,
        }
    }

    /// The arbitration kernel in effect on the underlying flat switch.
    pub fn kernel(&self) -> ArbiterKernel {
        self.inner.kernel()
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Inputs (and outputs) per layer.
    pub fn ports_per_layer(&self) -> usize {
        self.radix() / self.layers
    }

    /// Layer hosting `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn layer_of_input(&self, input: InputId) -> LayerId {
        assert!(input.index() < self.radix(), "input {input} out of range");
        LayerId::new(input.index() / self.ports_per_layer())
    }

    /// TSV count under the paper's accounting: every one of the `N`
    /// output buses (of `flit_bits` wires) must reach every layer, so the
    /// folded switch needs `N * flit_bits` vertical wires (Table I:
    /// 8192 for 64 x 128-bit over 4 layers).
    pub fn tsv_count(&self) -> usize {
        self.radix() * self.flit_bits
    }

    /// Seeds one output column's LRG order; see
    /// [`Switch2d::seed_output_priority`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `order` is not a permutation.
    pub fn seed_output_priority(&mut self, output: OutputId, order: &[usize]) {
        self.inner.seed_output_priority(output, order);
    }
}

impl Fabric for FoldedSwitch {
    fn radix(&self) -> usize {
        self.inner.radix()
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        self.inner.arbitrate_into(requests, grants)
    }

    fn release(&mut self, input: InputId) {
        self.inner.release(input);
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.inner.connection(input)
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.inner.output_busy(output)
    }

    /// One fault-site bundle per (output bus, layer boundary): a bundle
    /// is the `flit_bits` vertical wires carrying one output bus across
    /// one boundary, indexed `output * (layers-1) + boundary`.
    fn tsv_bundle_count(&self) -> usize {
        self.inner.radix() * (self.layers - 1)
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        let bundles = self.inner.radix() * (self.layers - 1);
        let map = TsvMap::Folded {
            layers: self.layers,
            ports_per_layer: self.ports_per_layer(),
        };
        self.inner.enable_faults_mapped(bundles, map, seed);
        Ok(())
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        if !self.inner.faults_enabled() {
            Fabric::enable_faults(self, 0)?;
        }
        self.inner.inject_fault_inner(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        self.inner.fault_log()
    }

    fn ticks_when_idle(&self) -> bool {
        self.inner.ticks_when_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_tsv_count() {
        let sw = FoldedSwitch::new(64, 4);
        assert_eq!(sw.tsv_count(), 8192);
        assert_eq!(sw.ports_per_layer(), 16);
    }

    #[test]
    fn arbitration_matches_flat_2d() {
        let mut folded = FoldedSwitch::new(16, 4);
        let mut flat = Switch2d::new(16);
        let requests: Vec<Request> = (0..16)
            .map(|i| Request::new(InputId::new(i), OutputId::new((i * 3) % 16)))
            .collect();
        let a = folded.arbitrate(&requests);
        let b = flat.arbitrate(&requests);
        assert_eq!(a, b);
    }

    #[test]
    fn layer_mapping() {
        let sw = FoldedSwitch::new(64, 4);
        assert_eq!(sw.layer_of_input(InputId::new(0)), LayerId::new(0));
        assert_eq!(sw.layer_of_input(InputId::new(20)), LayerId::new(1));
        assert_eq!(sw.layer_of_input(InputId::new(63)), LayerId::new(3));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_uneven_fold() {
        let _ = FoldedSwitch::new(65, 4);
    }

    #[test]
    fn dead_tsv_bundle_blocks_boundary_crossing_paths_only() {
        use crate::fabric::Request;
        use crate::fault::{Fault, FaultSite};

        let mut sw = FoldedSwitch::new(8, 4); // 2 ports per layer
        assert_eq!(Fabric::tsv_bundle_count(&sw), 8 * 3);
        // Output 6 lives on layer 3; kill its bus at boundary 1.
        sw.inject_fault(Fault::dead(FaultSite::TsvBundle { index: 6 * 3 + 1 }))
            .unwrap();
        // Input 0 (layer 0) must cross boundary 1 to reach output 6.
        let blocked = sw.arbitrate(&[Request::new(InputId::new(0), OutputId::new(6))]);
        assert!(blocked.is_empty());
        // Input 4 (layer 2) sits above the break: unaffected.
        let ok = sw.arbitrate(&[Request::new(InputId::new(4), OutputId::new(6))]);
        assert_eq!(ok.len(), 1);
        sw.release(InputId::new(4));
        // Other outputs of the blocked input are fine too.
        let ok = sw.arbitrate(&[Request::new(InputId::new(0), OutputId::new(7))]);
        assert_eq!(ok.len(), 1);
        assert_eq!(sw.fault_log().unwrap().total(), 1);
    }
}
