//! The invariant checker as it was before its per-cycle scratch was
//! made allocation-free: two fresh `Vec<bool>` per arbitration round, a
//! scan of every request per grant, and a SipHash map of FIFO lanes.
//! Test-only, recording mode only: the oracle in `super::tests` runs it
//! side by side with [`InvariantChecker`](super::InvariantChecker) on
//! random event streams and requires identical violations.

use super::{InvariantViolation, MAX_RECORDED};
use crate::packet::Packet;
use crate::port::InputPort;
use hirise_core::{Grant, Request};
use std::collections::HashMap;

#[derive(Debug, Default)]
pub(super) struct ReferenceChecker {
    injected_packets: u64,
    delivered_packets: u64,
    injected_flits: u64,
    delivered_flits: u64,
    last_delivered: HashMap<(usize, usize), u64>,
    violations: Vec<InvariantViolation>,
    violation_count: u64,
}

impl ReferenceChecker {
    pub(super) fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    pub(super) fn violation_count(&self) -> u64 {
        self.violation_count
    }

    fn fail(&mut self, cycle: Option<u64>, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(InvariantViolation { cycle, message });
        }
    }

    fn check(&mut self, ok: bool, cycle: Option<u64>, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(cycle, message());
        }
    }

    pub(super) fn on_injection(&mut self, packet: &Packet) {
        self.injected_packets += 1;
        self.injected_flits += packet.len_flits as u64;
    }

    pub(super) fn on_delivery(&mut self, input: usize, vc: usize, packet: &Packet) {
        self.delivered_packets += 1;
        self.delivered_flits += packet.len_flits as u64;
        if let Some(&last) = self.last_delivered.get(&(input, vc)) {
            self.check(packet.id > last, None, || {
                format!(
                    "invariant violated: input {input} VC {vc} delivered packet \
                     {} after packet {last} (FIFO lane reordered)",
                    packet.id
                )
            });
        }
        self.last_delivered.insert((input, vc), packet.id);
    }

    pub(super) fn after_arbitration(
        &mut self,
        cycle: u64,
        requests: &[Request],
        grants: &[Grant],
        busy_out_before: &[bool],
    ) {
        let radix = busy_out_before.len();
        let mut out_granted = vec![false; radix];
        let mut in_granted = vec![false; radix];
        for grant in grants {
            let input = grant.input.index();
            let output = grant.output.index();
            self.check(
                requests
                    .iter()
                    .any(|r| r.input == grant.input && r.output == grant.output),
                Some(cycle),
                || {
                    format!(
                        "invariant violated at cycle {cycle}: grant {input}->{output} \
                         answers no presented request"
                    )
                },
            );
            self.check(!out_granted[output], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: output {output} granted twice")
            });
            self.check(!in_granted[input], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: input {input} granted twice")
            });
            self.check(!busy_out_before[output], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: grant to busy output {output}")
            });
            out_granted[output] = true;
            in_granted[input] = true;
        }
    }

    pub(super) fn end_of_cycle(&mut self, cycle: u64, ports: &[InputPort], vcs: usize) {
        let mut in_flight_packets = 0u64;
        for (input, port) in ports.iter().enumerate() {
            let buffered = port.buffered();
            self.check(buffered <= vcs, Some(cycle), || {
                format!(
                    "invariant violated at cycle {cycle}: input {input} buffers \
                     {buffered} packets in {vcs} VCs"
                )
            });
            if port.is_transferring() {
                self.check(buffered >= 1, Some(cycle), || {
                    format!(
                        "invariant violated at cycle {cycle}: input {input} is \
                         mid-transfer with empty VCs"
                    )
                });
                if let Some(vc) = port.active_vc() {
                    self.check(vc < vcs, Some(cycle), || {
                        format!(
                            "invariant violated at cycle {cycle}: input {input} active \
                             VC {vc} out of range"
                        )
                    });
                } else {
                    self.fail(
                        Some(cycle),
                        format!(
                            "invariant violated at cycle {cycle}: input {input} is \
                             transferring with no active VC"
                        ),
                    );
                }
            }
            in_flight_packets += port.occupancy() as u64;
        }
        let (injected_packets, delivered_packets) = (self.injected_packets, self.delivered_packets);
        let (injected_flits, delivered_flits) = (self.injected_flits, self.delivered_flits);
        self.check(
            injected_packets == delivered_packets + in_flight_packets,
            Some(cycle),
            || {
                format!(
                    "invariant violated at cycle {cycle}: packet conservation broken \
                     ({injected_packets} injected != {delivered_packets} delivered + \
                     {in_flight_packets} in flight)"
                )
            },
        );
        self.check(delivered_flits >= delivered_packets, Some(cycle), || {
            format!(
                "invariant violated at cycle {cycle}: delivered flit count \
                 {delivered_flits} below packet count {delivered_packets}"
            )
        });
        self.check(injected_flits >= delivered_flits, Some(cycle), || {
            format!(
                "invariant violated at cycle {cycle}: delivered {delivered_flits} flits but \
                 only {injected_flits} were injected"
            )
        });
    }
}
