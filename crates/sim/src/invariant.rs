//! Runtime invariant checking for the simulator's cycle loop.
//!
//! [`InvariantChecker`] audits every cycle of a [`crate::NetworkSim`]
//! run against three families of invariants that must hold for *any*
//! correct fabric and port model:
//!
//! * **Flit conservation** — every flit ever injected is either still
//!   held by an input port (source queue or VC buffer) or has been
//!   delivered: `injected = in-flight + delivered`, checked in both
//!   packets and flits at the end of every cycle.
//! * **Buffer bounds** — a port never buffers more packets than it has
//!   virtual channels, and a mid-transfer port always holds the packet
//!   it is transferring.
//! * **Per-flow order** — within one `(input, VC)` stream (and hence
//!   within any `(input, output, VC)` flow), packets are delivered in
//!   strictly increasing injection-id order: the switch cannot reorder
//!   a FIFO lane.
//!
//! It also re-checks every arbitration result for grant legality: a
//! grant must answer a request presented that cycle, no output or input
//! may be granted twice, and no grant may land on an output that was
//! already mid-transfer.
//!
//! The checker is wired into [`crate::NetworkSim`] and enabled by
//! default in debug builds (`debug_assertions`); release builds skip it
//! unless [`crate::SimConfig::check_invariants`] or
//! [`crate::SimConfig::record_invariants`] turns it on, as every
//! `hirise-lab` job does. Its per-cycle work allocates nothing once
//! warm: grant legality uses scratch kept on the checker and a
//! per-input request lookup, and FIFO order a dense `(input, VC)` table.
//!
//! The checker runs in one of two modes. In the default *panic* mode
//! ([`InvariantChecker::new`]) a violation aborts with the offending
//! cycle and state — a violation is a bug in the switch model or the
//! simulator itself. In *recording* mode
//! ([`InvariantChecker::recording`], selected by
//! [`crate::SimConfig::record_invariants`]) violations are collected as
//! [`InvariantViolation`] records instead, so a long experiment
//! campaign can finish and report *which configuration* tripped an
//! invariant rather than dying mid-run (the `hirise-lab` runner
//! surfaces them in its per-job result records).

use crate::packet::Packet;
use crate::port::InputPort;
use hirise_core::{Grant, Request};

#[cfg(test)]
mod reference;

/// One recorded invariant violation (recording mode only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulation cycle of the violation, when known at the check site.
    pub cycle: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// How the checker reacts to a violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    /// Panic at the violation site (the default; a violation is a bug).
    #[default]
    Panic,
    /// Record the violation and keep simulating.
    Record,
}

/// Cap on stored violation records; beyond it only the count grows (one
/// broken invariant usually re-fires every subsequent cycle).
const MAX_RECORDED: usize = 16;

/// `requested` entry of an input that presented no request this round.
const NO_REQUEST: usize = usize::MAX;
/// `requested` entry of an input that presented more than one request
/// this round (illegal, but the grant check must still see every one).
const REPEATED: usize = usize::MAX - 1;

/// Audits a simulation cycle-by-cycle for conservation, buffer-bound,
/// ordering, and grant-legality invariants.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    injected_packets: u64,
    delivered_packets: u64,
    injected_flits: u64,
    delivered_flits: u64,
    /// Last delivered packet id per FIFO lane, indexed `[input][vc]`;
    /// rows and lanes are added on first use.
    last_delivered: Vec<Vec<Option<u64>>>,
    /// Per-round arbitration scratch, all false between rounds: which
    /// outputs and inputs this round's grants have claimed so far.
    out_granted: Vec<bool>,
    in_granted: Vec<bool>,
    /// Per-round request lookup by input, all [`NO_REQUEST`] between
    /// rounds: the output an input requested, or [`REPEATED`].
    requested: Vec<usize>,
    cycles_checked: u64,
    mode: Mode,
    violations: Vec<InvariantViolation>,
    violation_count: u64,
}

impl InvariantChecker {
    /// Creates a fresh checker that panics on the first violation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a checker that records violations instead of panicking,
    /// for campaign runs that must survive a misbehaving configuration.
    pub fn recording() -> Self {
        Self {
            mode: Mode::Record,
            ..Self::default()
        }
    }

    /// Whether this checker records violations rather than panicking.
    pub fn is_recording(&self) -> bool {
        self.mode == Mode::Record
    }

    /// Violations recorded so far (empty in panic mode, which never
    /// survives one). At most the first 16 are kept;
    /// [`violation_count`](Self::violation_count) keeps the true total.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Total violations observed, including those beyond the record cap.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Packets injected so far.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Packets delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Cycles audited so far.
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }

    /// Reports a violation detected by the caller's own bookkeeping —
    /// e.g. a buffered packet whose arena metadata slot is missing in
    /// the network simulators. Panics in panic mode, records otherwise,
    /// exactly like the checker's built-in audits.
    pub fn report_violation(&mut self, cycle: Option<u64>, message: String) {
        self.fail(cycle, message);
    }

    /// Fails one invariant: panics in panic mode, records otherwise.
    fn fail(&mut self, cycle: Option<u64>, message: String) {
        match self.mode {
            Mode::Panic => panic!("{message}"),
            Mode::Record => {
                self.violation_count += 1;
                if self.violations.len() < MAX_RECORDED {
                    self.violations.push(InvariantViolation { cycle, message });
                }
            }
        }
    }

    fn check(&mut self, ok: bool, cycle: Option<u64>, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(cycle, message());
        }
    }

    /// Records an injection.
    pub fn on_injection(&mut self, packet: &Packet) {
        self.injected_packets += 1;
        self.injected_flits += packet.len_flits as u64;
    }

    /// Records a delivery from `input`'s virtual channel `vc`, checking
    /// that the `(input, vc)` lane stays in FIFO order.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if the lane delivered a packet with a
    /// non-increasing id — i.e. the switch reordered a FIFO stream.
    pub fn on_delivery(&mut self, input: usize, vc: usize, packet: &Packet) {
        self.delivered_packets += 1;
        self.delivered_flits += packet.len_flits as u64;
        if input >= self.last_delivered.len() {
            self.last_delivered.resize_with(input + 1, Vec::new);
        }
        let lanes = &mut self.last_delivered[input];
        if vc >= lanes.len() {
            lanes.resize(vc + 1, None);
        }
        if let Some(last) = lanes[vc].replace(packet.id) {
            self.check(packet.id > last, None, || {
                format!(
                    "invariant violated: input {input} VC {vc} delivered packet \
                     {} after packet {last} (FIFO lane reordered)",
                    packet.id
                )
            });
        }
    }

    /// Checks one arbitration round for grant legality.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if a grant answers no presented request, an
    /// output or input is granted twice, or a grant lands on an output
    /// that `busy_out_before` marks as mid-transfer.
    pub fn after_arbitration(
        &mut self,
        cycle: u64,
        requests: &[Request],
        grants: &[Grant],
        busy_out_before: &[bool],
    ) {
        let radix = busy_out_before.len();
        if self.out_granted.len() < radix {
            self.out_granted.resize(radix, false);
            self.in_granted.resize(radix, false);
        }
        for request in requests {
            let input = request.input.index();
            if input >= self.requested.len() {
                self.requested.resize(input + 1, NO_REQUEST);
            }
            let slot = &mut self.requested[input];
            *slot = if *slot == NO_REQUEST {
                request.output.index()
            } else {
                REPEATED
            };
        }
        for grant in grants {
            let input = grant.input.index();
            let output = grant.output.index();
            let answered = match self.requested.get(input) {
                None | Some(&NO_REQUEST) => false,
                Some(&REPEATED) => requests
                    .iter()
                    .any(|r| r.input == grant.input && r.output == grant.output),
                Some(&requested) => requested == output,
            };
            self.check(answered, Some(cycle), || {
                format!(
                    "invariant violated at cycle {cycle}: grant {input}->{output} \
                     answers no presented request"
                )
            });
            // Slicing to `radix` keeps an out-of-range grant panicking
            // even when the scratch is longer from an earlier round.
            let output_twice = std::mem::replace(&mut self.out_granted[..radix][output], true);
            self.check(!output_twice, Some(cycle), || {
                format!("invariant violated at cycle {cycle}: output {output} granted twice")
            });
            let input_twice = std::mem::replace(&mut self.in_granted[..radix][input], true);
            self.check(!input_twice, Some(cycle), || {
                format!("invariant violated at cycle {cycle}: input {input} granted twice")
            });
            self.check(!busy_out_before[output], Some(cycle), || {
                format!("invariant violated at cycle {cycle}: grant to busy output {output}")
            });
        }
        for grant in grants {
            self.out_granted[grant.output.index()] = false;
            self.in_granted[grant.input.index()] = false;
        }
        for request in requests {
            self.requested[request.input.index()] = NO_REQUEST;
        }
    }

    /// End-of-cycle audit: flit conservation and buffer bounds across
    /// all ports.
    ///
    /// # Panics
    ///
    /// In panic mode, panics if packets or flits have leaked or been
    /// duplicated (`injected != in-flight + delivered`), if a port
    /// buffers more packets than it has VCs, or if a mid-transfer port
    /// holds no packet.
    pub fn end_of_cycle(&mut self, cycle: u64, ports: &[InputPort], vcs: usize) {
        self.cycles_checked += 1;
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
        // Flit conservation follows for completed packets; check the
        // delivered side directly (a torn packet would break it).
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

#[cfg(test)]
mod tests {
    use super::reference::ReferenceChecker;
    use super::*;
    use hirise_core::rng::{Rng, SeedableRng, StdRng};
    use hirise_core::{InputId, OutputId};

    fn packet(id: u64, len: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(0),
            dst: OutputId::new(1),
            len_flits: len,
            birth_cycle: 0,
            measured: false,
            handle: hirise_core::PacketHandle::NONE,
        }
    }

    #[test]
    fn counts_injections_and_deliveries() {
        let mut ck = InvariantChecker::new();
        ck.on_injection(&packet(0, 4));
        ck.on_injection(&packet(1, 4));
        ck.on_delivery(0, 0, &packet(0, 4));
        assert_eq!(ck.injected_packets(), 2);
        assert_eq!(ck.delivered_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "FIFO lane reordered")]
    fn reordered_lane_panics() {
        let mut ck = InvariantChecker::new();
        ck.on_delivery(3, 1, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4));
    }

    #[test]
    fn different_lanes_may_interleave() {
        let mut ck = InvariantChecker::new();
        ck.on_delivery(3, 0, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4)); // other VC: fine
        ck.on_delivery(2, 0, &packet(1, 4)); // other input: fine
    }

    #[test]
    #[should_panic(expected = "granted twice")]
    fn double_granted_output_panics() {
        let mut ck = InvariantChecker::new();
        let requests = vec![
            Request::new(InputId::new(0), OutputId::new(2)),
            Request::new(InputId::new(1), OutputId::new(2)),
        ];
        let grants = vec![
            Grant {
                input: InputId::new(0),
                output: OutputId::new(2),
            },
            Grant {
                input: InputId::new(1),
                output: OutputId::new(2),
            },
        ];
        ck.after_arbitration(0, &requests, &grants, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "busy output")]
    fn grant_to_busy_output_panics() {
        let mut ck = InvariantChecker::new();
        let requests = vec![Request::new(InputId::new(0), OutputId::new(1))];
        let grants = vec![Grant {
            input: InputId::new(0),
            output: OutputId::new(1),
        }];
        let mut busy = vec![false; 4];
        busy[1] = true;
        ck.after_arbitration(0, &requests, &grants, &busy);
    }

    #[test]
    #[should_panic(expected = "answers no presented request")]
    fn unsolicited_grant_panics() {
        let mut ck = InvariantChecker::new();
        let grants = vec![Grant {
            input: InputId::new(0),
            output: OutputId::new(1),
        }];
        ck.after_arbitration(0, &[], &grants, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "packet conservation broken")]
    fn leaked_packet_panics() {
        let mut ck = InvariantChecker::new();
        ck.on_injection(&packet(0, 4));
        // Packet neither delivered nor in any port: conservation broken.
        let ports = vec![InputPort::new(4)];
        ck.end_of_cycle(0, &ports, 4);
    }

    #[test]
    fn conserved_state_passes() {
        let mut ck = InvariantChecker::new();
        let mut port = InputPort::new(4);
        let p = packet(0, 4);
        ck.on_injection(&p);
        port.inject(p);
        let ports = vec![port];
        ck.end_of_cycle(0, &ports, 4);
        assert_eq!(ck.cycles_checked(), 1);
    }

    #[test]
    fn recording_mode_survives_and_records() {
        let mut ck = InvariantChecker::recording();
        assert!(ck.is_recording());
        ck.on_delivery(3, 1, &packet(7, 4));
        ck.on_delivery(3, 1, &packet(5, 4)); // reordered: would panic
        assert_eq!(ck.violation_count(), 1);
        assert_eq!(ck.violations().len(), 1);
        assert!(ck.violations()[0].message.contains("FIFO lane reordered"));
        assert_eq!(ck.violations()[0].cycle, None);
    }

    #[test]
    fn recording_mode_caps_stored_records_not_the_count() {
        let mut ck = InvariantChecker::recording();
        ck.on_injection(&packet(0, 4));
        let ports = vec![InputPort::new(4)];
        for cycle in 0..40 {
            ck.end_of_cycle(cycle, &ports, 4); // conservation broken every cycle
        }
        assert_eq!(ck.violation_count(), 40);
        assert_eq!(ck.violations().len(), 16);
        assert_eq!(ck.violations()[3].cycle, Some(3));
    }

    /// Drives the checker and the [`ReferenceChecker`] oracle with the
    /// same event stream and requires identical verdicts after every
    /// cycle. The stream is a small switch's real port traffic; odd
    /// seeds corrupt it with repeated-input and out-of-range requests,
    /// unsolicited, double and busy-output grants, fabricated
    /// (reordering) deliveries, leaked packets and understated VC
    /// counts, while even seeds stay legal and must record nothing.
    #[test]
    fn matches_reference_checker_on_random_event_streams() {
        let mut seen = [0u64; 6];
        let kinds = [
            "answers no presented request",
            "granted twice",
            "busy output",
            "FIFO lane reordered",
            "packet conservation broken",
            "packets in",
        ];
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let illegal = seed % 2 == 1;
            let p_bad = if illegal { 0.08 } else { 0.0 };
            let radix = rng.gen_range(1..9usize);
            let vcs = rng.gen_range(1..5usize);
            let mut ports: Vec<InputPort> = (0..radix).map(|_| InputPort::new(vcs)).collect();
            let mut transferring = vec![false; radix];
            let mut ck = InvariantChecker::recording();
            let mut oracle = ReferenceChecker::default();
            let mut next_id = 0u64;
            for cycle in 0..80u64 {
                // Completions, plus fabricated deliveries on random lanes.
                for input in 0..radix {
                    if transferring[input] && rng.gen_bool(0.5) {
                        let vc = ports[input].active_vc().expect("transferring");
                        let done = ports[input].complete_transfer();
                        transferring[input] = false;
                        ck.on_delivery(input, vc, &done);
                        oracle.on_delivery(input, vc, &done);
                    }
                }
                if rng.gen_bool(p_bad) {
                    let (input, vc) = (rng.gen_range(0..radix), rng.gen_range(0..vcs));
                    let fake = packet(rng.gen_range(0..next_id + 1), rng.gen_range(1..5));
                    ck.on_delivery(input, vc, &fake);
                    oracle.on_delivery(input, vc, &fake);
                }
                // Injections; an illegal stream sometimes drops one.
                for port in &mut ports {
                    if rng.gen_bool(0.3) {
                        let mut p = packet(next_id, rng.gen_range(1..5));
                        p.dst = OutputId::new(rng.gen_range(0..radix));
                        next_id += 1;
                        ck.on_injection(&p);
                        oracle.on_injection(&p);
                        if !rng.gen_bool(p_bad) {
                            port.inject(p);
                        }
                    }
                }
                // Requests from idle ports, then corruptions.
                let mut requests = Vec::new();
                for (input, port) in ports.iter_mut().enumerate() {
                    port.fill_vcs();
                    if !transferring[input] {
                        if let Some(dst) = port.select_candidate_dst() {
                            requests.push(Request::new(InputId::new(input), dst));
                        }
                    }
                }
                let output = |rng: &mut StdRng| OutputId::new(rng.gen_range(0..radix));
                if rng.gen_bool(p_bad) && !requests.is_empty() {
                    let input = requests[rng.gen_range(0..requests.len())].input;
                    let at = rng.gen_range(0..requests.len() + 1);
                    requests.insert(at, Request::new(input, output(&mut rng)));
                }
                if rng.gen_bool(p_bad) {
                    let input = InputId::new(radix + rng.gen_range(0..3));
                    requests.push(Request::new(input, output(&mut rng)));
                }
                // Grants: a conflict-free subset of the requests, then
                // corruptions.
                let mut busy = vec![false; radix];
                let mut grants: Vec<Grant> = Vec::new();
                for r in &requests {
                    let free = r.input.index() < radix
                        && grants
                            .iter()
                            .all(|g| g.input != r.input && g.output != r.output);
                    if free && rng.gen_bool(0.6) {
                        grants.push(Grant {
                            input: r.input,
                            output: r.output,
                        });
                    }
                }
                if rng.gen_bool(p_bad) {
                    let input = InputId::new(rng.gen_range(0..radix));
                    grants.push(Grant {
                        input,
                        output: output(&mut rng),
                    });
                }
                if rng.gen_bool(p_bad) && !grants.is_empty() {
                    let twice = grants[rng.gen_range(0..grants.len())];
                    grants.push(twice);
                }
                if rng.gen_bool(p_bad) && !grants.is_empty() {
                    busy[grants[rng.gen_range(0..grants.len())].output.index()] = true;
                }
                if rng.gen_bool(p_bad) {
                    busy[rng.gen_range(0..radix)] = true;
                }
                ck.after_arbitration(cycle, &requests, &grants, &busy);
                oracle.after_arbitration(cycle, &requests, &grants, &busy);
                for r in &requests {
                    let input = r.input.index();
                    if input >= radix || transferring[input] {
                        continue;
                    }
                    if grants.iter().any(|g| g.input == r.input) {
                        ports[input].confirm_grant();
                        transferring[input] = true;
                    } else {
                        ports[input].revoke_candidate();
                    }
                }
                let audited_vcs = if rng.gen_bool(p_bad) { vcs - 1 } else { vcs };
                ck.end_of_cycle(cycle, &ports, audited_vcs);
                oracle.end_of_cycle(cycle, &ports, audited_vcs);

                assert_eq!(
                    ck.violations(),
                    oracle.violations(),
                    "seed {seed} cycle {cycle}"
                );
                assert_eq!(
                    ck.violation_count(),
                    oracle.violation_count(),
                    "seed {seed} cycle {cycle}"
                );
            }
            if !illegal {
                assert_eq!(ck.violation_count(), 0, "legal stream, seed {seed}");
            }
            for v in oracle.violations() {
                for (count, kind) in seen.iter_mut().zip(kinds) {
                    *count += u64::from(v.message.contains(kind));
                }
            }
        }
        for (count, kind) in seen.iter().zip(kinds) {
            assert!(*count > 0, "no stream produced a \"{kind}\" violation");
        }
    }
}
