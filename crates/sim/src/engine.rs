//! The per-node engine of the network simulator.
//!
//! Each shard of [`ShardedSim`](crate::shard::ShardedSim) steps a
//! three-phase cycle (transfers, injection, arbitration) over the
//! nodes it owns; this module holds that per-node state and the two
//! heavy phases.
//!
//! Two structural choices make the hot loop cheap:
//!
//! * **SoA packet arenas** ([`crate::arena`]) — per-packet routing
//!   metadata (the hop counter) lives in one slab indexed by a
//!   [`PacketHandle`](hirise_core::PacketHandle) stored inside each
//!   [`Packet`], replacing the old per-node `HashMap<u64, MeshPacket>`
//!   (a SipHash probe per buffered packet per cycle) and its insert /
//!   remove churn. Transfer slots are flat `Vec`s (flit countdown +
//!   output port) with a validity bitmask, replacing
//!   `Vec<Option<Transfer>>`.
//! * **Active sets** — the engine maintains a `work` set (nodes holding
//!   any packet in a source queue or VC) and a `moving` set (nodes with
//!   a transfer slot occupied). The transfer phase walks only `moving`,
//!   the arbitration phase only `work`, and per-node port scans walk
//!   occupancy mask words, so an idle router costs *zero* work per
//!   cycle instead of a radix-wide scan plus an empty arbitration.
//!
//! Skipping an idle router is only sound because an idle arbitration
//! cycle is unobservable for it: `arbitrate` with no requests and no
//! held connections mutates nothing but the fault-state cycle counter —
//! *unless* the fabric has flaky faults, which draw from their PRNG
//! every cycle. [`Fabric::ticks_when_idle`] reports exactly that, and
//! such nodes are *pinned*: permanently in the `work` set, arbitrated
//! every cycle, so their fault streams replay exactly as in a dense
//! sweep. The [`NetSchedule::Dense`] schedule disables skipping
//! entirely (every node, every phase, unconditional arbitration — the
//! old engine's cost model) and is pinned byte-identical to
//! [`NetSchedule::ActiveSet`] by the twin tests in
//! `tests/net_schedule.rs`.
//!
//! Membership is *state-based*, not event-based: a node is in `work`
//! iff it holds a packet (or is pinned), so a credit-blocked packet
//! keeps its node scheduled and there is no missed-wakeup hazard.

use crate::arena::PacketArena;
use crate::invariant::InvariantChecker;
use crate::mesh_sim::MeshReport;
use crate::packet::Packet;
use crate::port::InputPort;
use crate::shard::ShardTopology;
use hirise_core::{BitSet, Fabric, Grant, InputId, OutputId, Request};

/// How the network simulators schedule per-node work each cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetSchedule {
    /// Visit every node in every phase and arbitrate unconditionally,
    /// like the pre-active-set engine. Kept as the control arm for the
    /// `cyclebench --net-smoke` gate and the twin-identity tests.
    Dense,
    /// Walk only the active sets; idle routers cost nothing. The
    /// default — telemetry is byte-identical to [`Dense`](Self::Dense)
    /// by construction.
    #[default]
    ActiveSet,
}

/// Per-node simulation state of one shard: flattened input ports, the
/// packet arena, SoA transfer slots, the active sets, and persistent
/// per-cycle scratch.
///
/// Node indices here are *local* (0-based within the owning shard);
/// phase functions take `node_lo` to translate to global topology
/// indices.
#[derive(Debug)]
pub(crate) struct NodeEngine {
    pub(crate) nodes: usize,
    pub(crate) radix: usize,
    /// Words per node in the port-indexed bitmasks.
    pub(crate) stride: usize,
    /// `ports[node * radix + input]`.
    pub(crate) ports: Vec<InputPort>,
    pub(crate) arena: PacketArena,
    /// Flit countdown per transfer slot; valid iff the `xfer_mask` bit
    /// is set. `> 0`: in flight; `== 0`: completed, awaiting the
    /// release beat.
    xfer_flits: Vec<u32>,
    /// Output port of each valid transfer slot.
    xfer_output: Vec<u32>,
    /// Bit per (node, input): transfer slot occupied.
    xfer_mask: Vec<u64>,
    /// Bit per (node, input): port holds at least one packet.
    occ_mask: Vec<u64>,
    /// Packets admitted to each node and not yet launched downstream.
    resident: Vec<u32>,
    /// Nodes with `resident > 0`, plus every pinned node.
    work: BitSet,
    /// Nodes with any transfer slot occupied.
    moving: BitSet,
    /// Nodes whose fabric must arbitrate every cycle
    /// ([`Fabric::ticks_when_idle`]): flaky-fault switches.
    pinned: BitSet,
    schedule: NetSchedule,
    /// Records (rather than aborts on) metadata-integrity violations.
    checker: InvariantChecker,
    /// Sum over cycles of the `work` set size — the active-router
    /// occupancy numerator reported by the `wafer_scale` example.
    active_node_cycles: u64,
    /// Snapshot buffer for iterating an active set while mutating it.
    worklist: Vec<u32>,
    /// Per-node scratch: `(input, output)` of surviving candidates.
    candidates: Vec<(u32, u32)>,
    requests: Vec<Request>,
    grants: Vec<Grant>,
    /// Grant bit per input, `stride` words, cleared per node.
    granted: Vec<u64>,
    /// Ports whose occupancy changed since the list was last drained;
    /// only maintained when `track_touched` (shards with boundary
    /// ports, which publish occupancy snapshots from it).
    pub(crate) touched: Vec<u32>,
    track_touched: bool,
}

impl NodeEngine {
    /// Builds the engine for `switches` (one node each), reading each
    /// fabric's radix and idle-tick requirement. `track_touched`
    /// enables the dirty-port list for boundary-occupancy publishing.
    pub(crate) fn new<F: Fabric>(
        switches: &[F],
        vcs: usize,
        schedule: NetSchedule,
        track_touched: bool,
    ) -> Self {
        let nodes = switches.len();
        let radix = switches[0].radix();
        let stride = radix.div_ceil(64);
        let mut work = BitSet::new(nodes);
        let mut pinned = BitSet::new(nodes);
        for (node, switch) in switches.iter().enumerate() {
            if switch.ticks_when_idle() {
                pinned.insert(node);
                work.insert(node);
            }
        }
        Self {
            nodes,
            radix,
            stride,
            ports: (0..nodes * radix).map(|_| InputPort::new(vcs)).collect(),
            arena: PacketArena::with_capacity(nodes * radix),
            xfer_flits: vec![0; nodes * radix],
            xfer_output: vec![0; nodes * radix],
            xfer_mask: vec![0; nodes * stride],
            occ_mask: vec![0; nodes * stride],
            resident: vec![0; nodes],
            work,
            moving: BitSet::new(nodes),
            pinned,
            schedule,
            checker: InvariantChecker::recording(),
            active_node_cycles: 0,
            worklist: Vec::with_capacity(nodes),
            candidates: Vec::with_capacity(radix),
            requests: Vec::with_capacity(radix),
            grants: Vec::with_capacity(radix),
            granted: vec![0; stride],
            touched: Vec::new(),
            track_touched,
        }
    }

    /// The port at `(local node, input)`.
    #[cfg(test)]
    pub(crate) fn port(&self, local: usize, input: usize) -> &InputPort {
        &self.ports[local * self.radix + input]
    }

    /// Admits a packet that already owns a live arena slot into a
    /// node's input port (local forwarding).
    pub(crate) fn admit(&mut self, local: usize, input: usize, packet: Packet) {
        let idx = local * self.radix + input;
        self.ports[idx].inject(packet);
        self.resident[local] += 1;
        self.work.insert(local);
        self.occ_mask[local * self.stride + input / 64] |= 1u64 << (input % 64);
        if self.track_touched {
            self.touched.push(idx as u32);
        }
    }

    /// Allocates an arena slot holding `hops` for `packet` and admits
    /// it (fresh injections and cross-shard arrivals, whose sender
    /// freed its own slot).
    pub(crate) fn admit_new(&mut self, local: usize, input: usize, mut packet: Packet, hops: u32) {
        packet.handle = self.arena.alloc(hops);
        self.admit(local, input, packet);
    }

    /// Sum over cycles of the number of nodes the arbitration phase
    /// actually visited — the work set under the active-set schedule,
    /// every node under the dense one. Divide by `cycles * nodes` for
    /// the mean active-router occupancy.
    pub(crate) fn active_node_cycles(&self) -> u64 {
        self.active_node_cycles
    }

    /// Metadata-integrity violations recorded so far.
    #[cfg(test)]
    pub(crate) fn violations(&self) -> &[crate::invariant::InvariantViolation] {
        self.checker.violations()
    }

    /// Total violations observed (including beyond the record cap).
    pub(crate) fn violation_count(&self) -> u64 {
        self.checker.violation_count()
    }

    /// A buffered packet's arena slot is missing: the invariant the old
    /// engine enforced with
    /// `.expect("metadata present for buffered packet")`. Recorded, and
    /// the packet is dropped, instead of aborting the process.
    fn missing_meta(&mut self, now: u64, id: u64, node: usize) {
        self.checker.report_violation(
            Some(now),
            format!(
                "invariant violated: no arena metadata for buffered packet {id} at node {node}; \
                 packet dropped"
            ),
        );
    }
}

/// Transfer phase: advance every occupied transfer slot of the active
/// (`moving`) nodes one flit. A slot reaching zero completes — the
/// packet ejects (delivery telemetry into `report`), forwards into a
/// local node's port, or is handed to `remote` with its final hop count
/// (cross-shard, the sender's arena slot freed). A slot already at zero
/// is the release beat: free the fabric connection and the slot.
///
/// `node_lo` is the global index of local node 0; `remote` receives
/// `(global node, input, packet, hops)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase_transfers<F: Fabric, T: ShardTopology + ?Sized>(
    eng: &mut NodeEngine,
    switches: &mut [F],
    topo: &T,
    node_lo: usize,
    report: &mut MeshReport,
    in_window: bool,
    now: u64,
    mut remote: impl FnMut(usize, usize, Packet, u32),
) {
    let stride = eng.stride;
    let radix = eng.radix;
    let mut list = std::mem::take(&mut eng.worklist);
    list.clear();
    match eng.schedule {
        NetSchedule::Dense => list.extend(0..eng.nodes as u32),
        NetSchedule::ActiveSet => list.extend(eng.moving.iter().map(|n| n as u32)),
    }
    for &nl in &list {
        let local = nl as usize;
        let node = node_lo + local;
        let mask_base = local * stride;
        for w in 0..stride {
            // Word copy: bits cleared below don't affect this scan, and
            // nothing sets transfer bits during the phase.
            let mut word = eng.xfer_mask[mask_base + w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let input = w * 64 + bit;
                let idx = local * radix + input;
                if eng.xfer_flits[idx] > 0 {
                    eng.xfer_flits[idx] -= 1;
                    if eng.xfer_flits[idx] != 0 {
                        continue;
                    }
                    // Tail flit left: the packet moves on. The slot
                    // stays occupied until next cycle's release beat.
                    let output = OutputId::new(eng.xfer_output[idx] as usize);
                    let packet = eng.ports[idx].complete_transfer();
                    if eng.ports[idx].is_idle() {
                        eng.occ_mask[mask_base + w] &= !(1u64 << bit);
                    }
                    if eng.track_touched {
                        eng.touched.push(idx as u32);
                    }
                    match topo.wire(node, output) {
                        None => match eng.arena.take(packet.handle) {
                            Some(prior) => {
                                if in_window {
                                    report.delivered_in_window += 1;
                                }
                                if packet.measured {
                                    report.completed_measured += 1;
                                    let latency = packet.latency(now);
                                    report.latency_sum += latency;
                                    report.histogram.record(latency);
                                    report.hop_sum += u64::from(prior + 1);
                                }
                            }
                            None => eng.missing_meta(now, packet.id, node),
                        },
                        Some((next_node, next_input)) => {
                            if (node_lo..node_lo + eng.nodes).contains(&next_node) {
                                match eng.arena.bump(packet.handle) {
                                    Some(_) => eng.admit(next_node - node_lo, next_input, packet),
                                    None => eng.missing_meta(now, packet.id, node),
                                }
                            } else {
                                match eng.arena.take(packet.handle) {
                                    Some(prior) => remote(next_node, next_input, packet, prior + 1),
                                    None => eng.missing_meta(now, packet.id, node),
                                }
                            }
                        }
                    }
                } else {
                    // Release beat, one cycle after the tail flit.
                    switches[local].release(InputId::new(input));
                    eng.xfer_mask[mask_base + w] &= !(1u64 << bit);
                    if eng.xfer_mask[mask_base..mask_base + stride]
                        .iter()
                        .all(|&x| x == 0)
                    {
                        eng.moving.remove(local);
                    }
                }
            }
        }
    }
    eng.worklist = list;
}

/// Arbitration phase: for every active (`work`) node, fill VCs and
/// select a candidate on each occupied port, route and credit-check it,
/// arbitrate the surviving requests, and launch the winners' transfers.
///
/// `remote_occupancy` answers credit checks for downstream ports
/// outside `[node_lo, node_lo + nodes)` (the shard frontier
/// snapshots); a lone shard never calls it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase_arbitrate<F: Fabric, T: ShardTopology + ?Sized>(
    eng: &mut NodeEngine,
    switches: &mut [F],
    topo: &T,
    node_lo: usize,
    link_buffer_packets: usize,
    packet_len_flits: usize,
    mut remote_occupancy: impl FnMut(usize, usize) -> usize,
) {
    let stride = eng.stride;
    let radix = eng.radix;
    let credit = topo.credit_links();
    let mut list = std::mem::take(&mut eng.worklist);
    list.clear();
    match eng.schedule {
        NetSchedule::Dense => list.extend(0..eng.nodes as u32),
        NetSchedule::ActiveSet => list.extend(eng.work.iter().map(|n| n as u32)),
    }
    eng.active_node_cycles += list.len() as u64;
    for &nl in &list {
        let local = nl as usize;
        let node = node_lo + local;
        let mask_base = local * stride;
        eng.candidates.clear();
        eng.requests.clear();
        for w in 0..stride {
            // Word copy: candidate selection never changes occupancy.
            let mut word = eng.occ_mask[mask_base + w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let input = w * 64 + bit;
                let idx = local * radix + input;
                eng.ports[idx].fill_vcs();
                if eng.xfer_mask[mask_base + w] & (1u64 << bit) != 0 {
                    continue; // transfer slot busy (in flight or pre-release)
                }
                let Some((id, dst)) = eng.ports[idx].select_candidate_meta() else {
                    continue;
                };
                let output = topo.route(node, dst.index(), id as usize);
                if credit {
                    // The downstream port must have a free slot before
                    // this hop may start (the in-flight hop itself is
                    // the one slot we reserve).
                    if let Some((next_node, next_input)) = topo.wire(node, output) {
                        let occupancy = if (node_lo..node_lo + eng.nodes).contains(&next_node) {
                            eng.ports[(next_node - node_lo) * radix + next_input].occupancy()
                        } else {
                            remote_occupancy(next_node, next_input)
                        };
                        if occupancy >= link_buffer_packets {
                            eng.ports[idx].revoke_candidate();
                            continue;
                        }
                    }
                }
                eng.candidates.push((input as u32, output.index() as u32));
                eng.requests.push(Request::new(InputId::new(input), output));
            }
        }
        // An idle arbitration is unobservable unless the fabric ticks
        // its fault PRNG when idle — those nodes are pinned and always
        // arbitrated, so skipping here never desynchronises a stream.
        if eng.requests.is_empty()
            && eng.schedule == NetSchedule::ActiveSet
            && !eng.pinned.contains(local)
        {
            continue;
        }
        switches[local].arbitrate_into(&eng.requests, &mut eng.grants);
        for word in &mut eng.granted {
            *word = 0;
        }
        for grant in &eng.grants {
            eng.granted[grant.input.index() / 64] |= 1u64 << (grant.input.index() % 64);
        }
        for c in 0..eng.candidates.len() {
            let (input, output) = eng.candidates[c];
            let input = input as usize;
            let idx = local * radix + input;
            if eng.granted[input / 64] & (1u64 << (input % 64)) != 0 {
                eng.ports[idx].confirm_grant();
                eng.xfer_flits[idx] = packet_len_flits as u32;
                eng.xfer_output[idx] = output;
                eng.xfer_mask[mask_base + input / 64] |= 1u64 << (input % 64);
                eng.moving.insert(local);
                // The launched packet no longer holds this node active.
                eng.resident[local] -= 1;
                if eng.resident[local] == 0 && !eng.pinned.contains(local) {
                    eng.work.remove(local);
                }
            } else {
                eng.ports[idx].revoke_candidate();
            }
        }
    }
    eng.worklist = list;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh_sim::{MeshGeometry, MeshPortMap};
    use hirise_core::{PacketHandle, Switch2d};

    fn tiny() -> (NodeEngine, Vec<Switch2d>, MeshGeometry) {
        let geo = MeshGeometry::new(2, 1, 1, 8, MeshPortMap::Contiguous);
        let switches: Vec<Switch2d> = (0..2).map(|_| Switch2d::new(8)).collect();
        let eng = NodeEngine::new(&switches, 4, NetSchedule::ActiveSet, false);
        (eng, switches, geo)
    }

    fn packet(id: u64, src: usize, dst_endpoint: usize) -> Packet {
        Packet {
            id,
            src: InputId::new(src),
            dst: OutputId::new(dst_endpoint),
            len_flits: 2,
            birth_cycle: 0,
            measured: true,
            handle: PacketHandle::NONE,
        }
    }

    #[test]
    fn idle_engine_has_empty_active_sets() {
        let (eng, _, _) = tiny();
        assert!(eng.work.is_empty());
        assert!(eng.moving.is_empty());
        assert_eq!(eng.violation_count(), 0);
    }

    #[test]
    fn admitted_packet_activates_launches_and_delivers() {
        let (mut eng, mut switches, geo) = tiny();
        // Local traffic on node 0: endpoint port -> endpoint port.
        let input = geo.core_port(0);
        eng.admit_new(0, input, packet(1, input, 0), 0);
        assert!(eng.work.contains(0));
        let mut report = MeshReport::empty(100, geo.total_cores());
        for now in 0..8 {
            phase_transfers(
                &mut eng,
                &mut switches,
                &geo,
                0,
                &mut report,
                true,
                now,
                |_, _, _, _| unreachable!("no shard boundary here"),
            );
            phase_arbitrate(&mut eng, &mut switches, &geo, 0, 4, 2, |_, _| {
                unreachable!("no remote ports")
            });
        }
        assert_eq!(report.completed_measured, 1);
        assert_eq!(report.hop_sum, 1, "same-node traffic ejects in one hop");
        // Everything quiesced: sets empty, arena slot recycled.
        assert!(eng.work.is_empty());
        assert!(eng.moving.is_empty());
        assert_eq!(eng.violation_count(), 0);
        assert!(eng.active_node_cycles() > 0);
    }

    #[test]
    fn missing_arena_metadata_is_recorded_not_fatal() {
        let (mut eng, mut switches, geo) = tiny();
        let input = geo.core_port(0);
        // Bypass `admit_new`: the packet claims a handle the arena
        // never allocated — the condition the old engine met with
        // `.expect("metadata present for buffered packet")`.
        let mut p = packet(1, input, 0);
        p.handle = PacketHandle::new(17);
        eng.admit(0, input, p);
        let mut report = MeshReport::empty(100, geo.total_cores());
        for now in 0..8 {
            phase_transfers(
                &mut eng,
                &mut switches,
                &geo,
                0,
                &mut report,
                true,
                now,
                |_, _, _, _| unreachable!(),
            );
            phase_arbitrate(
                &mut eng,
                &mut switches,
                &geo,
                0,
                4,
                2,
                |_, _| unreachable!(),
            );
        }
        assert_eq!(eng.violation_count(), 1, "violation recorded");
        assert!(eng.violations()[0].message.contains("no arena metadata"));
        assert_eq!(
            report.completed_measured, 0,
            "the corrupt packet is dropped, not counted"
        );
    }

    #[test]
    fn pinned_nodes_stay_in_the_work_set() {
        let mut switches: Vec<Switch2d> = (0..2).map(|_| Switch2d::new(8)).collect();
        switches[1]
            .inject_fault(hirise_core::Fault::flaky(
                hirise_core::FaultSite::Port { input: 0 },
                0.5,
            ))
            .expect("valid fault");
        let eng = NodeEngine::new(&switches, 4, NetSchedule::ActiveSet, false);
        assert!(!eng.work.contains(0), "fault-free node starts idle");
        assert!(eng.work.contains(1), "flaky node is pinned active");
        assert!(eng.pinned.contains(1));
    }
}
