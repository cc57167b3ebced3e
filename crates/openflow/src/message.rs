//! The controller ↔ switch message set.

use crate::action::ActionList;
use crate::flow_match::Match;
use crate::table::Nanos;
use livesec_net::FlowKey;

/// The deterministic per-hop forwarding tag: a keyless MAC-shaped mix
/// of `(dpid, in_port, out_port, cookie)`.
///
/// The switch computes it when it attests a forwarded packet; the
/// controller recomputes it from the same four fields when replaying
/// the attestation against the path proof. A mismatch means the
/// attestation body was forged in flight (the fields no longer hash to
/// the tag) and is classified as tampering. The mix is a splitmix64
/// chain — not cryptographic, but the simulator threat model only
/// needs second-preimage resistance against the *deterministic* fault
/// injector, and a stable 64-bit tag keeps histories byte-identical
/// across runs.
pub fn attestation_tag(dpid: u64, in_port: u32, out_port: u32, cookie: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut acc = mix(dpid);
    acc = mix(acc ^ u64::from(in_port));
    acc = mix(acc ^ u64::from(out_port).rotate_left(32));
    mix(acc ^ cookie)
}

/// The per-packet stitching tag: a hash of the *rewrite-invariant*
/// header fields plus the wire length.
///
/// LiveSec's steering rewrites the destination MAC (and the VLAN may
/// change at the fabric edge), so the tag deliberately covers only the
/// IP 5-tuple and the frame length — every hop of the same packet
/// computes the same tag, letting the detector stitch per-hop
/// attestations into one end-to-end chain. Same-flow packets of equal
/// length collide; that is harmless for stitching, because colliding
/// packets follow the same path proof. It does make sampling by tag
/// (`AsSwitch::set_attest_every`) pick (flow, frame length) classes,
/// not packets: nothing per packet enters the tag.
pub fn packet_tag(flow: &FlowKey, wire_len: u64) -> u64 {
    let ip_pair = (u64::from(u32::from(flow.nw_src)) << 32) | u64::from(u32::from(flow.nw_dst));
    let ports = (u64::from(flow.tp_src) << 32) | (u64::from(flow.tp_dst) << 16);
    attestation_tag(
        ip_pair,
        u32::from(flow.nw_proto),
        0,
        ports ^ wire_len.rotate_left(48),
    )
}

/// One switch's sworn statement about one forwarded packet: "this
/// flow entered me on `in_port`, matched the entry with `cookie`, and
/// left on `out_port`".
///
/// Sampled into the controller at a configurable rate and replayed by
/// the accountability detector against the controller-issued path
/// proof for the flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForwardingAttestation {
    /// The attesting switch's datapath id.
    pub dpid: u64,
    /// The port the packet entered on.
    pub in_port: u32,
    /// The port the packet left on.
    pub out_port: u32,
    /// The cookie of the flow entry that matched (0 for mid-path and
    /// table-miss forwarding).
    pub cookie: u64,
    /// The flow header as seen at this hop.
    pub flow: FlowKey,
    /// A per-packet tag (hash of the rewrite-invariant header fields
    /// plus length) letting the detector stitch the same packet's
    /// attestations across hops into one chain.
    pub pkt_tag: u64,
    /// [`attestation_tag`] over `(dpid, in_port, out_port, cookie)`.
    pub tag: u64,
}

/// Why a packet-in was sent to the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketInReason {
    /// No flow entry matched.
    NoMatch,
    /// An explicit `Output:Controller` action fired.
    Action,
}

/// The flow-mod command field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowModCommand {
    /// Insert (replacing an identical match+priority entry).
    Add,
    /// Replace the actions of all subsumed entries.
    Modify,
    /// Replace the actions of the exactly-matching entry.
    ModifyStrict,
    /// Delete all subsumed entries.
    Delete,
    /// Delete the exactly-matching entry.
    DeleteStrict,
}

/// Why an entry was evicted (flow-removed message).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowRemovedReason {
    /// Idle timeout.
    IdleTimeout,
    /// Hard timeout.
    HardTimeout,
    /// Explicit delete.
    Delete,
}

/// Why a port-status message was sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortStatusReason {
    /// Port came up.
    Add,
    /// Port went away.
    Delete,
    /// Port attributes changed.
    Modify,
}

/// What a stats-request asks for.
#[derive(Clone, PartialEq, Debug)]
pub enum StatsRequestKind {
    /// Per-flow stats for entries subsumed by the match.
    Flow(Match),
    /// Per-port stats (`None` = all ports).
    Port(Option<u32>),
    /// Switch description.
    Description,
}

/// Per-flow statistics.
#[derive(Clone, PartialEq, Debug)]
pub struct FlowStats {
    /// The entry's match.
    pub matcher: Match,
    /// The entry's priority.
    pub priority: u16,
    /// The entry's cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Time installed, in nanoseconds.
    pub duration: Nanos,
}

/// Per-port statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PortStats {
    /// Port number.
    pub port_no: u32,
    /// Frames received.
    pub rx_packets: u64,
    /// Frames transmitted.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames dropped.
    pub drops: u64,
}

/// The body of a stats-reply.
#[derive(Clone, PartialEq, Debug)]
pub enum StatsBody {
    /// Per-flow stats.
    Flow(Vec<FlowStats>),
    /// Per-port stats.
    Port(Vec<PortStats>),
    /// Switch description strings.
    Description {
        /// Manufacturer.
        manufacturer: String,
        /// Hardware description.
        hardware: String,
        /// Software description.
        software: String,
    },
}

/// An OpenFlow control-channel message.
///
/// The message set mirrors OpenFlow 1.0's symmetric / controller→switch
/// / switch→controller split; see the crate docs for the deviations.
#[derive(Clone, PartialEq, Debug)]
pub enum OfMessage {
    /// Version negotiation greeting (symmetric).
    Hello,
    /// Keepalive probe (symmetric).
    EchoRequest(u64),
    /// Keepalive response (symmetric).
    EchoReply(u64),
    /// Ask the switch for its identity.
    FeaturesRequest,
    /// The switch's identity.
    FeaturesReply {
        /// Datapath id (unique per switch).
        datapath_id: u64,
        /// Number of physical ports.
        n_ports: u32,
    },
    /// A packet the switch couldn't (or was told not to) handle.
    PacketIn {
        /// Ingress port.
        in_port: u32,
        /// Why it was sent.
        reason: PacketInReason,
        /// The frame bytes (full frame; the simulated switches don't
        /// buffer).
        data: Vec<u8>,
    },
    /// Controller-originated packet transmission.
    PacketOut {
        /// Nominal ingress port (for `Output:InPort`/`Flood` semantics).
        in_port: Option<u32>,
        /// Actions to apply (typically a single output).
        actions: ActionList,
        /// The frame bytes.
        data: Vec<u8>,
    },
    /// Flow-table modification.
    FlowMod {
        /// What to do.
        command: FlowModCommand,
        /// The match.
        matcher: Match,
        /// Priority (for adds and strict ops).
        priority: u16,
        /// Actions (for add/modify).
        actions: ActionList,
        /// Idle timeout in nanoseconds.
        idle_timeout: Option<Nanos>,
        /// Hard timeout in nanoseconds.
        hard_timeout: Option<Nanos>,
        /// Controller cookie.
        cookie: u64,
        /// Request a flow-removed message on eviction.
        notify_removed: bool,
    },
    /// Notification that an entry left the table.
    FlowRemoved {
        /// The evicted entry's match.
        matcher: Match,
        /// Its cookie.
        cookie: u64,
        /// Its priority.
        priority: u16,
        /// Why it was evicted.
        reason: FlowRemovedReason,
        /// Final packet count.
        packet_count: u64,
        /// Final byte count.
        byte_count: u64,
    },
    /// A port appeared, vanished, or changed.
    PortStatus {
        /// What happened.
        reason: PortStatusReason,
        /// Which port.
        port_no: u32,
    },
    /// Statistics request.
    StatsRequest(StatsRequestKind),
    /// Statistics reply.
    StatsReply(StatsBody),
    /// Fence: reply is sent after all earlier messages are processed.
    BarrierRequest,
    /// Barrier acknowledgement.
    BarrierReply,
    /// A sampled forwarding attestation (switch → controller).
    Attestation(ForwardingAttestation),
}

impl OfMessage {
    /// Convenience constructor for an add flow-mod with no timeouts.
    pub fn add_flow(matcher: Match, actions: impl Into<ActionList>, priority: u16) -> Self {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher,
            priority,
            actions: actions.into(),
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
            notify_removed: false,
        }
    }

    /// Convenience constructor for a non-strict delete flow-mod.
    pub fn delete_flows(matcher: Match) -> Self {
        OfMessage::FlowMod {
            command: FlowModCommand::Delete,
            matcher,
            priority: 0,
            actions: ActionList::new(),
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
            notify_removed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attestation_tag_is_stable_and_field_sensitive() {
        let base = attestation_tag(5, 2, 3, 77);
        // Deterministic: same inputs, same tag, every run.
        assert_eq!(base, attestation_tag(5, 2, 3, 77));
        // Every field perturbs the tag.
        assert_ne!(base, attestation_tag(6, 2, 3, 77));
        assert_ne!(base, attestation_tag(5, 1, 3, 77));
        assert_ne!(base, attestation_tag(5, 2, 4, 77));
        assert_ne!(base, attestation_tag(5, 2, 3, 78));
        // Port order matters: (in=2, out=3) differs from (in=3, out=2).
        assert_ne!(attestation_tag(5, 2, 3, 0), attestation_tag(5, 3, 2, 0));
    }

    #[test]
    fn add_flow_defaults() {
        let m = OfMessage::add_flow(Match::any(), vec![], 7);
        match m {
            OfMessage::FlowMod {
                command,
                priority,
                idle_timeout,
                hard_timeout,
                notify_removed,
                ..
            } => {
                assert_eq!(command, FlowModCommand::Add);
                assert_eq!(priority, 7);
                assert_eq!(idle_timeout, None);
                assert_eq!(hard_timeout, None);
                assert!(!notify_removed);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn delete_flows_is_nonstrict() {
        match OfMessage::delete_flows(Match::any()) {
            OfMessage::FlowMod { command, .. } => assert_eq!(command, FlowModCommand::Delete),
            _ => panic!("wrong variant"),
        }
    }
}
