//! OpenFlow actions and their application to packets.

use livesec_net::{Body, MacAddr, Packet, Transport, VlanTag};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

/// Where an [`Action::Output`] sends the packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OutPort {
    /// A physical port number.
    Physical(u32),
    /// Back out of the port the packet arrived on.
    InPort,
    /// All ports except the ingress port.
    Flood,
    /// Encapsulate to the controller as a packet-in.
    Controller,
}

impl fmt::Display for OutPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutPort::Physical(p) => write!(f, "{p}"),
            OutPort::InPort => write!(f, "in_port"),
            OutPort::Flood => write!(f, "flood"),
            OutPort::Controller => write!(f, "controller"),
        }
    }
}

/// An OpenFlow 1.0 action.
///
/// An empty action list means *drop*, as in OpenFlow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Action {
    /// Forward the packet.
    Output(OutPort),
    /// Rewrite the source MAC.
    SetDlSrc(MacAddr),
    /// Rewrite the destination MAC — LiveSec's steering primitive.
    SetDlDst(MacAddr),
    /// Rewrite the source IPv4 address.
    SetNwSrc(Ipv4Addr),
    /// Rewrite the destination IPv4 address.
    SetNwDst(Ipv4Addr),
    /// Rewrite the source transport port.
    SetTpSrc(u16),
    /// Rewrite the destination transport port.
    SetTpDst(u16),
    /// Set (or replace) the VLAN tag's VID.
    SetVlan(u16),
    /// Remove the VLAN tag.
    StripVlan,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::SetDlSrc(m) => write!(f, "set_dl_src:{m}"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst:{m}"),
            Action::SetNwSrc(a) => write!(f, "set_nw_src:{a}"),
            Action::SetNwDst(a) => write!(f, "set_nw_dst:{a}"),
            Action::SetTpSrc(p) => write!(f, "set_tp_src:{p}"),
            Action::SetTpDst(p) => write!(f, "set_tp_dst:{p}"),
            Action::SetVlan(v) => write!(f, "set_vlan:{v}"),
            Action::StripVlan => write!(f, "strip_vlan"),
        }
    }
}

/// The result of applying an action list to a packet.
///
/// OpenFlow applies actions in sequence: rewrites affect subsequent
/// outputs, so each emitted copy carries the rewrites seen so far.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ActionOutcome {
    /// `(destination, packet-as-modified-at-that-point)` pairs, in
    /// action-list order.
    pub outputs: Vec<(OutPort, Packet)>,
}

impl ActionOutcome {
    /// Returns `true` if the action list emitted nothing (drop).
    pub fn is_drop(&self) -> bool {
        self.outputs.is_empty()
    }
}

fn set_tp_src(t: &mut Transport, port: u16) {
    match t {
        Transport::Tcp(seg) => seg.src_port = port,
        Transport::Udp(d) => d.src_port = port,
        _ => {}
    }
}

fn set_tp_dst(t: &mut Transport, port: u16) {
    match t {
        Transport::Tcp(seg) => seg.dst_port = port,
        Transport::Udp(d) => d.dst_port = port,
        _ => {}
    }
}

/// Applies `actions` to `pkt` with OpenFlow-1.0 sequencing, handing
/// each `Output` to `emit` as the list reaches it.
///
/// The packet is consumed: rewrites mutate it in place, every `Output`
/// but the last lends it as rewritten so far (`Cow::Borrowed` — the
/// receiver copies only if it keeps the packet), and the last `Output`
/// receives the packet itself (`Cow::Owned`). Nothing is allocated, and
/// the one-`Output` lists LiveSec installs copy nothing.
pub fn apply_actions_owned(
    mut pkt: Packet,
    actions: &[Action],
    mut emit: impl FnMut(OutPort, Cow<'_, Packet>),
) {
    // Rewrites after the last Output (or with none at all) reach nobody.
    let Some(last) = actions.iter().rposition(|a| matches!(a, Action::Output(_))) else {
        return;
    };
    for action in &actions[..last] {
        match *action {
            Action::Output(dest) => emit(dest, Cow::Borrowed(&pkt)),
            Action::SetDlSrc(mac) => pkt.eth.src = mac,
            Action::SetDlDst(mac) => pkt.eth.dst = mac,
            Action::SetNwSrc(ip) => {
                if let Body::Ipv4(p) = &mut pkt.body {
                    p.header.src = ip;
                }
            }
            Action::SetNwDst(ip) => {
                if let Body::Ipv4(p) = &mut pkt.body {
                    p.header.dst = ip;
                }
            }
            Action::SetTpSrc(port) => {
                if let Body::Ipv4(p) = &mut pkt.body {
                    set_tp_src(&mut p.transport, port);
                }
            }
            Action::SetTpDst(port) => {
                if let Body::Ipv4(p) = &mut pkt.body {
                    set_tp_dst(&mut p.transport, port);
                }
            }
            Action::SetVlan(vid) => {
                let pcp = pkt.eth.vlan.map(|t| t.pcp).unwrap_or(0);
                pkt.eth.vlan = Some(VlanTag { vid, pcp });
            }
            Action::StripVlan => pkt.eth.vlan = None,
        }
    }
    if let Action::Output(dest) = actions[last] {
        emit(dest, Cow::Owned(pkt));
    }
}

/// [`apply_actions_owned`] for a caller that keeps its packet: every
/// output is a copy, collected in action-list order.
pub fn apply_actions(pkt: &Packet, actions: &[Action]) -> ActionOutcome {
    let mut outcome = ActionOutcome::default();
    apply_actions_owned(pkt.clone(), actions, |dest, out| {
        outcome.outputs.push((dest, out.into_owned()))
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::PacketBuilder;

    fn pkt() -> Packet {
        PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(555, 80)
            .build()
    }

    #[test]
    fn empty_action_list_drops() {
        let out = apply_actions(&pkt(), &[]);
        assert!(out.is_drop());
    }

    #[test]
    fn rewrite_then_output() {
        let se = MacAddr::from_u64(0xfe);
        let out = apply_actions(
            &pkt(),
            &[Action::SetDlDst(se), Action::Output(OutPort::Physical(4))],
        );
        assert_eq!(out.outputs.len(), 1);
        let (dest, modified) = &out.outputs[0];
        assert_eq!(*dest, OutPort::Physical(4));
        assert_eq!(modified.eth.dst, se);
        assert_eq!(modified.eth.src, MacAddr::from_u64(1), "src untouched");
    }

    #[test]
    fn sequencing_affects_later_outputs_only() {
        // Output original, then rewrite, then output modified (OF semantics).
        let out = apply_actions(
            &pkt(),
            &[
                Action::Output(OutPort::Physical(1)),
                Action::SetDlDst(MacAddr::from_u64(9)),
                Action::Output(OutPort::Physical(2)),
            ],
        );
        assert_eq!(out.outputs.len(), 2);
        assert_eq!(out.outputs[0].1.eth.dst, MacAddr::from_u64(2));
        assert_eq!(out.outputs[1].1.eth.dst, MacAddr::from_u64(9));
    }

    /// What the owning form hands its callback: destination, packet,
    /// and whether the packet was lent (`false` = given by move).
    fn owned_outputs(pkt: Packet, actions: &[Action]) -> Vec<(OutPort, Packet, bool)> {
        let mut out = Vec::new();
        apply_actions_owned(pkt, actions, |dest, p| {
            let lent = matches!(p, Cow::Borrowed(_));
            out.push((dest, p.into_owned(), lent));
        });
        out
    }

    #[test]
    fn owning_form_lends_every_output_but_the_last() {
        let nine = MacAddr::from_u64(9);
        let actions = [
            Action::Output(OutPort::Physical(1)),
            Action::SetDlDst(nine),
            Action::Output(OutPort::Physical(2)),
            Action::SetTpDst(8080),
            Action::Output(OutPort::Flood),
            Action::SetTpSrc(1), // after the last Output: reaches nobody
        ];
        // The packets a scratch-copy interpreter emits: each Output sees
        // the rewrites before it and none after.
        let first = pkt();
        let mut second = pkt();
        second.eth.dst = nine;
        let mut third = second.clone();
        if let Body::Ipv4(ip) = &mut third.body {
            set_tp_dst(&mut ip.transport, 8080);
        }
        assert_eq!(third.tcp().unwrap().dst_port, 8080);
        let expected = vec![
            (OutPort::Physical(1), first, true),
            (OutPort::Physical(2), second, true),
            (OutPort::Flood, third, false),
        ];
        assert_eq!(owned_outputs(pkt(), &actions), expected);
        // The borrowing form is the same walk with every output copied.
        let borrowed: Vec<(OutPort, Packet)> =
            expected.into_iter().map(|(d, p, _)| (d, p)).collect();
        assert_eq!(apply_actions(&pkt(), &actions).outputs, borrowed);
    }

    #[test]
    fn owning_form_without_an_output_drops() {
        let rewrites = [Action::SetDlDst(MacAddr::from_u64(9)), Action::StripVlan];
        assert_eq!(owned_outputs(pkt(), &rewrites), vec![]);
        assert_eq!(owned_outputs(pkt(), &[]), vec![]);
        assert!(apply_actions(&pkt(), &rewrites).is_drop());
    }

    #[test]
    fn nw_and_tp_rewrites() {
        let out = apply_actions(
            &pkt(),
            &[
                Action::SetNwSrc("192.168.0.1".parse().unwrap()),
                Action::SetNwDst("192.168.0.2".parse().unwrap()),
                Action::SetTpSrc(1111),
                Action::SetTpDst(2222),
                Action::Output(OutPort::Physical(1)),
            ],
        );
        let p = &out.outputs[0].1;
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.header.src, "192.168.0.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(ip.header.dst, "192.168.0.2".parse::<Ipv4Addr>().unwrap());
        let tcp = p.tcp().unwrap();
        assert_eq!((tcp.src_port, tcp.dst_port), (1111, 2222));
    }

    #[test]
    fn vlan_set_and_strip() {
        let out = apply_actions(
            &pkt(),
            &[Action::SetVlan(42), Action::Output(OutPort::Physical(1))],
        );
        assert_eq!(out.outputs[0].1.eth.vlan.unwrap().vid, 42);

        let tagged = out.outputs[0].1.clone();
        let out2 = apply_actions(
            &tagged,
            &[Action::StripVlan, Action::Output(OutPort::Physical(1))],
        );
        assert_eq!(out2.outputs[0].1.eth.vlan, None);
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            Action::Output(OutPort::Controller).to_string(),
            "output:controller"
        );
        assert_eq!(Action::SetVlan(9).to_string(), "set_vlan:9");
        assert_eq!(Action::Output(OutPort::Flood).to_string(), "output:flood");
    }
}
