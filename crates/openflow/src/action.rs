//! OpenFlow actions and their application to packets.

use livesec_net::{Body, EtherType, FlowKey, MacAddr, Packet, Transport, VlanTag};
use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

/// Where an [`Action::Output`] sends the packet.
// A leading one-byte tag leaves the bytes after it for the other
// actions' fields, so an `Action` is 8 bytes, not 12.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

/// How many actions an [`ActionList`] holds without allocating: the
/// longest list `compile_path` emits, `SetDlSrc`, `SetDlDst`, `Output`.
pub const INLINE_ACTIONS: usize = 3;

/// An entry's action list: up to [`INLINE_ACTIONS`] actions inside the
/// list itself, a longer one in one boxed slice.
///
/// It reads as the `[Action]` it holds (`Deref`, [`as_slice`]), and two
/// lists are equal when their actions are, however each is stored. A
/// flow set-up's entries thus carry their actions without a heap
/// allocation each, from `compile_path` through the wire to the switch's
/// table.
///
/// [`as_slice`]: ActionList::as_slice
#[derive(Clone)]
pub struct ActionList(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` of `slots`; the rest hold [`PAD`].
    Inline {
        len: u8,
        slots: [Action; INLINE_ACTIONS],
    },
    /// A list too long to fit inline, or one handed over boxed.
    Spilled(Box<[Action]>),
}

/// What an inline list's unused slots hold; never read.
const PAD: Action = Action::StripVlan;

impl ActionList {
    /// The empty list (*drop*).
    pub const fn new() -> Self {
        ActionList(Repr::Inline {
            len: 0,
            slots: [PAD; INLINE_ACTIONS],
        })
    }

    /// The actions, in order.
    pub fn as_slice(&self) -> &[Action] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spilled(actions) => actions,
        }
    }

    /// Whether the actions live in a heap allocation of their own.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Appends `action`. A push past the inline capacity moves the list
    /// to a new boxed slice, so it allocates every time: building a long
    /// list, collect it or convert a `Vec` instead.
    pub fn push(&mut self, action: Action) {
        match &mut self.0 {
            Repr::Inline { len, slots } if usize::from(*len) < INLINE_ACTIONS => {
                slots[usize::from(*len)] = action;
                *len += 1;
            }
            _ => {
                let mut spilled = Vec::with_capacity(self.len() + 1);
                spilled.extend_from_slice(self);
                spilled.push(action);
                self.0 = Repr::Spilled(spilled.into_boxed_slice());
            }
        }
    }

    /// The list of the `n` actions `next` returns in turn, or its first
    /// error. Allocates once if `n` exceeds [`INLINE_ACTIONS`], else
    /// never.
    pub(crate) fn try_from_fn<E>(
        n: usize,
        mut next: impl FnMut() -> Result<Action, E>,
    ) -> Result<Self, E> {
        if n > INLINE_ACTIONS {
            let mut spilled = Vec::with_capacity(n);
            for _ in 0..n {
                spilled.push(next()?);
            }
            return Ok(ActionList(Repr::Spilled(spilled.into_boxed_slice())));
        }
        let mut list = ActionList::new();
        for _ in 0..n {
            list.push(next()?);
        }
        Ok(list)
    }
}

impl Default for ActionList {
    fn default() -> Self {
        ActionList::new()
    }
}

impl std::ops::Deref for ActionList {
    type Target = [Action];
    fn deref(&self) -> &[Action] {
        self.as_slice()
    }
}

impl fmt::Debug for ActionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &ActionList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ActionList {}

impl PartialEq<Vec<Action>> for ActionList {
    fn eq(&self, other: &Vec<Action>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[Action]> for ActionList {
    /// Copies the actions; allocates once if they do not fit inline.
    fn from(actions: &[Action]) -> Self {
        if actions.len() > INLINE_ACTIONS {
            return ActionList(Repr::Spilled(actions.into()));
        }
        let mut list = ActionList::new();
        for &action in actions {
            list.push(action);
        }
        list
    }
}

impl From<Vec<Action>> for ActionList {
    /// A short list moves inline; a long one keeps the `Vec`'s
    /// allocation (shrunk to fit).
    fn from(actions: Vec<Action>) -> Self {
        if actions.len() <= INLINE_ACTIONS {
            ActionList::from(actions.as_slice())
        } else {
            ActionList(Repr::Spilled(actions.into_boxed_slice()))
        }
    }
}

impl From<Box<[Action]>> for ActionList {
    /// Keeps the allocation, whatever the list's length.
    fn from(actions: Box<[Action]>) -> Self {
        ActionList(Repr::Spilled(actions))
    }
}

impl FromIterator<Action> for ActionList {
    /// Inline while the actions fit, else one boxed slice.
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut list = ActionList::new();
        iter.by_ref()
            .take(INLINE_ACTIONS)
            .for_each(|action| list.push(action));
        let Some(more) = iter.next() else {
            return list;
        };
        let mut spilled = list.to_vec();
        spilled.push(more);
        spilled.extend(iter);
        ActionList::from(spilled)
    }
}

impl<'a> IntoIterator for &'a ActionList {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
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

/// Headers an action list rewrites: a frame, or the [`FlowKey`] the
/// switch looks that frame up under. One [`walk`] sequences both.
trait Rewrite: Clone {
    fn rewrite(&mut self, action: Action);
}

impl Rewrite for Packet {
    fn rewrite(&mut self, action: Action) {
        match action {
            Action::SetDlSrc(mac) => self.eth.src = mac,
            Action::SetDlDst(mac) => self.eth.dst = mac,
            Action::SetVlan(vid) => {
                let pcp = self.eth.vlan.map(|t| t.pcp).unwrap_or(0);
                self.eth.vlan = Some(VlanTag { vid, pcp });
            }
            Action::StripVlan => self.eth.vlan = None,
            Action::Output(_) => {}
            // The rest rewrite an IPv4 body only, and ports only in TCP
            // or UDP.
            nw_or_tp => {
                let Body::Ipv4(p) = &mut self.body else {
                    return;
                };
                let ports = match &mut p.transport {
                    Transport::Tcp(seg) => Some((&mut seg.src_port, &mut seg.dst_port)),
                    Transport::Udp(d) => Some((&mut d.src_port, &mut d.dst_port)),
                    _ => None,
                };
                match (nw_or_tp, ports) {
                    (Action::SetNwSrc(ip), _) => p.header.src = ip,
                    (Action::SetNwDst(ip), _) => p.header.dst = ip,
                    (Action::SetTpSrc(port), Some((src, _))) => *src = port,
                    (Action::SetTpDst(port), Some((_, dst))) => *dst = port,
                    _ => {}
                }
            }
        }
    }
}

/// A rewrite as the frame's lookup key sees it: with the frame's
/// guards, so `nw_*` change on an IPv4 key only and `tp_*` on a TCP or
/// UDP one only.
impl Rewrite for FlowKey {
    fn rewrite(&mut self, action: Action) {
        let ipv4 = self.dl_type == EtherType::Ipv4.as_u16();
        let ports = ipv4 && matches!(self.nw_proto, 6 | 17); // TCP, UDP
        match action {
            Action::SetDlSrc(mac) => self.dl_src = mac,
            Action::SetDlDst(mac) => self.dl_dst = mac,
            Action::SetNwSrc(ip) if ipv4 => self.nw_src = ip,
            Action::SetNwDst(ip) if ipv4 => self.nw_dst = ip,
            Action::SetTpSrc(port) if ports => self.tp_src = port,
            Action::SetTpDst(port) if ports => self.tp_dst = port,
            Action::SetVlan(vid) => self.vlan = Some(vid),
            Action::StripVlan => self.vlan = None,
            _ => {}
        }
    }
}

/// The one action walk; [`apply_actions_owned`] states its sequencing.
fn walk<H: Rewrite>(mut headers: H, actions: &[Action], mut emit: impl FnMut(OutPort, Cow<'_, H>)) {
    // Rewrites after the last Output (or with none at all) reach nobody.
    let Some(last) = actions.iter().rposition(|a| matches!(a, Action::Output(_))) else {
        return;
    };
    for action in &actions[..last] {
        match *action {
            Action::Output(dest) => emit(dest, Cow::Borrowed(&headers)),
            rewrite => headers.rewrite(rewrite),
        }
    }
    if let Action::Output(dest) = actions[last] {
        emit(dest, Cow::Owned(headers));
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
    pkt: Packet,
    actions: &[Action],
    emit: impl FnMut(OutPort, Cow<'_, Packet>),
) {
    walk(pkt, actions, emit);
}

/// [`apply_actions_owned`] on a lookup key: at each `Output`, `emit`
/// receives the [`lookup_key`](crate::lookup_key) of the frame emitted.
pub fn apply_actions_to_key(
    key: FlowKey,
    actions: &[Action],
    mut emit: impl FnMut(OutPort, FlowKey),
) {
    walk(key, actions, |dest, key| emit(dest, *key));
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
        assert!(out.outputs.is_empty());
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
            if let Transport::Tcp(seg) = &mut ip.transport {
                seg.dst_port = 8080;
            }
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
        assert!(apply_actions(&pkt(), &rewrites).outputs.is_empty());
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
    fn an_entry_list_of_three_actions_fits_in_32_bytes() {
        assert_eq!(std::mem::size_of::<Action>(), 8);
        assert_eq!(std::mem::size_of::<ActionList>(), 32);
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
