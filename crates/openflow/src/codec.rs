//! Binary wire codec for [`OfMessage`].
//!
//! Every message is framed by an OpenFlow-style 10-byte header:
//! version (1), type (1), total length (4), transaction id (4). Bodies
//! are big-endian; variable-length fields carry 4-byte length prefixes.
//!
//! One writer produces every frame. [`encode_into`] appends a frame to
//! a caller's buffer (a recycled control payload, the controller's
//! per-switch batches), reserving the frame's exact size first, so a
//! buffer too small for it grows once; [`encode`] is the same into a
//! new buffer, so it allocates once at the frame's exact size. The two
//! set-up messages also encode from borrowed parts — [`FlowModRef`],
//! [`encode_packet_out_into`] and, for a delivered frame released as it
//! stands, [`encode_frame_out_into`] — to the same bytes as their owned
//! [`OfMessage`], [`encode_packet_in_into`] serializes the switch's
//! packet straight into its frame, and [`encode_flow_stats_into`]
//! writes a flow-stats reply straight from the switch's table.
//!
//! One reader, [`read_frame`], takes every frame apart, generic over
//! where a frame's actions go: an [`ActionList`] ([`decode`]), the
//! switch's reused action buffer, or nowhere ([`Check`]), when a batch
//! is only being checked or the frame carries none. It returns a
//! [`Frame`], which borrows the packet a packet-in or a packet-out
//! carries, and a flow-stats reply's entries, from the frame instead
//! of copying them.

#![warn(clippy::indexing_slicing)]

use crate::action::{Action, ActionList, OutPort};
use crate::flow_match::{Match, VlanMatch};
use crate::message::{
    FlowModCommand, FlowRemovedReason, FlowStats, ForwardingAttestation, OfMessage, PacketInReason,
    PortStats, PortStatusReason, StatsBody, StatsRequestKind,
};
use livesec_net::{wire, Cursor, FlowKey, Ipv4Net, MacAddr, Packet, Truncated};
use std::fmt;
use std::net::Ipv4Addr;

/// Protocol version emitted by this codec.
pub const VERSION: u8 = 1;

/// Error returned when a buffer cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer shorter than its header or declared length.
    Truncated,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown message type.
    BadType(u8),
    /// A field held an invalid value.
    BadField(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of message"),
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            CodecError::BadType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadField(name) => write!(f, "invalid value in field {name}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Truncated> for CodecError {
    fn from(_: Truncated) -> Self {
        CodecError::Truncated
    }
}

// Message type codes (OpenFlow 1.0 numbering where one exists).
pub(crate) const T_HELLO: u8 = 0;
pub(crate) const T_ECHO_REQ: u8 = 2;
pub(crate) const T_ECHO_REP: u8 = 3;
pub(crate) const T_FEATURES_REQ: u8 = 5;
const T_FEATURES_REP: u8 = 6;
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PORT_STATUS: u8 = 12;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;
const T_STATS_REQ: u8 = 16;
const T_STATS_REP: u8 = 17;
pub(crate) const T_BARRIER_REQ: u8 = 18;
const T_BARRIER_REP: u8 = 19;
// Vendor extension (no OpenFlow 1.0 counterpart).
const T_ATTESTATION: u8 = 30;

// Pseudo-port numbers for OutPort (OpenFlow 1.0 values).
const P_IN_PORT: u32 = 0xfff8;
const P_FLOOD: u32 = 0xfffb;
const P_CONTROLLER: u32 = 0xfffd;

/// Length of the frame header: version, type, total length, xid.
const HEADER_LEN: usize = 10;

/// Where the one writer puts a frame's bytes: a buffer it appends to,
/// or a count of the bytes it would append ([`Len`]), so [`encode`]
/// can size its buffer exactly before it writes.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.put(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn mac(&mut self, v: MacAddr) {
        self.put(&v.octets());
    }
    fn ip(&mut self, v: Ipv4Addr) {
        self.put(&v.octets());
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only counts.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn get_bool(r: &mut Cursor<'_>) -> Result<bool, CodecError> {
    Ok(r.u8()? != 0)
}

fn get_opt_u64(r: &mut Cursor<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if r.u8()? == 0 { None } else { Some(r.u64()?) })
}

fn get_opt_u32(r: &mut Cursor<'_>) -> Result<Option<u32>, CodecError> {
    Ok(if r.u8()? == 0 { None } else { Some(r.u32()?) })
}

fn get_bytes<'a>(r: &mut Cursor<'a>) -> Result<&'a [u8], CodecError> {
    let n = r.u32()? as usize;
    Ok(r.take(n)?)
}

fn get_string(r: &mut Cursor<'_>) -> Result<String, CodecError> {
    String::from_utf8(get_bytes(r)?.to_vec()).map_err(|_| CodecError::BadField("string"))
}

fn put_match(w: &mut impl Sink, m: &Match) {
    let mut bits: u16 = 0;
    let fields = [
        m.in_port.is_some(),
        m.dl_src.is_some(),
        m.dl_dst.is_some(),
        m.dl_vlan.is_some(),
        m.dl_type.is_some(),
        m.nw_src.is_some(),
        m.nw_dst.is_some(),
        m.nw_proto.is_some(),
        m.tp_src.is_some(),
        m.tp_dst.is_some(),
    ];
    for (i, present) in fields.iter().enumerate() {
        if *present {
            bits |= 1 << i;
        }
    }
    w.u16(bits);
    if let Some(p) = m.in_port {
        w.u32(p);
    }
    if let Some(mac) = m.dl_src {
        w.mac(mac);
    }
    if let Some(mac) = m.dl_dst {
        w.mac(mac);
    }
    if let Some(v) = m.dl_vlan {
        // 0xffff encodes "untagged", as OFP_VLAN_NONE does.
        w.u16(match v {
            VlanMatch::Untagged => 0xffff,
            VlanMatch::Tagged(vid) => vid,
        });
    }
    if let Some(t) = m.dl_type {
        w.u16(t);
    }
    if let Some(n) = m.nw_src {
        w.ip(n.addr());
        w.u8(n.prefix_len());
    }
    if let Some(n) = m.nw_dst {
        w.ip(n.addr());
        w.u8(n.prefix_len());
    }
    if let Some(p) = m.nw_proto {
        w.u8(p);
    }
    if let Some(p) = m.tp_src {
        w.u16(p);
    }
    if let Some(p) = m.tp_dst {
        w.u16(p);
    }
}

fn get_match(r: &mut Cursor<'_>) -> Result<Match, CodecError> {
    let bits = r.u16()?;
    let has = |i: u16| bits & (1 << i) != 0;
    let mut m = Match::any();
    if has(0) {
        m.in_port = Some(r.u32()?);
    }
    if has(1) {
        m.dl_src = Some(r.mac()?);
    }
    if has(2) {
        m.dl_dst = Some(r.mac()?);
    }
    if has(3) {
        let v = r.u16()?;
        m.dl_vlan = Some(if v == 0xffff {
            VlanMatch::Untagged
        } else {
            VlanMatch::Tagged(v)
        });
    }
    if has(4) {
        m.dl_type = Some(r.u16()?);
    }
    if has(5) {
        let ip = r.ipv4()?;
        let len = r.u8()?;
        if len > 32 {
            return Err(CodecError::BadField("nw_src prefix"));
        }
        m.nw_src = Some(Ipv4Net::new(ip, len));
    }
    if has(6) {
        let ip = r.ipv4()?;
        let len = r.u8()?;
        if len > 32 {
            return Err(CodecError::BadField("nw_dst prefix"));
        }
        m.nw_dst = Some(Ipv4Net::new(ip, len));
    }
    if has(7) {
        m.nw_proto = Some(r.u8()?);
    }
    if has(8) {
        m.tp_src = Some(r.u16()?);
    }
    if has(9) {
        m.tp_dst = Some(r.u16()?);
    }
    // A peer may encode a /0 prefix where it means "wildcard"; the
    // decoded match must compare equal to the wildcarded spelling.
    Ok(m.normalized())
}

fn put_flow_key(w: &mut impl Sink, k: &FlowKey) {
    w.opt_u32(k.vlan.map(u32::from));
    w.mac(k.dl_src);
    w.mac(k.dl_dst);
    w.u16(k.dl_type);
    w.ip(k.nw_src);
    w.ip(k.nw_dst);
    w.u8(k.nw_proto);
    w.u16(k.tp_src);
    w.u16(k.tp_dst);
}

fn get_flow_key(r: &mut Cursor<'_>) -> Result<FlowKey, CodecError> {
    let vlan = match get_opt_u32(r)? {
        None => None,
        Some(v) => Some(u16::try_from(v).map_err(|_| CodecError::BadField("vlan"))?),
    };
    Ok(FlowKey {
        vlan,
        dl_src: r.mac()?,
        dl_dst: r.mac()?,
        dl_type: r.u16()?,
        nw_src: r.ipv4()?,
        nw_dst: r.ipv4()?,
        nw_proto: r.u8()?,
        tp_src: r.u16()?,
        tp_dst: r.u16()?,
    })
}

fn put_out_port(w: &mut impl Sink, p: OutPort) {
    w.u32(match p {
        OutPort::Physical(n) => n,
        OutPort::InPort => P_IN_PORT,
        OutPort::Flood => P_FLOOD,
        OutPort::Controller => P_CONTROLLER,
    });
}

fn get_out_port(r: &mut Cursor<'_>) -> Result<OutPort, CodecError> {
    Ok(match r.u32()? {
        P_IN_PORT => OutPort::InPort,
        P_FLOOD => OutPort::Flood,
        P_CONTROLLER => OutPort::Controller,
        n if n < 0xff00 => OutPort::Physical(n),
        _ => return Err(CodecError::BadField("out_port")),
    })
}

fn put_actions(w: &mut impl Sink, actions: &[Action]) {
    w.u32(actions.len() as u32);
    for a in actions {
        match *a {
            Action::Output(p) => {
                w.u8(0);
                put_out_port(w, p);
            }
            Action::SetDlSrc(m) => {
                w.u8(1);
                w.mac(m);
            }
            Action::SetDlDst(m) => {
                w.u8(2);
                w.mac(m);
            }
            Action::SetNwSrc(ip) => {
                w.u8(3);
                w.ip(ip);
            }
            Action::SetNwDst(ip) => {
                w.u8(4);
                w.ip(ip);
            }
            Action::SetTpSrc(p) => {
                w.u8(5);
                w.u16(p);
            }
            Action::SetTpDst(p) => {
                w.u8(6);
                w.u16(p);
            }
            Action::SetVlan(v) => {
                w.u8(7);
                w.u16(v);
            }
            Action::StripVlan => w.u8(8),
        }
    }
}

/// Where the one reader puts a frame's actions: an [`ActionList`]
/// ([`decode`]), a reused `Vec` (the switch's action buffer), or nowhere
/// ([`Check`]), when a batch is only being checked.
pub trait ActionSink {
    /// Replaces what the sink holds with a frame's `n` actions, each
    /// read by `next`; stops at `next`'s first error.
    fn fill(
        &mut self,
        n: usize,
        next: impl FnMut() -> Result<Action, CodecError>,
    ) -> Result<(), CodecError>;
}

impl ActionSink for ActionList {
    fn fill(
        &mut self,
        n: usize,
        next: impl FnMut() -> Result<Action, CodecError>,
    ) -> Result<(), CodecError> {
        *self = ActionList::try_from_fn(n, next)?;
        Ok(())
    }
}

impl ActionSink for Vec<Action> {
    fn fill(
        &mut self,
        n: usize,
        mut next: impl FnMut() -> Result<Action, CodecError>,
    ) -> Result<(), CodecError> {
        self.clear();
        self.reserve_exact(n);
        for _ in 0..n {
            self.push(next()?);
        }
        Ok(())
    }
}

/// A sink that keeps nothing: reading into it only checks.
#[derive(Debug)]
pub struct Check;

impl ActionSink for Check {
    fn fill(
        &mut self,
        n: usize,
        mut next: impl FnMut() -> Result<Action, CodecError>,
    ) -> Result<(), CodecError> {
        for _ in 0..n {
            next()?;
        }
        Ok(())
    }
}

fn get_actions(r: &mut Cursor<'_>, out: &mut impl ActionSink) -> Result<(), CodecError> {
    let n = r.u32()? as usize;
    // Every action consumes at least its 1-byte tag, so a count past
    // the remaining frame bytes is a lie — reject it before it can
    // size the allocation (a 16-byte frame could claim 4 G actions).
    if n > r.remaining() {
        return Err(CodecError::BadField("action count"));
    }
    out.fill(n, || {
        Ok(match r.u8()? {
            0 => Action::Output(get_out_port(r)?),
            1 => Action::SetDlSrc(r.mac()?),
            2 => Action::SetDlDst(r.mac()?),
            3 => Action::SetNwSrc(r.ipv4()?),
            4 => Action::SetNwDst(r.ipv4()?),
            5 => Action::SetTpSrc(r.u16()?),
            6 => Action::SetTpDst(r.u16()?),
            7 => Action::SetVlan(r.u16()?),
            8 => Action::StripVlan,
            _ => return Err(CodecError::BadField("action tag")),
        })
    })
}

/// A flow-mod whose match and actions stay with their owner: it
/// encodes to exactly the bytes of the [`OfMessage::FlowMod`] with the
/// same fields, without first copying the actions into one.
#[derive(Debug, Clone, Copy)]
pub struct FlowModRef<'a> {
    /// What the switch does with the entry.
    pub command: FlowModCommand,
    /// The entry's match.
    pub matcher: &'a Match,
    /// The entry's priority.
    pub priority: u16,
    /// The entry's actions.
    pub actions: &'a [Action],
    /// Idle timeout in nanoseconds.
    pub idle_timeout: Option<u64>,
    /// Hard timeout in nanoseconds.
    pub hard_timeout: Option<u64>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Whether the switch reports the entry's removal.
    pub notify_removed: bool,
}

impl FlowModRef<'_> {
    /// Appends this flow-mod's frame, with transaction id `xid`, to
    /// `buf`.
    pub fn encode_into(&self, xid: u32, buf: &mut Vec<u8>) {
        let start = begin_frame(buf, T_FLOW_MOD, xid);
        put_flow_mod(buf, self);
        end_frame(buf, start);
    }

    /// The owned message, for a caller that must let go of the owner
    /// before the flow-mod is sent.
    pub fn to_message(&self) -> OfMessage {
        OfMessage::FlowMod {
            command: self.command,
            matcher: *self.matcher,
            priority: self.priority,
            actions: ActionList::from(self.actions),
            idle_timeout: self.idle_timeout,
            hard_timeout: self.hard_timeout,
            cookie: self.cookie,
            notify_removed: self.notify_removed,
        }
    }
}

/// Appends the frame of `msg`, with transaction id `xid`, to `buf`.
/// The frame's length field counts from the frame's own first byte, so
/// whatever `buf` already holds is left as it was. Room for the whole
/// frame is reserved first: at most one allocation.
pub fn encode_into(msg: &OfMessage, xid: u32, buf: &mut Vec<u8>) {
    let mut len = Len(HEADER_LEN);
    put_body(&mut len, msg);
    buf.reserve(len.0);
    let start = begin_frame(buf, msg_type(msg), xid);
    put_body(buf, msg);
    end_frame(buf, start);
}

/// Encodes `msg` with transaction id `xid` into a buffer of exactly
/// the frame's size: one allocation.
pub fn encode(msg: &OfMessage, xid: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(msg, xid, &mut buf);
    buf
}

/// Appends the frame of a packet-out that releases `pkt` with
/// `actions`, serializing the packet in place: the bytes equal
/// [`encode`] of the [`OfMessage::PacketOut`] whose `data` is
/// [`wire::serialize`]`(pkt)`.
pub fn encode_packet_out_into(
    in_port: Option<u32>,
    actions: &[Action],
    pkt: &Packet,
    xid: u32,
    buf: &mut Vec<u8>,
) {
    let start = begin_frame(buf, T_PACKET_OUT, xid);
    put_packet_out_head(buf, in_port, actions);
    put_serialized(buf, pkt);
    end_frame(buf, start);
}

/// Appends the frame of a packet-out that releases the frame `data`,
/// as it stands, with `actions`: the bytes [`encode`] writes for the
/// [`OfMessage::PacketOut`] whose `data` is `data`. The controller
/// releases a packet-in's packet this way, from the delivered bytes.
pub fn encode_frame_out_into(
    in_port: Option<u32>,
    actions: &[Action],
    data: &[u8],
    xid: u32,
    buf: &mut Vec<u8>,
) {
    let start = begin_frame(buf, T_PACKET_OUT, xid);
    put_packet_out_head(buf, in_port, actions);
    buf.bytes(data);
    end_frame(buf, start);
}

/// Appends the frame of the packet-in that carries `pkt` to the
/// controller, serializing the packet in place: the bytes equal
/// [`encode`] of the [`OfMessage::PacketIn`] whose `data` is
/// [`wire::serialize`]`(pkt)`. Like [`encode_into`], it reserves the
/// whole frame first: at most one allocation.
pub fn encode_packet_in_into(
    in_port: u32,
    reason: PacketInReason,
    pkt: &Packet,
    xid: u32,
    buf: &mut Vec<u8>,
) {
    let mut len = Len(HEADER_LEN);
    put_packet_in_head(&mut len, in_port, reason);
    len.u32(0);
    buf.reserve(len.0 + wire::serialized_len(pkt));
    let start = begin_frame(buf, T_PACKET_IN, xid);
    put_packet_in_head(buf, in_port, reason);
    put_serialized(buf, pkt);
    end_frame(buf, start);
}

/// Appends the frame of the flow-stats reply that reports `stats`:
/// the bytes [`encode`] writes for the [`OfMessage::StatsReply`] of the
/// same list, which is never built. `stats` is walked three times, to
/// count, to size the frame and to write it; like [`encode_into`], at
/// most one allocation.
pub fn encode_flow_stats_into(
    stats: impl Iterator<Item = FlowStats> + Clone,
    xid: u32,
    buf: &mut Vec<u8>,
) {
    let n = stats.clone().count();
    let mut len = Len(HEADER_LEN);
    put_flow_stats(&mut len, n, stats.clone());
    buf.reserve(len.0);
    let start = begin_frame(buf, T_STATS_REP, xid);
    put_flow_stats(buf, n, stats);
    end_frame(buf, start);
}

/// A flow-stats body: its kind, the count `n`, then each of `stats`.
fn put_flow_stats(w: &mut impl Sink, n: usize, stats: impl Iterator<Item = FlowStats>) {
    w.u8(0);
    w.u32(n as u32);
    for s in stats {
        put_match(w, &s.matcher);
        w.u16(s.priority);
        w.u64(s.cookie);
        w.u64(s.packet_count);
        w.u64(s.byte_count);
        w.u64(s.duration);
    }
}

/// Appends `pkt`'s wire bytes with their length prefix.
fn put_serialized(buf: &mut Vec<u8>, pkt: &Packet) {
    let data_len_at = buf.len();
    buf.u32(0);
    wire::serialize_into(pkt, buf);
    let data_len = buf.len() - data_len_at - 4;
    patch_u32(buf, data_len_at, data_len);
}

/// Appends a frame header whose length is patched by [`end_frame`];
/// returns where the frame starts.
fn begin_frame(buf: &mut Vec<u8>, ty: u8, xid: u32) -> usize {
    let start = buf.len();
    buf.u8(VERSION);
    buf.u8(ty);
    buf.u32(0);
    buf.u32(xid);
    start
}

/// Patches the length of the frame that starts at `start` and runs to
/// the end of `buf`.
fn end_frame(buf: &mut [u8], start: usize) {
    patch_u32(buf, start + 2, buf.len() - start);
}

fn patch_u32(buf: &mut [u8], at: usize, v: usize) {
    if let Some(slot) = buf.get_mut(at..at + 4) {
        slot.copy_from_slice(&(v as u32).to_be_bytes());
    }
}

fn put_flow_mod(w: &mut impl Sink, m: &FlowModRef<'_>) {
    w.u8(match m.command {
        FlowModCommand::Add => 0,
        FlowModCommand::Modify => 1,
        FlowModCommand::ModifyStrict => 2,
        FlowModCommand::Delete => 3,
        FlowModCommand::DeleteStrict => 4,
    });
    put_match(w, m.matcher);
    w.u16(m.priority);
    put_actions(w, m.actions);
    w.opt_u64(m.idle_timeout);
    w.opt_u64(m.hard_timeout);
    w.u64(m.cookie);
    w.bool(m.notify_removed);
}

fn put_packet_in_head(w: &mut impl Sink, in_port: u32, reason: PacketInReason) {
    w.u32(in_port);
    w.u8(match reason {
        PacketInReason::NoMatch => 0,
        PacketInReason::Action => 1,
    });
}

fn put_packet_out_head(w: &mut impl Sink, in_port: Option<u32>, actions: &[Action]) {
    w.opt_u32(in_port);
    put_actions(w, actions);
}

/// Writes everything of `msg` after the frame header.
fn put_body(w: &mut impl Sink, msg: &OfMessage) {
    match msg {
        OfMessage::Hello
        | OfMessage::FeaturesRequest
        | OfMessage::BarrierRequest
        | OfMessage::BarrierReply => {}
        OfMessage::EchoRequest(v) | OfMessage::EchoReply(v) => w.u64(*v),
        OfMessage::FeaturesReply {
            datapath_id,
            n_ports,
        } => {
            w.u64(*datapath_id);
            w.u32(*n_ports);
        }
        OfMessage::PacketIn {
            in_port,
            reason,
            data,
        } => {
            put_packet_in_head(w, *in_port, *reason);
            w.bytes(data);
        }
        OfMessage::PacketOut {
            in_port,
            actions,
            data,
        } => {
            put_packet_out_head(w, *in_port, actions);
            w.bytes(data);
        }
        OfMessage::FlowMod {
            command,
            matcher,
            priority,
            actions,
            idle_timeout,
            hard_timeout,
            cookie,
            notify_removed,
        } => put_flow_mod(
            w,
            &FlowModRef {
                command: *command,
                matcher,
                priority: *priority,
                actions,
                idle_timeout: *idle_timeout,
                hard_timeout: *hard_timeout,
                cookie: *cookie,
                notify_removed: *notify_removed,
            },
        ),
        OfMessage::FlowRemoved {
            matcher,
            cookie,
            priority,
            reason,
            packet_count,
            byte_count,
        } => {
            put_match(w, matcher);
            w.u64(*cookie);
            w.u16(*priority);
            w.u8(match reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            w.u64(*packet_count);
            w.u64(*byte_count);
        }
        OfMessage::PortStatus { reason, port_no } => {
            w.u8(match reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            w.u32(*port_no);
        }
        OfMessage::StatsRequest(kind) => match kind {
            StatsRequestKind::Flow(m) => {
                w.u8(0);
                put_match(w, m);
            }
            StatsRequestKind::Port(p) => {
                w.u8(1);
                w.opt_u32(*p);
            }
            StatsRequestKind::Description => w.u8(2),
        },
        OfMessage::StatsReply(body) => match body {
            StatsBody::Flow(stats) => put_flow_stats(w, stats.len(), stats.iter().cloned()),
            StatsBody::Port(stats) => {
                w.u8(1);
                w.u32(stats.len() as u32);
                for s in stats {
                    w.u32(s.port_no);
                    w.u64(s.rx_packets);
                    w.u64(s.tx_packets);
                    w.u64(s.rx_bytes);
                    w.u64(s.tx_bytes);
                    w.u64(s.drops);
                }
            }
            StatsBody::Description {
                manufacturer,
                hardware,
                software,
            } => {
                w.u8(2);
                w.string(manufacturer);
                w.string(hardware);
                w.string(software);
            }
        },
        OfMessage::Attestation(a) => {
            w.u64(a.dpid);
            w.u32(a.in_port);
            w.u32(a.out_port);
            w.u64(a.cookie);
            put_flow_key(w, &a.flow);
            w.u64(a.pkt_tag);
            w.u64(a.tag);
        }
    }
}

fn msg_type(msg: &OfMessage) -> u8 {
    match msg {
        OfMessage::Hello => T_HELLO,
        OfMessage::EchoRequest(_) => T_ECHO_REQ,
        OfMessage::EchoReply(_) => T_ECHO_REP,
        OfMessage::FeaturesRequest => T_FEATURES_REQ,
        OfMessage::FeaturesReply { .. } => T_FEATURES_REP,
        OfMessage::PacketIn { .. } => T_PACKET_IN,
        OfMessage::FlowRemoved { .. } => T_FLOW_REMOVED,
        OfMessage::PortStatus { .. } => T_PORT_STATUS,
        OfMessage::PacketOut { .. } => T_PACKET_OUT,
        OfMessage::FlowMod { .. } => T_FLOW_MOD,
        OfMessage::StatsRequest(_) => T_STATS_REQ,
        OfMessage::StatsReply(_) => T_STATS_REP,
        OfMessage::BarrierRequest => T_BARRIER_REQ,
        OfMessage::BarrierReply => T_BARRIER_REP,
        OfMessage::Attestation(_) => T_ATTESTATION,
    }
}

/// A frame read in place: its message without the action list, which
/// the reader put in its sink, and with the packet a packet-in or a
/// packet-out carries borrowed from the frame.
/// [`Frame::into_message`] puts the two back together.
#[derive(Debug)]
pub enum Frame<'a> {
    /// [`OfMessage::FlowMod`] without its actions.
    FlowMod {
        /// What the switch does with the entry.
        command: FlowModCommand,
        /// The entry's match.
        matcher: Match,
        /// The entry's priority.
        priority: u16,
        /// Idle timeout in nanoseconds.
        idle_timeout: Option<u64>,
        /// Hard timeout in nanoseconds.
        hard_timeout: Option<u64>,
        /// Opaque controller cookie.
        cookie: u64,
        /// Whether the switch reports the entry's removal.
        notify_removed: bool,
    },
    /// [`OfMessage::PacketIn`].
    PacketIn {
        /// The port the packet arrived on.
        in_port: u32,
        /// Why the switch sent it up.
        reason: PacketInReason,
        /// The serialized packet.
        data: &'a [u8],
    },
    /// [`OfMessage::PacketOut`] without its actions.
    PacketOut {
        /// The port the packet is released as if it arrived on.
        in_port: Option<u32>,
        /// The serialized packet.
        data: &'a [u8],
    },
    /// [`OfMessage::StatsReply`] of flow statistics, read in place.
    FlowStats(FlowStatsRef<'a>),
    /// Any other message: none carries actions.
    Other(OfMessage),
}

/// The entries of a flow-stats reply, left in the frame: the reader
/// checks every entry once, and [`FlowStatsRef::iter`] decodes each
/// again as it is read, so no list is built.
#[derive(Debug, Clone, Copy)]
pub struct FlowStatsRef<'a> {
    n: usize,
    bytes: &'a [u8],
}

impl<'a> FlowStatsRef<'a> {
    /// The reported entries, in the order the switch wrote them.
    pub fn iter(&self) -> impl Iterator<Item = FlowStats> + 'a {
        let mut r = Cursor::new(self.bytes);
        // Every entry was checked when the frame was read.
        (0..self.n).map_while(move |_| get_flow_stat(&mut r).ok())
    }
}

impl Frame<'_> {
    /// The owned message, given the actions the reader put in its sink.
    pub fn into_message(self, actions: ActionList) -> OfMessage {
        match self {
            Frame::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout,
                hard_timeout,
                cookie,
                notify_removed,
            } => OfMessage::FlowMod {
                command,
                matcher,
                priority,
                actions,
                idle_timeout,
                hard_timeout,
                cookie,
                notify_removed,
            },
            Frame::PacketIn {
                in_port,
                reason,
                data,
            } => OfMessage::PacketIn {
                in_port,
                reason,
                data: data.to_vec(),
            },
            Frame::PacketOut { in_port, data } => OfMessage::PacketOut {
                in_port,
                actions,
                data: data.to_vec(),
            },
            Frame::FlowStats(stats) => {
                let mut v = Vec::with_capacity(stats.n);
                v.extend(stats.iter());
                OfMessage::StatsReply(StatsBody::Flow(v))
            }
            Frame::Other(msg) => msg,
        }
    }
}

/// Decodes one message, returning it with its transaction id.
///
/// # Errors
///
/// Returns [`CodecError`] for truncated buffers, unknown versions or
/// types, and invalid field values.
pub fn decode(bytes: &[u8]) -> Result<(OfMessage, u32), CodecError> {
    let mut actions = ActionList::new();
    let (frame, xid) = read_frame(bytes, &mut actions)?;
    Ok((frame.into_message(actions), xid))
}

/// The one reader: the message in `bytes`, which must hold exactly one
/// frame, with its actions put in `actions` and its transaction id.
///
/// # Errors
///
/// Exactly those of [`decode`] on the same bytes.
pub fn read_frame<'a>(
    bytes: &'a [u8],
    actions: &mut impl ActionSink,
) -> Result<(Frame<'a>, u32), CodecError> {
    let r = &mut Cursor::new(bytes);
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let ty = r.u8()?;
    let len = r.u32()? as usize;
    if len != bytes.len() {
        return Err(CodecError::Truncated);
    }
    let xid = r.u32()?;
    let frame = match ty {
        T_PACKET_IN => Frame::PacketIn {
            in_port: r.u32()?,
            reason: match r.u8()? {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                _ => return Err(CodecError::BadField("packet_in reason")),
            },
            data: get_bytes(r)?,
        },
        T_PACKET_OUT => {
            let in_port = get_opt_u32(r)?;
            get_actions(r, actions)?;
            Frame::PacketOut {
                in_port,
                data: get_bytes(r)?,
            }
        }
        T_FLOW_MOD => {
            let command = match r.u8()? {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                _ => return Err(CodecError::BadField("flow_mod command")),
            };
            let matcher = get_match(r)?;
            let priority = r.u16()?;
            get_actions(r, actions)?;
            Frame::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout: get_opt_u64(r)?,
                hard_timeout: get_opt_u64(r)?,
                cookie: r.u64()?,
                notify_removed: get_bool(r)?,
            }
        }
        T_STATS_REP if bytes.get(HEADER_LEN) == Some(&0) => {
            r.u8()?;
            Frame::FlowStats(get_flow_stats(r)?)
        }
        ty => Frame::Other(get_message(ty, r)?),
    };
    Ok((frame, xid))
}

/// A flow-stats body after its kind: the count, then every entry,
/// checked and kept as bytes.
fn get_flow_stats<'a>(r: &mut Cursor<'a>) -> Result<FlowStatsRef<'a>, CodecError> {
    let n = r.u32()? as usize;
    // A flow-stats entry is tens of bytes; a count past the remaining
    // frame bytes cannot be honest.
    if n > r.remaining() {
        return Err(CodecError::BadField("flow stats count"));
    }
    let mut entries = r.clone();
    for _ in 0..n {
        get_flow_stat(r)?;
    }
    let bytes = entries.take(entries.remaining() - r.remaining())?;
    Ok(FlowStatsRef { n, bytes })
}

fn get_flow_stat(r: &mut Cursor<'_>) -> Result<FlowStats, CodecError> {
    Ok(FlowStats {
        matcher: get_match(r)?,
        priority: r.u16()?,
        cookie: r.u64()?,
        packet_count: r.u64()?,
        byte_count: r.u64()?,
        duration: r.u64()?,
    })
}

/// The body of a message of type `ty` that carries neither actions nor
/// a packet.
fn get_message(ty: u8, r: &mut Cursor<'_>) -> Result<OfMessage, CodecError> {
    Ok(match ty {
        T_HELLO => OfMessage::Hello,
        T_ECHO_REQ => OfMessage::EchoRequest(r.u64()?),
        T_ECHO_REP => OfMessage::EchoReply(r.u64()?),
        T_FEATURES_REQ => OfMessage::FeaturesRequest,
        T_FEATURES_REP => OfMessage::FeaturesReply {
            datapath_id: r.u64()?,
            n_ports: r.u32()?,
        },
        T_FLOW_REMOVED => OfMessage::FlowRemoved {
            matcher: get_match(r)?,
            cookie: r.u64()?,
            priority: r.u16()?,
            reason: match r.u8()? {
                0 => FlowRemovedReason::IdleTimeout,
                1 => FlowRemovedReason::HardTimeout,
                2 => FlowRemovedReason::Delete,
                _ => return Err(CodecError::BadField("flow_removed reason")),
            },
            packet_count: r.u64()?,
            byte_count: r.u64()?,
        },
        T_PORT_STATUS => OfMessage::PortStatus {
            reason: match r.u8()? {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                _ => return Err(CodecError::BadField("port_status reason")),
            },
            port_no: r.u32()?,
        },
        T_STATS_REQ => OfMessage::StatsRequest(match r.u8()? {
            0 => StatsRequestKind::Flow(get_match(r)?),
            1 => StatsRequestKind::Port(get_opt_u32(r)?),
            2 => StatsRequestKind::Description,
            _ => return Err(CodecError::BadField("stats kind")),
        }),
        // Flow statistics (kind 0) are read in place by `read_frame`.
        T_STATS_REP => OfMessage::StatsReply(match r.u8()? {
            1 => {
                let n = r.u32()? as usize;
                // Each port-stats entry is 44 bytes: a count past the
                // remaining frame bytes cannot be honest.
                if n > r.remaining() {
                    return Err(CodecError::BadField("port stats count"));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(PortStats {
                        port_no: r.u32()?,
                        rx_packets: r.u64()?,
                        tx_packets: r.u64()?,
                        rx_bytes: r.u64()?,
                        tx_bytes: r.u64()?,
                        drops: r.u64()?,
                    });
                }
                StatsBody::Port(v)
            }
            2 => StatsBody::Description {
                manufacturer: get_string(r)?,
                hardware: get_string(r)?,
                software: get_string(r)?,
            },
            _ => return Err(CodecError::BadField("stats body")),
        }),
        T_BARRIER_REQ => OfMessage::BarrierRequest,
        T_BARRIER_REP => OfMessage::BarrierReply,
        T_ATTESTATION => OfMessage::Attestation(ForwardingAttestation {
            dpid: r.u64()?,
            in_port: r.u32()?,
            out_port: r.u32()?,
            cookie: r.u64()?,
            flow: get_flow_key(r)?,
            pkt_tag: r.u64()?,
            tag: r.u64()?,
        }),
        other => return Err(CodecError::BadType(other)),
    })
}

/// Decodes a payload carrying one or more concatenated messages, in
/// order. Every frame is self-delimiting (the header carries the total
/// frame length), so a batch is simply the frames back to back — this
/// is how the controller ships per-switch flow-mod batches in a single
/// control-channel send.
///
/// # Errors
///
/// Returns [`CodecError`] if any frame is malformed; frames decoded
/// before the bad one are discarded (a batch is all-or-nothing, which
/// keeps the barrier-delimited transaction semantics honest).
pub fn decode_all(bytes: &[u8]) -> Result<Vec<(OfMessage, u32)>, CodecError> {
    Frames::new(bytes).map(|f| decode(f?.1)).collect()
}

/// The frames of a payload of concatenated frames, in order: each
/// frame's type code and its whole bytes, unread. A header that cannot
/// frame its bytes ends the walk with an error.
#[derive(Debug)]
pub(crate) struct Frames<'a>(Cursor<'a>);

impl<'a> Frames<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Frames(Cursor::new(bytes))
    }

    fn split(&mut self) -> Result<(u8, &'a [u8]), CodecError> {
        // Version and type, then the frame's total length.
        let mut header = self.0.clone();
        let [_, ty] = header.array::<2>()?;
        let len = header.u32()? as usize;
        if len < HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        Ok((ty, self.0.take(len)?))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<(u8, &'a [u8]), CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.remaining() == 0 {
            return None;
        }
        let frame = self.split();
        if frame.is_err() {
            self.0 = Cursor::new(&[]);
        }
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::FlowKey;

    fn sample_match() -> Match {
        let key = FlowKey {
            vlan: Some(7),
            dl_src: MacAddr::from_u64(0x111111),
            dl_dst: MacAddr::from_u64(0x222222),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 1000,
            tp_dst: 80,
        };
        Match::exact(3, &key)
    }

    fn roundtrip(msg: OfMessage) {
        let bytes = encode(&msg, 0xdead_beef);
        let (back, xid) = decode(&bytes).unwrap_or_else(|e| panic!("{e}: {msg:?}"));
        assert_eq!(back, msg);
        assert_eq!(xid, 0xdead_beef);
    }

    #[test]
    fn roundtrip_symmetric_messages() {
        roundtrip(OfMessage::Hello);
        roundtrip(OfMessage::EchoRequest(42));
        roundtrip(OfMessage::EchoReply(42));
        roundtrip(OfMessage::BarrierRequest);
        roundtrip(OfMessage::BarrierReply);
        roundtrip(OfMessage::FeaturesRequest);
        roundtrip(OfMessage::FeaturesReply {
            datapath_id: 0x1234,
            n_ports: 24,
        });
    }

    #[test]
    fn roundtrip_packet_in_out() {
        roundtrip(OfMessage::PacketIn {
            in_port: 5,
            reason: PacketInReason::NoMatch,
            data: vec![1, 2, 3, 4, 5],
        });
        roundtrip(OfMessage::PacketOut {
            in_port: Some(2),
            actions: vec![
                Action::SetDlDst(MacAddr::from_u64(9)),
                Action::Output(OutPort::Flood),
            ]
            .into(),
            data: vec![9; 100],
        });
        roundtrip(OfMessage::PacketOut {
            in_port: None,
            actions: ActionList::new(),
            data: vec![],
        });
    }

    /// What `read_frame` makes of `bytes`, owned again, or its error.
    fn read_owned(bytes: &[u8]) -> Result<(OfMessage, u32), CodecError> {
        let (frame, xid) = read_frame(bytes, &mut Check)?;
        Ok((frame.into_message(ActionList::new()), xid))
    }

    #[test]
    fn the_borrowed_packet_in_read_equals_decode() {
        for (data, reason) in [
            (vec![], PacketInReason::NoMatch),
            (vec![7; 60], PacketInReason::Action),
            (vec![0x5a; 1414], PacketInReason::NoMatch),
        ] {
            let msg = OfMessage::PacketIn {
                in_port: 3,
                reason,
                data: data.clone(),
            };
            let bytes = encode(&msg, 11);
            let (frame, xid) = read_frame(&bytes, &mut Check).unwrap();
            let Frame::PacketIn { data: borrowed, .. } = frame else {
                panic!("{frame:?}");
            };
            // The packet is the frame's own tail, not a copy.
            assert_eq!(borrowed.as_ptr_range().end, bytes.as_ptr_range().end);
            assert_eq!((borrowed, xid), (&data[..], 11));
            assert_eq!(read_owned(&bytes), decode(&bytes));
            // Cut anywhere, as received and with the length field
            // patched to agree, so the body itself runs short.
            for cut in 0..bytes.len() {
                let mut short = bytes[..cut].to_vec();
                assert_eq!(read_owned(&short), decode(&short), "cut at {cut}");
                if cut >= HEADER_LEN {
                    patch_u32(&mut short, 2, cut);
                    assert_eq!(read_owned(&short), decode(&short), "patched at {cut}");
                }
            }
            // Every value of the reason byte, the two good ones included.
            for reason in 0..=u8::MAX {
                let mut bad = bytes.clone();
                bad[HEADER_LEN + 4] = reason;
                let got = read_owned(&bad);
                assert_eq!(got, decode(&bad), "reason {reason}");
                assert_eq!(got.is_ok(), reason < 2);
            }
        }
    }

    #[test]
    fn roundtrip_flow_mod_variants() {
        for command in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            roundtrip(OfMessage::FlowMod {
                command,
                matcher: sample_match(),
                priority: 100,
                actions: vec![
                    Action::SetDlDst(MacAddr::from_u64(0xfe)),
                    Action::SetVlan(9),
                    Action::StripVlan,
                    Action::SetNwSrc("1.2.3.4".parse().unwrap()),
                    Action::SetNwDst("5.6.7.8".parse().unwrap()),
                    Action::SetTpSrc(1),
                    Action::SetTpDst(2),
                    Action::SetDlSrc(MacAddr::from_u64(3)),
                    Action::Output(OutPort::Physical(7)),
                    Action::Output(OutPort::InPort),
                    Action::Output(OutPort::Controller),
                ]
                .into(),
                idle_timeout: Some(5_000_000_000),
                hard_timeout: None,
                cookie: 77,
                notify_removed: true,
            });
        }
    }

    #[test]
    fn roundtrip_wildcard_and_prefix_matches() {
        roundtrip(OfMessage::add_flow(Match::any(), vec![], 0));
        roundtrip(OfMessage::add_flow(
            Match::any()
                .with_nw_dst("10.0.0.0/8".parse().unwrap())
                .with_dl_type(0x0800),
            vec![Action::Output(OutPort::Controller)],
            5,
        ));
        // Untagged VLAN constraint round-trips distinctly from wildcard.
        let m = Match {
            dl_vlan: Some(VlanMatch::Untagged),
            ..Match::any()
        };
        roundtrip(OfMessage::add_flow(m, vec![], 1));
    }

    #[test]
    fn roundtrip_flow_removed_and_port_status() {
        roundtrip(OfMessage::FlowRemoved {
            matcher: sample_match(),
            cookie: 1,
            priority: 2,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 100,
            byte_count: 100_000,
        });
        roundtrip(OfMessage::PortStatus {
            reason: PortStatusReason::Delete,
            port_no: 3,
        });
    }

    #[test]
    fn roundtrip_stats() {
        roundtrip(OfMessage::StatsRequest(
            StatsRequestKind::Flow(Match::any()),
        ));
        roundtrip(OfMessage::StatsRequest(StatsRequestKind::Port(None)));
        roundtrip(OfMessage::StatsRequest(StatsRequestKind::Port(Some(4))));
        roundtrip(OfMessage::StatsRequest(StatsRequestKind::Description));
        roundtrip(OfMessage::StatsReply(StatsBody::Flow(vec![FlowStats {
            matcher: sample_match(),
            priority: 1,
            cookie: 2,
            packet_count: 3,
            byte_count: 4,
            duration: 5,
        }])));
        roundtrip(OfMessage::StatsReply(StatsBody::Port(vec![PortStats {
            port_no: 1,
            rx_packets: 2,
            tx_packets: 3,
            rx_bytes: 4,
            tx_bytes: 5,
            drops: 6,
        }])));
        roundtrip(OfMessage::StatsReply(StatsBody::Description {
            manufacturer: "LiveSec".into(),
            hardware: "sim".into(),
            software: "ovs-1.1.0-model".into(),
        }));
    }

    #[test]
    fn roundtrip_attestation() {
        use crate::message::attestation_tag;
        let flow = FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(0x11),
            dl_dst: MacAddr::from_u64(0x22),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 17,
            tp_src: 5000,
            tp_dst: 53,
        };
        roundtrip(OfMessage::Attestation(ForwardingAttestation {
            dpid: 3,
            in_port: 2,
            out_port: 1,
            cookie: 77,
            flow,
            pkt_tag: 0xfeed,
            tag: attestation_tag(3, 2, 1, 77),
        }));
        roundtrip(OfMessage::Attestation(ForwardingAttestation {
            dpid: u64::MAX,
            in_port: 0,
            out_port: u32::MAX,
            cookie: 0,
            flow: FlowKey {
                vlan: Some(4094),
                ..flow
            },
            pkt_tag: 0,
            tag: 0,
        }));
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        let mut bytes = encode(&OfMessage::Hello, 1);
        bytes[0] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(99)));
        let mut bytes = encode(&OfMessage::Hello, 1);
        bytes[1] = 200;
        assert_eq!(decode(&bytes), Err(CodecError::BadType(200)));
        let bytes = encode(&OfMessage::EchoRequest(1), 1);
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn length_field_must_agree() {
        let mut bytes = encode(&OfMessage::Hello, 1);
        bytes.push(0); // trailing garbage
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn decode_all_splits_a_batch() {
        let msgs = [
            OfMessage::add_flow(
                sample_match(),
                vec![Action::Output(OutPort::Physical(1))],
                100,
            ),
            OfMessage::PacketOut {
                in_port: Some(2),
                actions: vec![Action::Output(OutPort::Physical(3))].into(),
                data: vec![1, 2, 3],
            },
            OfMessage::BarrierRequest,
        ];
        let mut payload = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            payload.extend_from_slice(&encode(m, i as u32 + 10));
        }
        let back = decode_all(&payload).unwrap();
        assert_eq!(back.len(), 3);
        for (i, (m, xid)) in back.iter().enumerate() {
            assert_eq!(m, &msgs[i]);
            assert_eq!(*xid, i as u32 + 10);
        }
    }

    #[test]
    fn decode_all_single_message_matches_decode() {
        let bytes = encode(&OfMessage::EchoRequest(7), 42);
        assert_eq!(decode_all(&bytes).unwrap(), vec![decode(&bytes).unwrap()]);
    }

    #[test]
    fn decode_all_rejects_partial_and_corrupt_batches() {
        assert_eq!(decode_all(&[1, 2, 3]), Err(CodecError::Truncated));
        let mut payload = encode(&OfMessage::Hello, 1);
        payload.extend_from_slice(&encode(&OfMessage::EchoRequest(1), 2));
        // Chop the tail off the second frame.
        assert_eq!(
            decode_all(&payload[..payload.len() - 1]),
            Err(CodecError::Truncated)
        );
        // Corrupt the second frame's version byte.
        let hello_len = encode(&OfMessage::Hello, 1).len();
        let mut corrupt = payload.clone();
        corrupt[hello_len] = 99;
        assert_eq!(decode_all(&corrupt), Err(CodecError::BadVersion(99)));
        assert!(decode_all(&[]).unwrap().is_empty());
    }

    // ---- malformed-frame regressions: a lying length field must be
    // a graceful `Err`, never a panic or a multi-gigabyte allocation.

    #[test]
    fn huge_action_count_is_rejected_before_allocation() {
        // PacketOut with no in_port: the action count is the u32 at
        // bytes 11..15 (header 10 + 1-byte `None` flag).
        let msg = OfMessage::PacketOut {
            in_port: None,
            actions: ActionList::new(),
            data: vec![],
        };
        let mut bytes = encode(&msg, 1);
        bytes[11..15].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn huge_stats_counts_are_rejected_before_allocation() {
        for body in [StatsBody::Flow(vec![]), StatsBody::Port(vec![])] {
            // Header 10 + 1-byte stats kind, then the u32 entry count.
            let mut bytes = encode(&OfMessage::StatsReply(body), 1);
            bytes[11..15].copy_from_slice(&u32::MAX.to_be_bytes());
            assert!(decode(&bytes).is_err());
        }
    }

    #[test]
    fn huge_payload_length_is_rejected_before_allocation() {
        // Empty PacketOut: flag 1B + count 4B, then the data byte
        // length at 15..19. u32::MAX would overflow a `pos + n`
        // bounds check; `Cursor::take` checks `n > remaining`.
        let msg = OfMessage::PacketOut {
            in_port: None,
            actions: ActionList::new(),
            data: vec![],
        };
        let mut bytes = encode(&msg, 1);
        bytes[15..19].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let msgs = [
            OfMessage::PacketIn {
                in_port: 5,
                reason: PacketInReason::NoMatch,
                data: vec![1, 2, 3],
            },
            OfMessage::PacketOut {
                in_port: Some(2),
                actions: vec![Action::Output(OutPort::Flood)].into(),
                data: vec![9; 16],
            },
            OfMessage::add_flow(sample_match(), vec![Action::StripVlan], 9),
            OfMessage::StatsReply(StatsBody::Description {
                manufacturer: "a".into(),
                hardware: "b".into(),
                software: "c".into(),
            }),
        ];
        for msg in &msgs {
            let bytes = encode(msg, 7);
            for i in 0..bytes.len() {
                for val in [0x00, 0x7f, 0xff] {
                    let mut m = bytes.clone();
                    m[i] = val;
                    // Any result is fine; a panic or OOM is the bug.
                    let _ = decode(&m);
                    let _ = decode_all(&m);
                }
            }
        }
    }
}
