//! Switch-side secure-channel state machine.
//!
//! Wraps the codec with the protocol chores every switch performs
//! identically: answering hello, echo, features and barrier requests,
//! and allocating transaction ids for outbound messages. The
//! interesting messages (flow-mods, packet-outs, stats requests) are
//! surfaced to the caller, read in place from the received bytes.

use crate::action::Action;
use crate::codec::{
    encode_flow_stats_into, encode_into, encode_packet_in_into, read_frame, Check, CodecError,
    Frame, Frames, T_BARRIER_REQ, T_ECHO_REP, T_ECHO_REQ, T_FEATURES_REQ, T_HELLO,
};
use crate::message::{FlowStats, OfMessage, PacketInReason};
use livesec_net::Packet;

/// The switch side of an OpenFlow secure channel.
#[derive(Debug, Clone)]
pub struct SwitchChannel {
    datapath_id: u64,
    n_ports: u32,
    next_xid: u32,
    /// Echo replies received from the peer (keepalive liveness).
    pub echo_replies_seen: u64,
}

impl SwitchChannel {
    /// Creates a channel for a switch with the given identity.
    pub fn new(datapath_id: u64, n_ports: u32) -> Self {
        SwitchChannel {
            datapath_id,
            n_ports,
            next_xid: 1,
            echo_replies_seen: 0,
        }
    }

    /// The switch's datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.datapath_id
    }

    /// Resets the session as a crash-restart would: transaction ids
    /// restart from 1 and the keepalive counter zeroes. The switch
    /// identity (datapath id, port count) survives — it is hardware,
    /// not session state.
    pub fn reset(&mut self) {
        self.next_xid = 1;
        self.echo_replies_seen = 0;
    }

    fn next_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = xid.wrapping_add(1);
        xid
    }

    /// Appends an outbound message, with a fresh transaction id, to
    /// `buf`: no allocation if `buf` has room for it, one otherwise.
    pub fn send(&mut self, msg: &OfMessage, buf: &mut Vec<u8>) {
        let xid = self.next_xid();
        encode_into(msg, xid, buf);
    }

    /// Appends the packet-in that carries `pkt`, with a fresh
    /// transaction id, to `buf`: the packet is serialized straight into
    /// its frame, with no allocation if `buf` has room for the frame and
    /// one otherwise.
    pub fn packet_in(
        &mut self,
        in_port: u32,
        reason: PacketInReason,
        pkt: &Packet,
        buf: &mut Vec<u8>,
    ) {
        let xid = self.next_xid();
        encode_packet_in_into(in_port, reason, pkt, xid, buf);
    }

    /// Appends the flow-stats reply that reports `stats`, with a fresh
    /// transaction id, to `buf`, written from the entries as `stats`
    /// yields them: no list is built.
    pub fn flow_stats(
        &mut self,
        stats: impl Iterator<Item = FlowStats> + Clone,
        buf: &mut Vec<u8>,
    ) {
        let xid = self.next_xid();
        encode_flow_stats_into(stats, xid, buf);
    }

    /// Processes inbound bytes, which may carry a whole batch of
    /// concatenated messages (the controller's per-switch flow-mod
    /// batches).
    ///
    /// A batch is all-or-nothing, and is walked check-then-apply with
    /// nothing staged in between. First every frame is read and
    /// checked, its actions read into nothing. Then the protocol chores
    /// are answered through `reply`, one message and the xid it answers
    /// each, in arrival order, for the caller to encode into a buffer of
    /// its choosing. What is left needs switch-specific handling: the
    /// returned [`Batch`] reads it one frame at a time, in arrival
    /// order. The caller transmits the replies as they come and applies
    /// the batch after, so the reply to a batch-terminating
    /// [`OfMessage::BarrierRequest`] leaves before the batch's entries
    /// are applied — the simulated switch applies them synchronously in
    /// the same dispatch, so the barrier still holds.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if any frame doesn't decode; no message
    /// of a malformed batch is answered or surfaced.
    pub fn receive_all<'a>(
        &mut self,
        bytes: &'a [u8],
        reply: &mut dyn FnMut(&OfMessage, u32),
    ) -> Result<Batch<'a>, CodecError> {
        for frame in Frames::new(bytes) {
            read_frame(frame?.1, &mut Check)?;
        }
        for (ty, frame) in Frames::new(bytes).flatten() {
            if !is_chore(ty) {
                continue;
            }
            let Ok((Frame::Other(msg), xid)) = read_frame(frame, &mut Check) else {
                continue;
            };
            let answer = match msg {
                OfMessage::EchoRequest(v) => OfMessage::EchoReply(v),
                OfMessage::FeaturesRequest => OfMessage::FeaturesReply {
                    datapath_id: self.datapath_id,
                    n_ports: self.n_ports,
                },
                OfMessage::BarrierRequest => OfMessage::BarrierReply,
                OfMessage::EchoReply(_) => {
                    self.echo_replies_seen += 1;
                    continue;
                }
                _ => continue,
            };
            reply(&answer, xid);
        }
        Ok(Batch(Frames::new(bytes)))
    }
}

/// Whether the channel answers or absorbs frames of type `ty` itself.
fn is_chore(ty: u8) -> bool {
    matches!(
        ty,
        T_HELLO | T_ECHO_REQ | T_ECHO_REP | T_FEATURES_REQ | T_BARRIER_REQ
    )
}

/// The frames of a checked batch that the channel leaves to the switch,
/// from [`SwitchChannel::receive_all`].
#[derive(Debug)]
pub struct Batch<'a>(Frames<'a>);

impl<'a> Batch<'a> {
    /// The next frame, in arrival order, with its actions read into
    /// `actions` (cleared first); `None` once the batch is done.
    pub fn next_frame(&mut self, actions: &mut Vec<Action>) -> Option<Frame<'a>> {
        for (ty, frame) in self.0.by_ref().flatten() {
            if is_chore(ty) {
                continue;
            }
            actions.clear();
            // The batch was checked whole, so the read cannot fail.
            if let Ok((frame, _)) = read_frame(frame, actions) {
                return Some(frame);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionList;
    use crate::codec::{decode, encode};
    use crate::flow_match::Match;

    /// The replies `bytes` draws and the messages it surfaces.
    fn receive(
        ch: &mut SwitchChannel,
        bytes: &[u8],
    ) -> Result<(Vec<Vec<u8>>, Vec<OfMessage>), CodecError> {
        let mut replies = Vec::new();
        let mut batch = ch.receive_all(bytes, &mut |m, xid| replies.push(encode(m, xid)))?;
        let (mut up, mut actions) = (Vec::new(), Vec::new());
        while let Some(frame) = batch.next_frame(&mut actions) {
            up.push(frame.into_message(ActionList::from(actions.as_slice())));
        }
        Ok((replies, up))
    }

    #[test]
    fn hello_is_absorbed() {
        let mut ch = SwitchChannel::new(42, 4);
        let hello = encode(&OfMessage::Hello, 1);
        let (replies, up) = receive(&mut ch, &hello).unwrap();
        assert!(replies.is_empty());
        assert!(up.is_empty());
    }

    #[test]
    fn echo_answered_with_same_xid_and_payload() {
        let mut ch = SwitchChannel::new(42, 4);
        let req = encode(&OfMessage::EchoRequest(777), 55);
        let (replies, up) = receive(&mut ch, &req).unwrap();
        assert!(up.is_empty());
        assert_eq!(replies.len(), 1);
        let (msg, xid) = decode(&replies[0]).unwrap();
        assert_eq!(msg, OfMessage::EchoReply(777));
        assert_eq!(xid, 55);
    }

    #[test]
    fn features_reports_identity() {
        let mut ch = SwitchChannel::new(0xabc, 24);
        let req = encode(&OfMessage::FeaturesRequest, 9);
        let (replies, _) = receive(&mut ch, &req).unwrap();
        let (msg, _) = decode(&replies[0]).unwrap();
        assert_eq!(
            msg,
            OfMessage::FeaturesReply {
                datapath_id: 0xabc,
                n_ports: 24
            }
        );
    }

    #[test]
    fn barrier_acknowledged() {
        let mut ch = SwitchChannel::new(1, 1);
        let req = encode(&OfMessage::BarrierRequest, 3);
        let (replies, up) = receive(&mut ch, &req).unwrap();
        assert!(up.is_empty());
        let (msg, xid) = decode(&replies[0]).unwrap();
        assert_eq!(msg, OfMessage::BarrierReply);
        assert_eq!(xid, 3);
    }

    #[test]
    fn flow_mod_passed_up() {
        let mut ch = SwitchChannel::new(1, 1);
        let fm = OfMessage::add_flow(Match::any(), vec![], 1);
        let bytes = encode(&fm, 2);
        let (replies, up) = receive(&mut ch, &bytes).unwrap();
        assert!(replies.is_empty());
        assert_eq!(up, vec![fm]);
    }

    #[test]
    fn garbage_rejected() {
        let mut ch = SwitchChannel::new(1, 1);
        assert!(receive(&mut ch, &[1, 2, 3]).is_err());
    }

    #[test]
    fn outbound_xids_increment() {
        let mut ch = SwitchChannel::new(1, 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ch.send(&OfMessage::Hello, &mut a);
        ch.send(&OfMessage::Hello, &mut b);
        let (_, xa) = decode(&a).unwrap();
        let (_, xb) = decode(&b).unwrap();
        assert_eq!(xb, xa + 1);
    }

    #[test]
    fn batched_payload_surfaces_messages_in_order_and_acks_barrier_last() {
        let mut ch = SwitchChannel::new(1, 1);
        let fm1 = OfMessage::add_flow(Match::any(), vec![], 1);
        let fm2 = OfMessage::add_flow(Match::any(), vec![], 2);
        let mut payload = encode(&fm1, 7);
        payload.extend_from_slice(&encode(&fm2, 8));
        payload.extend_from_slice(&encode(&OfMessage::BarrierRequest, 9));
        let (replies, up) = receive(&mut ch, &payload).unwrap();
        assert_eq!(up, vec![fm1, fm2]);
        assert_eq!(replies.len(), 1, "only the barrier is acknowledged");
        let (msg, xid) = decode(&replies[0]).unwrap();
        assert_eq!(msg, OfMessage::BarrierReply);
        assert_eq!(xid, 9);
    }

    #[test]
    fn batched_hello_answers_features() {
        let mut ch = SwitchChannel::new(0xd, 8);
        let mut payload = encode(&OfMessage::Hello, 1);
        payload.extend_from_slice(&encode(&OfMessage::FeaturesRequest, 2));
        let (replies, up) = receive(&mut ch, &payload).unwrap();
        assert!(up.is_empty());
        assert_eq!(replies.len(), 1);
        let (msg, _) = decode(&replies[0]).unwrap();
        assert_eq!(
            msg,
            OfMessage::FeaturesReply {
                datapath_id: 0xd,
                n_ports: 8
            }
        );
    }

    #[test]
    fn reset_forgets_session_but_keeps_identity() {
        let mut ch = SwitchChannel::new(0xabc, 24);
        receive(&mut ch, &encode(&OfMessage::EchoReply(1), 1)).unwrap();
        ch.send(&OfMessage::Hello, &mut Vec::new());
        assert_eq!(ch.echo_replies_seen, 1);
        ch.reset();
        assert_eq!(ch.echo_replies_seen, 0, "keepalive count forgotten");
        assert_eq!(ch.datapath_id(), 0xabc, "identity survives");
        let mut a = Vec::new();
        ch.send(&OfMessage::Hello, &mut a);
        let (_, xid) = decode(&a).unwrap();
        assert_eq!(xid, 1, "xids restart");
    }

    #[test]
    fn malformed_batch_surfaces_nothing() {
        let mut ch = SwitchChannel::new(1, 1);
        let mut payload = encode(&OfMessage::add_flow(Match::any(), vec![], 1), 7);
        payload.extend_from_slice(&[1, 2, 3]);
        assert!(receive(&mut ch, &payload).is_err());
    }
}
