//! UDP datagrams.

use crate::packet::Payload;

/// A UDP datagram.
///
/// Besides carrying ordinary traffic, UDP is the substrate of LiveSec's
/// service-element control channel: SE daemons wrap their messages in
/// magic-tagged UDP datagrams that the controller intercepts (paper
/// §III-D.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Payload,
}

impl UdpDatagram {
    /// On-wire length of the UDP header.
    pub const HEADER_LEN: usize = 8;

    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Payload) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Total on-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_header() {
        let d = UdpDatagram::new(5000, 53, Payload::Synthetic(64));
        assert_eq!(d.wire_len(), 72);
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(1, 2, Payload::Empty);
        assert_eq!(d.wire_len(), UdpDatagram::HEADER_LEN);
    }
}
