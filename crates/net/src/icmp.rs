//! ICMP messages (echo request/reply).
//!
//! The paper's latency evaluation (§V-B.3) pings from a user to an
//! Internet server; these types carry that workload.

/// The ICMP message type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3).
    Unreachable,
    /// Echo request (8).
    EchoRequest,
    /// Any other type.
    Other(u8),
}

impl IcmpType {
    /// The numeric type value.
    pub const fn as_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::Unreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::Other(v) => v,
        }
    }
}

impl From<u8> for IcmpType {
    fn from(v: u8) -> Self {
        match v {
            0 => IcmpType::EchoReply,
            3 => IcmpType::Unreachable,
            8 => IcmpType::EchoRequest,
            other => IcmpType::Other(other),
        }
    }
}

/// An ICMP message (echo-style header plus opaque data length).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IcmpMessage {
    /// Message type.
    pub kind: IcmpType,
    /// Identifier (echo id).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Length of the echo data carried (bytes, not materialized).
    pub data_len: u16,
}

impl IcmpMessage {
    /// On-wire length of the ICMP echo header.
    pub const HEADER_LEN: usize = 8;

    /// Builds an echo request.
    pub fn echo_request(ident: u16, seq: u16, data_len: u16) -> Self {
        IcmpMessage {
            kind: IcmpType::EchoRequest,
            ident,
            seq,
            data_len,
        }
    }

    /// Builds the echo reply matching `request`.
    pub fn reply_to(request: &IcmpMessage) -> Self {
        IcmpMessage {
            kind: IcmpType::EchoReply,
            ..*request
        }
    }

    /// Total on-wire length (header + data).
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.data_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_roundtrip() {
        for v in [0u8, 3, 8, 42] {
            assert_eq!(IcmpType::from(v).as_u8(), v);
        }
    }

    #[test]
    fn reply_preserves_ident_and_seq() {
        let req = IcmpMessage::echo_request(77, 3, 56);
        let rep = IcmpMessage::reply_to(&req);
        assert_eq!(rep.kind, IcmpType::EchoReply);
        assert_eq!(rep.ident, 77);
        assert_eq!(rep.seq, 3);
        assert_eq!(rep.data_len, 56);
    }

    #[test]
    fn wire_len() {
        assert_eq!(IcmpMessage::echo_request(1, 1, 56).wire_len(), 64);
    }
}
