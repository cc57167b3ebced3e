//! TCP segments.

use crate::packet::Payload;
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// TCP control flags, stored as a bit set.
///
/// Implemented as a newtype over `u8` rather than an enum because flag
/// combinations (`SYN|ACK`, `FIN|ACK`, …) are the common case.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Creates a flag set from its raw byte.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits & 0x1f)
    }

    /// The raw flag byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` if every flag in `other` is also set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitAnd for TcpFlags {
    type Output = TcpFlags;
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpFlags(")?;
        let mut first = true;
        for (bit, name) in [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "NONE")?;
        }
        write!(f, ")")
    }
}

/// A TCP segment (header without options, plus payload).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (meaningful when ACK is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Application payload.
    pub payload: Payload,
}

impl TcpSegment {
    /// On-wire length of an option-less TCP header.
    pub const HEADER_LEN: usize = 20;

    /// Total on-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_set_operations() {
        let synack = TcpFlags::SYN | TcpFlags::ACK;
        assert!(synack.contains(TcpFlags::SYN));
        assert!(synack.contains(TcpFlags::ACK));
        assert!(!synack.contains(TcpFlags::FIN));
        assert_eq!(synack & TcpFlags::SYN, TcpFlags::SYN);
        assert_eq!(TcpFlags::from_bits(synack.bits()), synack);
    }

    #[test]
    fn from_bits_masks_reserved() {
        assert_eq!(TcpFlags::from_bits(0xff).bits(), 0x1f);
    }

    #[test]
    fn debug_never_empty() {
        assert_eq!(format!("{:?}", TcpFlags::NONE), "TcpFlags(NONE)");
        assert_eq!(
            format!("{:?}", TcpFlags::SYN | TcpFlags::ACK),
            "TcpFlags(SYN|ACK)"
        );
    }

    #[test]
    fn wire_len() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            payload: Payload::Synthetic(1000),
        };
        assert_eq!(seg.wire_len(), 1020);
    }
}
