//! Ethernet framing: header, EtherType and 802.1Q VLAN tags.

use crate::mac::MacAddr;
use std::fmt;

/// The EtherType of an Ethernet frame.
///
/// Only the values LiveSec actually switches on get named variants;
/// everything else round-trips through [`EtherType::Other`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// 802.1Q VLAN tag (`0x8100`); only appears on the wire, never as a
    /// payload type.
    Vlan,
    /// LLDP (`0x88cc`), used for controller topology discovery.
    Lldp,
    /// Any other EtherType.
    Other(u16),
}

impl EtherType {
    /// The numeric EtherType value.
    pub const fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Lldp => 0x88cc,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            0x88cc => EtherType::Lldp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        t.as_u16()
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "ipv4"),
            EtherType::Arp => write!(f, "arp"),
            EtherType::Vlan => write!(f, "vlan"),
            EtherType::Lldp => write!(f, "lldp"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// An 802.1Q VLAN tag (VID + priority).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VlanTag {
    /// VLAN identifier, 0..=4095.
    pub vid: u16,
    /// 802.1p priority code point, 0..=7.
    pub pcp: u8,
}

impl VlanTag {
    /// Creates a tag with the given VID and priority 0.
    ///
    /// # Panics
    ///
    /// Panics if `vid > 4095`.
    pub fn new(vid: u16) -> Self {
        assert!(vid <= 0x0fff, "VLAN id {vid} out of range");
        VlanTag { vid, pcp: 0 }
    }

    /// The 16-bit tag control information field.
    pub fn tci(&self) -> u16 {
        ((self.pcp as u16) << 13) | (self.vid & 0x0fff)
    }

    /// Parses a tag from the TCI field.
    pub fn from_tci(tci: u16) -> Self {
        VlanTag {
            vid: tci & 0x0fff,
            pcp: (tci >> 13) as u8,
        }
    }
}

/// An Ethernet II header, optionally VLAN-tagged.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// 802.1Q tag, if present.
    pub vlan: Option<VlanTag>,
    /// EtherType of the payload (after the VLAN tag if tagged).
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Creates an untagged header.
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: EtherType) -> Self {
        EthernetHeader {
            dst,
            src,
            vlan: None,
            ethertype,
        }
    }

    /// The on-wire length of this header in bytes (14, or 18 if tagged).
    pub fn wire_len(&self) -> usize {
        if self.vlan.is_some() {
            18
        } else {
            14
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethertype_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x8100, 0x88cc, 0x1234] {
            assert_eq!(EtherType::from(v).as_u16(), v);
        }
    }

    #[test]
    fn named_variants() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x88cc), EtherType::Lldp);
        assert_eq!(EtherType::from(0x9999), EtherType::Other(0x9999));
    }

    #[test]
    fn vlan_tci_roundtrip() {
        let tag = VlanTag { vid: 123, pcp: 5 };
        assert_eq!(VlanTag::from_tci(tag.tci()), tag);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vlan_rejects_large_vid() {
        let _ = VlanTag::new(4096);
    }

    #[test]
    fn wire_len() {
        let mut h = EthernetHeader::new(MacAddr::ZERO, MacAddr::BROADCAST, EtherType::Ipv4);
        assert_eq!(h.wire_len(), 14);
        h.vlan = Some(VlanTag::new(7));
        assert_eq!(h.wire_len(), 18);
    }
}
