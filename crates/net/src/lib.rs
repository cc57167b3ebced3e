#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Packet formats, addresses and flow keys for the LiveSec reproduction.
//!
//! This crate is the bottom of the LiveSec stack: every other crate —
//! the simulator, the OpenFlow layer, the switches, the service
//! elements and the controller — speaks in terms of the types defined
//! here.
//!
//! The representation is *structured-first*: a [`Packet`] is a parsed
//! protocol tree ([`EthernetHeader`] + [`Body`]), not a byte buffer.
//! This keeps the simulator fast and the switching logic readable. A
//! faithful on-wire codec is provided in [`wire`] for round-trip
//! testing and for the OpenFlow `PacketIn`/`PacketOut` payloads, which
//! carry real bytes just as they do on a physical network.
//!
//! # Example
//!
//! ```rust
//! use livesec_net::prelude::*;
//!
//! let client = MacAddr::new([0, 0x16, 0x3e, 0, 0, 1]);
//! let gateway = MacAddr::new([0, 0x16, 0x3e, 0, 0xff, 0xff]);
//! let pkt = PacketBuilder::tcp(client, gateway)
//!     .ips("10.0.0.5".parse().unwrap(), "8.8.8.8".parse().unwrap())
//!     .ports(43211, 80)
//!     .payload_bytes(b"GET / HTTP/1.1\r\n".as_ref())
//!     .build();
//! let key = FlowKey::of(&pkt).expect("TCP packets always have a flow key");
//! assert_eq!(key.tp_dst, 80);
//!
//! // Round-trip through the on-wire codec.
//! let bytes = livesec_net::wire::serialize(&pkt);
//! let back = livesec_net::wire::parse(&bytes).unwrap();
//! assert_eq!(FlowKey::of(&back), Some(key));
//! ```

pub mod arp;
pub mod cursor;
pub mod dhcp;
pub mod ethernet;
pub mod flow;
pub mod icmp;
pub mod ip;
pub mod ipv4;
pub mod lldp;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use arp::{ArpOp, ArpPacket};
pub use cursor::{Cursor, Truncated};
pub use dhcp::{DhcpMessage, DhcpMsgType};
pub use ethernet::{EtherType, EthernetHeader, VlanTag};
pub use flow::{FlowKey, SessionKey};
pub use icmp::{IcmpMessage, IcmpType};
pub use ip::Ipv4Net;
pub use ipv4::{IpProto, Ipv4Header, Ipv4Packet, Transport};
pub use lldp::LldpFrame;
pub use mac::MacAddr;
pub use packet::{Body, Packet, PacketBuilder, Payload};
pub use pcap::{read_pcap, write_pcap, CapturedFrame};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

/// The hasher state of every hash container in the workspace
/// (DESIGN.md §6): SipHash with fixed keys. `std`'s default
/// `RandomState` keys each map instance differently, which leaves
/// lookups correct but lets hash order decide iteration order and when
/// a table rehashes in place or grows — and both the history and the
/// program's allocation sequence are part of its deterministic surface.
pub type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// The workspace's only `HashMap`: `std`'s, on [`FixedState`].
/// `clippy.toml` disallows `std::collections::HashMap` everywhere
/// else, and the alias has no `new`/`with_capacity`/`from` (those exist
/// only for `RandomState`), so an unseeded map cannot be written.
/// Construct with `HashMap::default()`.
#[allow(
    clippy::disallowed_types,
    reason = "the one place the std map is named"
)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// The workspace's only `HashSet`: `std`'s, on [`FixedState`]; see
/// [`HashMap`].
#[allow(
    clippy::disallowed_types,
    reason = "the one place the std set is named"
)]
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// Convenient glob-import surface: `use livesec_net::prelude::*;`.
pub mod prelude {
    pub use crate::arp::{ArpOp, ArpPacket};
    pub use crate::dhcp::{DhcpMessage, DhcpMsgType};
    pub use crate::ethernet::{EtherType, EthernetHeader, VlanTag};
    pub use crate::flow::{FlowKey, SessionKey};
    pub use crate::icmp::{IcmpMessage, IcmpType};
    pub use crate::ip::Ipv4Net;
    pub use crate::ipv4::{IpProto, Ipv4Header, Ipv4Packet, Transport};
    pub use crate::lldp::LldpFrame;
    pub use crate::mac::MacAddr;
    pub use crate::packet::{Body, Packet, PacketBuilder, Payload};
    pub use crate::pcap::{read_pcap, write_pcap, CapturedFrame};
    pub use crate::tcp::{TcpFlags, TcpSegment};
    pub use crate::udp::UdpDatagram;
    pub use std::net::Ipv4Addr;
}
