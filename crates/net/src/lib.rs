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
/// (DESIGN.md §6): [`FixedHasher`], which has no key at all. `std`'s
/// default `RandomState` keys each map instance differently, which
/// leaves lookups correct but lets hash order decide iteration order
/// and when a table rehashes in place or grows — and both the history
/// and the program's allocation sequence are part of its deterministic
/// surface.
pub type FixedState = std::hash::BuildHasherDefault<FixedHasher>;

/// A keyless multiplicative hasher (FxHash's word step): each input
/// word is added to the state, which is then multiplied by an odd
/// constant. A product's low bits depend only on its factors' low
/// bits, and the hash tables use a hash's low bits as the bucket
/// index, so a field that varies only in a word's high bits (a MAC
/// address's last octets) would never reach it. Its
/// [`finish`](std::hash::Hasher::finish) therefore folds the state's
/// full 128-bit product with the constant onto itself, high half into
/// low: every bit of every input word reaches the bucket index. Not
/// collision-resistant against chosen keys; the simulator's keys are
/// its own.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher {
    hash: u64,
}

impl FixedHasher {
    /// The multiplier (rustc-hash's): odd, with its bits spread evenly.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl std::hash::Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.add(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(Self::K);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey {
            vlan: Some(7),
            dl_src: MacAddr::from_u64(0x0216_3e00_0001),
            dl_dst: MacAddr::from_u64(0x0216_3e00_ffff),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::new(10, 0, 0, 5),
            nw_dst: Ipv4Addr::new(10, 1, 2, 3),
            nw_proto: 6,
            tp_src: 43_211,
            tp_dst: 80,
        }
    }

    /// The hash is part of the deterministic surface: the same key
    /// hashes the same on every build and every run.
    #[test]
    fn a_flow_keys_hash_is_pinned() {
        assert_eq!(
            FixedState::default().hash_one(key()),
            8_276_438_988_183_950_483
        );
    }

    /// How many of `keys` land in distinct buckets of a 2^16-bucket
    /// table indexed by the hash's low bits, as a share of what a
    /// uniformly random hash would fill on average.
    fn bucket_fill(keys: impl Iterator<Item = FlowKey>) -> f64 {
        const BUCKETS: f64 = 65_536.0;
        let state = FixedState::default();
        let mut hit = vec![false; 1 << 16];
        let mut n = 0;
        for k in keys {
            hit[(state.hash_one(k) & 0xffff) as usize] = true;
            n += 1;
        }
        let distinct = hit.iter().filter(|h| **h).count() as f64;
        let random = BUCKETS * (1.0 - (1.0 - 1.0 / BUCKETS).powi(n));
        distinct / random
    }

    /// Keys that differ in one field only — a client's ephemeral
    /// ports, a subnet's hosts, a switch's MAC addresses — spread over
    /// the bucket index like random keys: at least 90 % of the buckets
    /// a random hash would fill. The MAC and last-octet cases vary only
    /// the high bits of the word they are hashed in.
    #[test]
    fn keys_differing_in_one_field_fill_distinct_buckets() {
        let fill = |field: &str, keys: Vec<FlowKey>| {
            let fill = bucket_fill(keys.into_iter());
            assert!(fill >= 0.9, "{field}: {fill}");
        };
        let all = 0..=u16::MAX;
        fill(
            "tp_src",
            all.clone()
                .map(|tp_src| FlowKey { tp_src, ..key() })
                .collect(),
        );
        let [a, b, c, d] = key().nw_src.octets();
        fill(
            "nw_src's high octets",
            all.clone()
                .map(|i| {
                    let [x, y] = i.to_be_bytes();
                    FlowKey {
                        nw_src: Ipv4Addr::new(x, y, c, d),
                        ..key()
                    }
                })
                .collect(),
        );
        fill(
            "nw_src's high octet",
            (0..=u8::MAX)
                .map(|x| FlowKey {
                    nw_src: Ipv4Addr::new(x, b, c, d),
                    ..key()
                })
                .collect(),
        );
        fill(
            "nw_src's low octets",
            all.clone()
                .map(|i| {
                    let [y, z] = i.to_be_bytes();
                    FlowKey {
                        nw_src: Ipv4Addr::new(a, b, y, z),
                        ..key()
                    }
                })
                .collect(),
        );
        fill(
            "dl_src's low octets",
            all.map(|i| FlowKey {
                dl_src: MacAddr::from_u64(0x0216_3e00_0000 | u64::from(i)),
                ..key()
            })
            .collect(),
        );
    }
}
