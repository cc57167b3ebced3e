//! IPv4 prefix (CIDR) utilities.
//!
//! The standard library's [`std::net::Ipv4Addr`] is used for addresses;
//! this module adds the prefix type needed for work-zone policies and
//! the controller's directory proxy.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 network in CIDR notation, e.g. `10.1.0.0/16`.
///
/// ```rust
/// use livesec_net::Ipv4Net;
/// let net: Ipv4Net = "10.1.0.0/16".parse().unwrap();
/// assert!(net.contains("10.1.200.3".parse().unwrap()));
/// assert!(!net.contains("10.2.0.1".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Creates a network from a base address and prefix length.
    ///
    /// The host bits of `addr` are masked off, so
    /// `Ipv4Net::new(10.1.2.3, 16)` is the network `10.1.0.0/16`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} out of range");
        let masked = u32::from(addr) & Self::mask_bits(prefix_len);
        Ipv4Net {
            addr: Ipv4Addr::from(masked),
            prefix_len,
        }
    }

    /// The /32 network containing exactly `addr`.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Net::new(addr, 32)
    }

    /// The /0 network containing every address.
    pub fn any() -> Self {
        Ipv4Net::new(Ipv4Addr::UNSPECIFIED, 0)
    }

    /// The (masked) network base address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Returns `true` if `ip` falls inside this network.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == u32::from(self.addr)
    }

    /// Returns `true` if every address of `other` is also in `self`.
    pub fn contains_net(&self, other: &Ipv4Net) -> bool {
        self.prefix_len <= other.prefix_len && self.contains(other.addr)
    }

    /// Returns the `i`-th host address within the network (0-based from
    /// the network address). Useful for deterministic address assignment
    /// in simulations.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in the host part.
    pub fn nth(&self, i: u32) -> Ipv4Addr {
        let host_bits = 32 - self.prefix_len as u32;
        assert!(
            host_bits == 32 || u64::from(i) < (1u64 << host_bits),
            "host index {i} out of range for /{}",
            self.prefix_len
        );
        Ipv4Addr::from(u32::from(self.addr) | i)
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

impl fmt::Debug for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4Net({self})")
    }
}

/// Error returned when parsing a malformed CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetError {
    input: String,
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseNetError {}

impl FromStr for Ipv4Net {
    type Err = ParseNetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseNetError {
            input: s.to_owned(),
        };
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| err())?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        Ok(Ipv4Net::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_host_bits() {
        let net = Ipv4Net::new("10.1.2.3".parse().unwrap(), 16);
        assert_eq!(net.addr(), "10.1.0.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(net.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn contains_boundaries() {
        let net: Ipv4Net = "192.168.4.0/22".parse().unwrap();
        assert!(net.contains("192.168.4.0".parse().unwrap()));
        assert!(net.contains("192.168.7.255".parse().unwrap()));
        assert!(!net.contains("192.168.8.0".parse().unwrap()));
        assert!(!net.contains("192.168.3.255".parse().unwrap()));
    }

    #[test]
    fn zero_prefix_contains_everything() {
        let any = Ipv4Net::any();
        assert!(any.contains("0.0.0.0".parse().unwrap()));
        assert!(any.contains("255.255.255.255".parse().unwrap()));
    }

    #[test]
    fn host_net_is_exact() {
        let h = Ipv4Net::host("10.0.0.7".parse().unwrap());
        assert!(h.contains("10.0.0.7".parse().unwrap()));
        assert!(!h.contains("10.0.0.8".parse().unwrap()));
    }

    #[test]
    fn net_containment() {
        let big: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let small: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        assert!(big.contains_net(&small));
        assert!(!small.contains_net(&big));
        assert!(big.contains_net(&big));
    }

    #[test]
    fn nth_addresses() {
        let net: Ipv4Net = "10.0.0.0/24".parse().unwrap();
        assert_eq!(net.nth(0), "10.0.0.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(net.nth(42), "10.0.0.42".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_out_of_range_panics() {
        let net: Ipv4Net = "10.0.0.0/24".parse().unwrap();
        let _ = net.nth(256);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("banana/8".parse::<Ipv4Net>().is_err());
    }
}
