//! The one byte reader every wire decoder shares.
//!
//! `net::wire`, `net::dhcp`, `net::pcap`, `openflow::codec` and
//! `services::msg` all decode bytes an end host or a switch chose. A
//! [`Cursor`] is the only place they touch those bytes: every read is
//! bounds-checked against what is left, a short read is [`Truncated`],
//! and nothing here indexes, allocates or panics. Each format maps
//! [`Truncated`] into its own error type (`ParseError`, `CodecError`,
//! `PcapError`, or `None`).

#![warn(clippy::indexing_slicing)]

use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// A read ran past the end of the buffer. Each format converts it into
/// its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// A forward-only reader over a byte slice. Every read returns
/// [`Truncated`] when fewer bytes remain than it needs, and then
/// consumes nothing. Multi-byte integers are big-endian (network
/// order); a little-endian format reads an [`array`](Cursor::array)
/// and converts it itself.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes. The check is `n > remaining`, so a
    /// wire-claimed `n` near `usize::MAX` cannot wrap past it.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.remaining() {
            return Err(Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Everything not yet read; the cursor ends empty.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, tail) = self.rest.split_first_chunk::<N>().ok_or(Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// The next big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// The next 6 bytes as a MAC address.
    pub fn mac(&mut self) -> Result<MacAddr, Truncated> {
        Ok(MacAddr::new(self.array()?))
    }

    /// The next 4 bytes as an IPv4 address.
    pub fn ipv4(&mut self) -> Result<Ipv4Addr, Truncated> {
        Ok(Ipv4Addr::from(self.array::<4>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order_and_stops_at_the_end() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 9];
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u16(), Ok(2));
        assert_eq!(c.u32(), Ok(3));
        assert_eq!(c.remaining(), 1);
        assert_eq!(c.u16(), Err(Truncated));
        assert_eq!(c.remaining(), 1, "a short read consumes nothing");
        assert_eq!(c.rest(), &[9]);
        assert_eq!(c.u8(), Err(Truncated));
    }

    #[test]
    fn a_huge_claimed_length_is_truncated_not_wrapped() {
        let bytes = [0u8; 4];
        let mut c = Cursor::new(&bytes);
        c.u8().unwrap();
        assert_eq!(c.take(usize::MAX), Err(Truncated));
        assert_eq!(c.take(4), Err(Truncated));
        assert_eq!(c.take(3).map(<[u8]>::len), Ok(3));
    }
}
