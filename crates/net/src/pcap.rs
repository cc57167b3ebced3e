//! Classic `pcap` capture export/import.
//!
//! The original deployment debugged with tcpdump on the OvS servers;
//! this module gives the simulator the same affordance: any sequence
//! of timestamped frames can be written as a standard little-endian
//! pcap byte stream (LINKTYPE_ETHERNET) and read back — or opened in
//! Wireshark.

#![warn(clippy::indexing_slicing)]

use crate::cursor::{Cursor, Truncated};
use crate::packet::Packet;
use crate::wire;
use std::fmt;

/// pcap magic, little-endian, microsecond timestamps.
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
const LINKTYPE: u32 = 1;

/// One captured frame: timestamp in nanoseconds plus the packet.
#[derive(Clone, Debug, PartialEq)]
pub struct CapturedFrame {
    /// Capture time, nanoseconds since the epoch of the capture.
    pub at_nanos: u64,
    /// The frame.
    pub packet: Packet,
}

/// Error returned when a buffer is not a readable pcap stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// Buffer shorter than its structure requires.
    Truncated,
    /// Unknown magic number.
    BadMagic(u32),
    /// Not an Ethernet capture.
    BadLinkType(u32),
    /// A frame's bytes did not parse.
    BadFrame(wire::ParseError),
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "unexpected end of capture"),
            PcapError::BadMagic(m) => write!(f, "unknown pcap magic 0x{m:08x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported link type {l}"),
            PcapError::BadFrame(e) => write!(f, "unreadable frame: {e}"),
        }
    }
}

impl From<Truncated> for PcapError {
    fn from(_: Truncated) -> Self {
        PcapError::Truncated
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::BadFrame(e) => Some(e),
            _ => None,
        }
    }
}

/// Serializes frames into a pcap byte stream.
pub fn write_pcap(frames: &[CapturedFrame]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + frames.len() * 64);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE.to_le_bytes());
    for frame in frames {
        let bytes = wire::serialize(&frame.packet);
        let secs = (frame.at_nanos / 1_000_000_000) as u32;
        let micros = ((frame.at_nanos % 1_000_000_000) / 1_000) as u32;
        out.extend_from_slice(&secs.to_le_bytes());
        out.extend_from_slice(&micros.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes()); // incl_len
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes()); // orig_len
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parses a pcap byte stream back into frames.
///
/// Timestamps come back at microsecond precision (the classic format's
/// resolution).
///
/// # Errors
///
/// Returns [`PcapError`] for malformed captures or frames.
pub fn read_pcap(bytes: &[u8]) -> Result<Vec<CapturedFrame>, PcapError> {
    fn u32le(r: &mut Cursor<'_>) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(r.array()?))
    }

    let mut r = Cursor::new(bytes);
    let magic = u32le(&mut r)?;
    if magic != MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    r.take(2 + 2 + 4 + 4 + 4)?; // version, thiszone, sigfigs, snaplen
    let linktype = u32le(&mut r)?;
    if linktype != LINKTYPE {
        return Err(PcapError::BadLinkType(linktype));
    }
    let mut frames = Vec::new();
    while r.remaining() > 0 {
        let secs = u32le(&mut r)?;
        let micros = u32le(&mut r)?;
        let incl = u32le(&mut r)? as usize;
        let _orig = u32le(&mut r)?;
        let data = r.take(incl)?;
        let packet = wire::parse(data).map_err(PcapError::BadFrame)?;
        frames.push(CapturedFrame {
            at_nanos: u64::from(secs).saturating_mul(1_000_000_000)
                + u64::from(micros).saturating_mul(1_000),
            packet,
        });
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::packet::PacketBuilder;

    fn frame(at_nanos: u64, port: u16) -> CapturedFrame {
        CapturedFrame {
            at_nanos,
            packet: PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
                .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                .ports(port, 80)
                .payload_bytes(b"GET / HTTP/1.1".as_ref())
                .build(),
        }
    }

    #[test]
    fn roundtrip_preserves_frames_and_times() {
        let frames = vec![
            frame(0, 1000),
            frame(1_234_567_000, 1001),
            frame(5_000_000_000, 1002),
        ];
        let bytes = write_pcap(&frames);
        let back = read_pcap(&bytes).unwrap();
        assert_eq!(back, frames, "microsecond-aligned frames round-trip");
    }

    #[test]
    fn sub_microsecond_times_truncate() {
        let frames = vec![frame(1_500, 1)];
        let back = read_pcap(&write_pcap(&frames)).unwrap();
        assert_eq!(back[0].at_nanos, 1_000, "classic pcap is µs-resolution");
    }

    #[test]
    fn header_is_wireshark_compatible() {
        let bytes = write_pcap(&[]);
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(&bytes[20..24], &1u32.to_le_bytes());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(read_pcap(&[]), Err(PcapError::Truncated));
        assert_eq!(
            read_pcap(&0xdead_beefu32.to_le_bytes()),
            Err(PcapError::BadMagic(0xdead_beef))
        );
        let mut bytes = write_pcap(&[frame(0, 1)]);
        bytes.truncate(bytes.len() - 3);
        assert_eq!(read_pcap(&bytes), Err(PcapError::Truncated));
    }
}
