//! LLDP frames for controller topology discovery.
//!
//! The LiveSec controller floods LLDP probes out of every switch port;
//! when a probe sent from switch A port *i* is reported back (via
//! packet-in) by switch B port *j*, the controller learns the logical
//! link A.i ↔ B.j (paper §III-C.1). Only the two TLVs needed for that
//! are modeled: chassis id (the datapath id) and port id.

/// A minimal LLDP frame: chassis id + port id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LldpFrame {
    /// The emitting switch's datapath id (chassis-id TLV).
    pub chassis_id: u64,
    /// The emitting port number (port-id TLV).
    pub port_id: u32,
}

impl LldpFrame {
    /// On-wire length of this frame body (chassis-id TLV + port-id TLV
    /// + TTL TLV + end TLV, as a minimal LLDPDU).
    pub const WIRE_LEN: usize = 24;

    /// Creates a discovery probe.
    pub fn new(chassis_id: u64, port_id: u32) -> Self {
        LldpFrame {
            chassis_id,
            port_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carries_origin() {
        let f = LldpFrame::new(42, 7);
        assert_eq!(f.chassis_id, 42);
        assert_eq!(f.port_id, 7);
    }
}
