//! Identifiers for simulation entities.

use std::fmt;

/// Identifies a node (switch, host, service element, controller) in a
/// [`crate::World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a raw index previously obtained via
    /// [`NodeId::index`]. Passing an index not issued by the same world
    /// yields an id that simply doesn't resolve.
    pub const fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A port number local to a node. Port numbering is the node's own
/// business; switches conventionally start at 1, matching OpenFlow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u32);

impl PortId {
    /// The raw port number.
    pub const fn number(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PortId {
    fn from(v: u32) -> Self {
        PortId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_index_roundtrip() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn port_id_display() {
        assert_eq!(PortId(3).to_string(), "p3");
        assert_eq!(PortId::from(9).number(), 9);
    }
}
