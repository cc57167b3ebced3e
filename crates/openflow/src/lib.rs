#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

//! An OpenFlow-1.0-style protocol subset.
//!
//! LiveSec's Access-Switching layer is built on OpenFlow 1.0 (Open
//! vSwitch 1.1.0 and NOX, per the paper). This crate implements the
//! protocol machinery the system needs, with OpenFlow 1.0 semantics:
//!
//! * [`Match`] — the twelve-field match structure (physical in-port
//!   plus the paper's "9-tuple" header fields), with per-field
//!   wildcards and CIDR masks on the IP addresses.
//! * [`Action`] — output and header-rewrite actions. Destination-MAC
//!   rewriting ([`Action::SetDlDst`]) is the mechanism LiveSec uses to
//!   steer flows through off-path service elements.
//! * [`FlowTable`] — a priority-ordered flow table with idle/hard
//!   timeouts and per-entry counters, with a hash fast-path for
//!   fully-exact entries.
//! * [`OfMessage`] — the controller/switch message set (hello, echo,
//!   features, packet-in/out, flow-mod, flow-removed, port-status,
//!   stats, barrier) with a compact binary wire codec in [`codec`].
//!
//! The wire format is *OpenFlow-1.0-shaped* (fixed 8-byte header with
//! version/type/length/xid, binary big-endian bodies) but not
//! bit-compatible with the IETF spec; the simulator is both ends of
//! every channel, so fidelity of semantics matters, not byte layout.
//!
//! # Example
//!
//! ```rust
//! use livesec_openflow::prelude::*;
//! use livesec_net::prelude::*;
//!
//! // Steer a flow to a service element by rewriting its dst MAC.
//! let se_mac = MacAddr::from_u64(0xfe);
//! let mut table = FlowTable::new();
//! let key = FlowKey {
//!     vlan: None,
//!     dl_src: MacAddr::from_u64(1),
//!     dl_dst: MacAddr::from_u64(2),
//!     dl_type: 0x0800,
//!     nw_src: "10.0.0.1".parse().unwrap(),
//!     nw_dst: "10.0.0.2".parse().unwrap(),
//!     nw_proto: 6,
//!     tp_src: 555,
//!     tp_dst: 80,
//! };
//! table.insert(FlowEntry::new(
//!     Match::exact(1, &key),
//!     vec![Action::SetDlDst(se_mac), Action::Output(OutPort::Physical(4))],
//!     100,
//! ));
//! let hit = table.lookup(1, &key, 0).expect("installed above");
//! assert_eq!(hit.actions[0], Action::SetDlDst(se_mac));
//! ```

pub mod action;
pub mod channel;
pub mod codec;
pub mod flow_match;
pub mod header_space;
pub mod message;
pub mod table;

pub use action::{apply_actions, apply_actions_owned, Action, ActionOutcome, OutPort};
pub use channel::{ChannelError, SwitchChannel};
pub use codec::{decode, encode, CodecError};
pub use flow_match::{lookup_key, Match, VlanMatch};
pub use header_space::{HeaderClass, MatchSet};
pub use message::{
    attestation_tag, packet_tag, FlowModCommand, FlowRemovedReason, FlowStats,
    ForwardingAttestation, OfMessage, PacketInReason, PortStats, PortStatusReason, StatsBody,
    StatsRequestKind,
};
pub use table::{FlowEntry, FlowTable, InsertOutcome, RemovedEntry};

/// Convenient glob-import surface: `use livesec_openflow::prelude::*;`.
pub mod prelude {
    pub use crate::action::{apply_actions, apply_actions_owned, Action, ActionOutcome, OutPort};
    pub use crate::channel::{ChannelError, SwitchChannel};
    pub use crate::codec::{decode, encode, CodecError};
    pub use crate::flow_match::{lookup_key, Match, VlanMatch};
    pub use crate::header_space::{HeaderClass, MatchSet};
    pub use crate::message::{
        attestation_tag, packet_tag, FlowModCommand, FlowRemovedReason, FlowStats,
        ForwardingAttestation, OfMessage, PacketInReason, PortStats, PortStatusReason, StatsBody,
        StatsRequestKind,
    };
    pub use crate::table::{FlowEntry, FlowTable, InsertOutcome, RemovedEntry};
}
