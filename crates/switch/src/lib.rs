#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::indexing_slicing)]

//! Dataplane elements for the LiveSec reproduction.
//!
//! The paper's three-layer architecture maps onto this crate as
//! follows:
//!
//! * **Access-Switching layer** — [`AsSwitch`], a software OpenFlow
//!   switch (the model of Open vSwitch 1.1.0 and, with slower access
//!   links, the Pantou OF Wi-Fi APs). Each AS switch keeps a
//!   [`livesec_openflow::FlowTable`] and a secure channel to the
//!   controller node.
//! * **Legacy-Switching layer** — [`LearningSwitch`], a classic
//!   MAC-learning Ethernet switch with aging, plus [`stp`] for
//!   computing the blocked ports that keep redundant legacy
//!   topologies loop-free.
//! * **Network-Periphery layer** — [`Host`], an endpoint with an ARP
//!   resolver and a pluggable [`App`] (traffic generators live in
//!   `livesec-workloads`; service elements in `livesec-services`).

pub mod as_switch;
pub mod host;
pub mod learning;
pub mod stp;

pub use as_switch::AsSwitch;
pub use host::{App, Host, HostIo};
pub use learning::LearningSwitch;
pub use stp::{compute_spanning_tree, Topology};

/// Convenient glob-import surface: `use livesec_switch::prelude::*;`.
pub mod prelude {
    pub use crate::as_switch::AsSwitch;
    pub use crate::host::{App, Host, HostIo};
    pub use crate::learning::LearningSwitch;
    pub use crate::stp::{compute_spanning_tree, Topology};
}
