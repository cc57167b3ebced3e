#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! A deterministic discrete-event network simulator.
//!
//! This crate is the substrate on which the LiveSec reproduction runs:
//! it stands in for the physical FIT-building network of the paper
//! (Open vSwitch servers, Gigabit Ethernet core, OpenWrt Wi-Fi APs).
//!
//! Design points:
//!
//! * **Deterministic.** Single-threaded event loop over a binary heap
//!   keyed by `(time, sequence)`; all randomness flows from one seeded
//!   [`rand::rngs::StdRng`]. The same seed always reproduces the same
//!   run, event for event.
//! * **Integer time.** [`SimTime`]/[`SimDuration`] count nanoseconds in
//!   `u64`, so there is no floating-point drift in the schedule.
//! * **Realistic links.** Each [`LinkSpec`] models transmission rate,
//!   propagation delay and a bounded FIFO egress queue with tail drop —
//!   the three properties the paper's throughput, latency and
//!   load-balance experiments depend on.
//! * **Out-of-band control channel.** [`Ctx::send_control`] models the
//!   OpenFlow secure channel between switches and the controller with
//!   its own latency, independent of the data plane. A delivered
//!   message's buffer is kept for the next sender
//!   ([`Ctx::control_buf`]), so a message that fits a recycled buffer
//!   allocates nothing.
//!
//! # Example
//!
//! ```rust
//! use livesec_sim::prelude::*;
//!
//! let mut world = World::new(42);
//! // ... add nodes, connect links ...
//! let stats = world.run_for(SimDuration::from_secs(1));
//! assert_eq!(stats.end, SimTime::from_nanos(1_000_000_000));
//! ```

pub mod fault;
pub mod ids;
pub mod link;
pub mod metrics;
pub mod node;
pub mod tap;
pub mod time;
pub mod world;

pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use ids::{NodeId, PortId};
pub use link::LinkSpec;
pub use metrics::LatencySummary;
pub use node::{Ctx, Node};
pub use tap::Tap;
pub use time::{SimDuration, SimTime};
pub use world::{Kernel, PortCounters, RunStats, World};

/// Convenient glob-import surface: `use livesec_sim::prelude::*;`.
pub mod prelude {
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
    pub use crate::ids::{NodeId, PortId};
    pub use crate::link::LinkSpec;
    pub use crate::metrics::LatencySummary;
    pub use crate::node::{Ctx, Node};
    pub use crate::tap::Tap;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::{Kernel, PortCounters, RunStats, World};
}
