#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Synthetic traffic generators and campus scenarios.
//!
//! The paper's evaluation traffic — HTTP transfers, bulk UDP floods,
//! SSH sessions, BitTorrent swarms, pings, and attack traffic — is not
//! available as traces, so this crate generates the closest synthetic
//! equivalents as [`livesec_switch::App`]s:
//!
//! * [`HttpClient`] / [`HttpServer`] — request/response transfers with
//!   configurable object sizes (the §V-B.1 HTTP throughput workload).
//! * [`UdpBlaster`] — constant-bit-rate UDP (the §V-B.1 access
//!   throughput workload).
//! * [`Pinger`] — periodic ICMP echo with RTT statistics (the §V-B.3
//!   latency workload).
//! * [`SshSession`] + [`TcpEchoServer`] — interactive keystroke
//!   traffic (the SSH user of Fig. 7).
//! * [`scenario::WebThenTorrent`] — a browsing user who turns to a
//!   BitTorrent handshake plus bulk piece exchange (the downloader of
//!   Fig. 8).
//! * [`AttackClient`] — web requests with embedded attack signatures
//!   (the malicious access of Fig. 8).
//! * [`SynFlood`] — half-open SYN probes from rotating source ports
//!   (the stateful firewall's flood-detection workload).
//! * [`DhcpClient`] — exercises the directory proxy's DHCP path.
//!
//! [`scenario`] assembles the paper's Fig. 6/7/8 campus from these
//! pieces.

pub mod apps;
pub mod scenario;

pub use apps::{
    AttackClient, DhcpClient, HttpClient, HttpServer, Pinger, SshSession, SynFlood, TcpEchoServer,
    UdpBlaster,
};
pub use scenario::{CampusScenario, ChaosConfig, ScenarioConfig};

/// Convenient glob-import surface: `use livesec_workloads::prelude::*;`.
pub mod prelude {
    pub use crate::apps::{
        AttackClient, DhcpClient, HttpClient, HttpServer, Pinger, SshSession, SynFlood,
        TcpEchoServer, UdpBlaster,
    };
    pub use crate::scenario::{CampusScenario, ChaosConfig, ScenarioConfig};
}
