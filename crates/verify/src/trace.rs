//! Concrete forwarding traces over a [`Snapshot`].
//!
//! The verifier reasons per equivalence class of headers but *traces*
//! one concrete representative: inject a witness packet at an ingress
//! port and replay exactly what the flow tables would do to it. What a
//! switch does is `livesec_openflow`'s own code: it looks up only the
//! EtherTypes [`is_lookup_type`] accepts, [`winner`] picks the entry,
//! and [`apply_actions_to_key`] walks its actions. An output on the
//! uplink crosses the legacy fabric to wherever the current
//! destination MAC is attached, and an output to a service element's
//! port re-enters the same switch on that port (the element reflects
//! admitted traffic back). The trace ends when the packet is
//! delivered, dropped, lost, fanned out, or provably looping.

use crate::snapshot::Snapshot;
use livesec::controller::{BLOCK_PRIORITY, DENY_COOKIE};
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{apply_actions_to_key, is_lookup_type, winner, OutPort};
use livesec_services::ServiceType;
use std::collections::BTreeSet;
use std::fmt;

/// Safety bound on trace length; no legitimate path in a campus of
/// `n` switches exceeds a handful of hops per chained element, so
/// hitting this bound is reported as a (pathological) loop.
const HOP_LIMIT: usize = 64;

/// How a trace ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEnd {
    /// The packet reached an endpoint's port.
    Delivered {
        /// Switch that delivered it.
        dpid: u64,
        /// Port it left on.
        port: u32,
        /// The endpoint attached there.
        mac: MacAddr,
    },
    /// A matching entry had an empty action list.
    Dropped {
        /// Switch that dropped it.
        dpid: u64,
        /// The dropping entry's cookie.
        cookie: u64,
        /// The dropping entry's priority.
        priority: u16,
    },
    /// No entry matched, or the switch does not look up this
    /// EtherType — it would packet-in to the controller (reactive
    /// setup, not forwarding).
    Miss {
        /// Switch with no matching entry.
        dpid: u64,
    },
    /// An entry explicitly sent the packet to the controller.
    ToController {
        /// Switch that punted.
        dpid: u64,
    },
    /// An entry flooded the packet or output it more than once: it
    /// reaches more than one port.
    Flooded {
        /// Switch that flooded.
        dpid: u64,
    },
    /// The packet left on the uplink but its destination MAC is not
    /// located anywhere — the legacy fabric has nowhere to learn it.
    FabricLost {
        /// The unlocated destination MAC.
        mac: MacAddr,
    },
    /// Output to a port with nothing attached.
    DeadEnd {
        /// Switch that emitted it.
        dpid: u64,
        /// The empty port.
        port: u32,
    },
    /// The packet revisited a `(switch, port, headers)` state — a
    /// forwarding loop (also reported when the hop bound trips).
    Loop {
        /// Switch where the repeat was detected.
        dpid: u64,
    },
}

impl TraceEnd {
    /// Whether this end is an administrative drop (block or deny
    /// entry) rather than a forwarding defect.
    pub fn is_admin_drop(&self) -> bool {
        matches!(self, TraceEnd::Dropped { cookie, priority, .. }
            if *priority == BLOCK_PRIORITY || *cookie == DENY_COOKIE)
    }
}

impl fmt::Display for TraceEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEnd::Delivered { dpid, port, mac } => {
                write!(f, "delivered to {mac} at dpid {dpid} port {port}")
            }
            TraceEnd::Dropped {
                dpid,
                cookie,
                priority,
            } => write!(
                f,
                "dropped at dpid {dpid} (cookie {cookie}, priority {priority})"
            ),
            TraceEnd::Miss { dpid } => write!(f, "table miss at dpid {dpid}"),
            TraceEnd::ToController { dpid } => write!(f, "sent to controller at dpid {dpid}"),
            TraceEnd::Flooded { dpid } => write!(f, "reaches more than one port at dpid {dpid}"),
            TraceEnd::FabricLost { mac } => {
                write!(f, "lost in legacy fabric (dst {mac} unlocated)")
            }
            TraceEnd::DeadEnd { dpid, port } => {
                write!(f, "dead end at dpid {dpid} port {port} (nothing attached)")
            }
            TraceEnd::Loop { dpid } => write!(f, "forwarding loop via dpid {dpid}"),
        }
    }
}

/// One step of a trace: the packet state entering a switch.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Switch the packet entered.
    pub dpid: u64,
    /// Port it entered on.
    pub in_port: u32,
    /// Headers on entry.
    pub key: FlowKey,
}

/// A full forwarding trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The switch entries the packet traversed, in order.
    pub steps: Vec<TraceStep>,
    /// How it ended.
    pub end: TraceEnd,
    /// Service elements traversed, in traversal order.
    pub traversed: Vec<(MacAddr, ServiceType)>,
}

impl Trace {
    /// The service types traversed, in order.
    pub fn traversed_types(&self) -> Vec<ServiceType> {
        self.traversed.iter().map(|(_, t)| *t).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            writeln!(
                f,
                "    dpid {} in_port {} :: {} -> {}",
                s.dpid, s.in_port, s.key.dl_src, s.key.dl_dst
            )?;
        }
        write!(f, "    => {}", self.end)
    }
}

/// Traces a concrete packet injected at `(dpid, in_port)` through the
/// snapshot's flow tables until it is delivered, dropped, or lost.
pub fn trace(snap: &Snapshot, dpid: u64, in_port: u32, key: FlowKey) -> Trace {
    let mut steps = Vec::new();
    let mut traversed = Vec::new();
    let mut visited = BTreeSet::new();

    let mut cur_dpid = dpid;
    let mut cur_port = in_port;
    let mut cur_key = key;

    let end = loop {
        if steps.len() >= HOP_LIMIT || !visited.insert((cur_dpid, cur_port, cur_key)) {
            break TraceEnd::Loop { dpid: cur_dpid };
        }
        steps.push(TraceStep {
            dpid: cur_dpid,
            in_port: cur_port,
            key: cur_key,
        });

        let Some(sw) = snap.switch(cur_dpid) else {
            break TraceEnd::FabricLost {
                mac: cur_key.dl_dst,
            };
        };
        let hit = winner(&sw.entries, cur_port, &cur_key);
        let Some(entry) = hit.filter(|_| is_lookup_type(cur_key.dl_type)) else {
            break TraceEnd::Miss { dpid: cur_dpid };
        };

        // The switch emits a copy at every output; the trace follows
        // a single one.
        let mut copies = 0;
        let mut out = None;
        apply_actions_to_key(cur_key, &entry.actions, |dest, key| {
            copies += 1;
            out = Some((dest, key));
        });
        let (dest, out_key) = match out {
            None => {
                break TraceEnd::Dropped {
                    dpid: cur_dpid,
                    cookie: entry.cookie,
                    priority: entry.priority,
                }
            }
            Some(_) if copies > 1 => break TraceEnd::Flooded { dpid: cur_dpid },
            Some(out) => out,
        };

        let port = match dest {
            OutPort::Physical(p) => p,
            OutPort::InPort => cur_port,
            OutPort::Controller => break TraceEnd::ToController { dpid: cur_dpid },
            OutPort::Flood => break TraceEnd::Flooded { dpid: cur_dpid },
        };

        if Some(port) == sw.uplink {
            // Into the legacy fabric: plain L2 delivers toward the
            // switch where the (possibly rewritten) destination MAC
            // attaches; the frame re-enters it on its uplink.
            let next = snap.host_of(out_key.dl_dst).and_then(|host| {
                let up = snap.switch(host.dpid)?.uplink?;
                Some((host.dpid, up))
            });
            let Some((next_dpid, next_up)) = next else {
                break TraceEnd::FabricLost {
                    mac: out_key.dl_dst,
                };
            };
            cur_dpid = next_dpid;
            cur_port = next_up;
            cur_key = out_key;
            continue;
        }

        // A periphery port: service element, endpoint, or nothing.
        let attached = snap
            .hosts
            .iter()
            .find(|h| h.dpid == cur_dpid && h.port == port);
        let Some(host) = attached else {
            break TraceEnd::DeadEnd {
                dpid: cur_dpid,
                port,
            };
        };
        let Some(service) = snap.element_type(host.mac) else {
            break TraceEnd::Delivered {
                dpid: cur_dpid,
                port,
                mac: host.mac,
            };
        };
        // The element inspects and reflects the frame unchanged; it
        // re-enters the same switch on the element's port.
        traversed.push((host.mac, service));
        cur_port = port;
        cur_key = out_key;
    };
    Trace {
        steps,
        end,
        traversed,
    }
}
