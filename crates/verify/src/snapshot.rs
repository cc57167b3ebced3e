//! The verifier's input: a point-in-time copy of every switch's flow
//! table plus the controller state the invariants are judged against.
//!
//! A [`Snapshot`] is plain data — taking one borrows nothing, so the
//! audit can run while the simulation is paused between events, or on
//! state deserialized from somewhere else entirely.

use livesec::deploy::Campus;
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{FlowEntry, Match};
use livesec_services::ServiceType;
use livesec_switch::AsSwitch;
use std::net::Ipv4Addr;

/// One switch's contribution: identity, topology role, and the flow
/// table in install order (the order that decides equal-priority
/// ties).
#[derive(Clone, Debug, Default)]
pub struct SwitchState {
    /// Datapath id.
    pub dpid: u64,
    /// The legacy-fabric-facing port, when discovered.
    pub uplink: Option<u32>,
    /// Physical port count (ports are numbered from 1).
    pub n_ports: u32,
    /// Live flow entries, oldest installation first.
    pub entries: Vec<FlowEntry>,
    /// Whether the switch is in a degraded (controller-less) mode.
    pub degraded: bool,
}

/// A located endpoint (user, gateway, or service element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// The endpoint's MAC.
    pub mac: MacAddr,
    /// The endpoint's IP.
    pub ip: Ipv4Addr,
    /// The AS switch it attaches to.
    pub dpid: u64,
    /// The port on that switch.
    pub port: u32,
}

/// One active flow as the controller records it.
#[derive(Clone, Debug)]
pub struct FlowView {
    /// The flow's key.
    pub key: FlowKey,
    /// The service chain policy assigned it (empty = plain allow).
    pub chain: Vec<ServiceType>,
    /// Whether an attack verdict blocked it.
    pub blocked: bool,
}

/// One control-plane shard's contribution to a merged snapshot:
/// identity, liveness, and the switches the consistent-hash ring
/// currently assigns to it.
#[derive(Clone, Debug)]
pub struct ShardView {
    /// The shard id.
    pub id: u32,
    /// Whether the shard is alive (dead shards own nothing).
    pub alive: bool,
    /// Dpids of the registered switches this shard owns, ascending.
    pub owned: Vec<u64>,
}

/// Everything the invariants are judged against.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All switches, sorted by dpid.
    pub switches: Vec<SwitchState>,
    /// All located endpoints (includes service elements).
    pub hosts: Vec<HostInfo>,
    /// Service elements by MAC, with their advertised type.
    pub elements: Vec<(MacAddr, ServiceType)>,
    /// The standing block registry: `(dpid, matcher)` drop state.
    pub blocks: Vec<(u64, Match)>,
    /// Active flow records.
    pub flows: Vec<FlowView>,
    /// The flow key of every standing fast-pass record, in the
    /// flow's original direction.
    pub fastpasses: Vec<FlowKey>,
    /// On a sharded campus, the per-shard views this merged snapshot
    /// was assembled from (the shared NIB means the switch tables,
    /// hosts and flows above are already the union). Empty when the
    /// controller is unsharded.
    pub shards: Vec<ShardView>,
    /// Dpids the accountability layer has quarantined: deviating
    /// switches evicted from the control plane whose tables were
    /// wiped. They still exist in the dataplane (and so appear in
    /// `switches`), but no controller state may reference them.
    pub quarantined: Vec<u64>,
}

impl Snapshot {
    /// Captures a snapshot of a running [`Campus`]: each AS switch's
    /// flow table plus the controller's policy-relevant state.
    pub fn of_campus(c: &Campus) -> Snapshot {
        let now = c.world.kernel().now();
        let ctl = c.controller();
        let nib = ctl.nib_snapshot(now);

        let mut switches: Vec<SwitchState> = c
            .as_switches
            .iter()
            .map(|&node| {
                let sw = c.world.node::<AsSwitch>(node);
                let dpid = sw.datapath_id();
                SwitchState {
                    dpid,
                    uplink: ctl.topology().uplink_of(dpid),
                    n_ports: sw.n_ports(),
                    entries: sw.table_snapshot(),
                    degraded: sw.is_degraded(),
                }
            })
            .collect();
        switches.sort_by_key(|s| s.dpid);

        let hosts = nib
            .hosts
            .iter()
            .map(|&(mac, ip, dpid, port)| HostInfo {
                mac,
                ip,
                dpid,
                port,
            })
            .collect();
        let elements = nib.elements.iter().map(|e| (e.mac, e.service)).collect();
        let flows = ctl
            .active_records()
            .into_iter()
            .map(|(key, chain, blocked)| FlowView {
                key,
                chain,
                blocked,
            })
            .collect();

        let shards = c
            .shard_plane()
            .map(|plane| {
                plane
                    .shard_stats()
                    .into_iter()
                    .map(|s| ShardView {
                        id: s.id,
                        alive: s.alive,
                        owned: s.owned,
                    })
                    .collect()
            })
            .unwrap_or_default();

        Snapshot {
            switches,
            hosts,
            elements,
            blocks: ctl.standing_blocks(),
            flows,
            fastpasses: ctl.fastpass_records(),
            shards,
            quarantined: ctl.quarantined(),
        }
    }

    /// The switch state for a dpid.
    pub fn switch(&self, dpid: u64) -> Option<&SwitchState> {
        self.switches.iter().find(|s| s.dpid == dpid)
    }

    /// The attachment point of a MAC, if located.
    pub fn host_of(&self, mac: MacAddr) -> Option<&HostInfo> {
        self.hosts.iter().find(|h| h.mac == mac)
    }

    /// The service type of an element MAC, if it is one.
    pub fn element_type(&self, mac: MacAddr) -> Option<ServiceType> {
        self.elements
            .iter()
            .find(|(m, _)| *m == mac)
            .map(|(_, t)| *t)
    }

    /// Total installed entries across all switches.
    pub fn entry_count(&self) -> usize {
        self.switches.iter().map(|s| s.entries.len()).sum()
    }
}
