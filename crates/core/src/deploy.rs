//! Deployment builder: assembles a FIT-building-style LiveSec testbed
//! (paper §V, Figure 6) on the simulator.
//!
//! The canonical shape: a legacy Gigabit core (star, or two-tier with
//! edge switches), `n` OpenFlow AS switches each uplinked into it,
//! optional OF Wi-Fi APs (AS switches with 43 Mbps access links),
//! wired users at 100 Mbps, VM-based service elements at 1 Gbps, one
//! Internet gateway, and the controller out-of-band.

use crate::controller::Controller;
use livesec_net::{Ipv4Net, MacAddr};
use livesec_services::{Inspector, ServiceElement};
use livesec_sim::{LinkSpec, NodeId, PortId, SimDuration, World};
use livesec_switch::{App, AsSwitch, Host, LearningSwitch};
use std::net::Ipv4Addr;

/// A do-nothing application: the host shell still answers ARP and
/// ICMP echo, which is all the Internet gateway and idle hosts need.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApp;

impl App for NullApp {}

/// Handle to a host added by the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserHandle {
    /// The simulator node id.
    pub node: NodeId,
    /// The host's MAC.
    pub mac: MacAddr,
    /// The host's IP.
    pub ip: Ipv4Addr,
    /// Index of the AS switch it attaches to.
    pub switch: usize,
    /// The access port it occupies on that switch.
    pub port: u32,
}

/// Handle to a service element added by the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeHandle {
    /// The simulator node id.
    pub node: NodeId,
    /// The element's MAC.
    pub mac: MacAddr,
    /// The element's IP.
    pub ip: Ipv4Addr,
    /// Index of the AS switch it attaches to.
    pub switch: usize,
    /// The access port it occupies on that switch.
    pub port: u32,
    /// The certificate token it presents (0 when certification is
    /// disabled).
    pub cert: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SwitchKind {
    Ovs,
    WifiAp,
}

/// The finished testbed.
pub struct Campus {
    /// The simulator world, ready to run.
    pub world: World,
    /// The controller node.
    pub controller: NodeId,
    /// AS switch nodes (OvS and Wi-Fi APs), by builder index.
    pub as_switches: Vec<NodeId>,
    /// Legacy core switch node(s).
    pub legacy: Vec<NodeId>,
    /// Users added via [`CampusBuilder::add_user`].
    pub users: Vec<UserHandle>,
    /// Service elements added via
    /// [`CampusBuilder::add_service_element`].
    pub ses: Vec<SeHandle>,
    /// The Internet gateway, if added.
    pub gateway: Option<UserHandle>,
    /// The local subnet.
    pub subnet: Ipv4Net,
    as_next_port: Vec<u32>,
    user_link: LinkSpec,
}

impl std::fmt::Debug for Campus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campus")
            .field("controller", &self.controller)
            .field("as_switches", &self.as_switches.len())
            .finish_non_exhaustive()
    }
}

impl Campus {
    /// Borrows the controller for inspection. On a sharded campus
    /// (built with [`CampusBuilder::with_shards`]) this is the plane's
    /// shared controller, so monitoring and NIB inspection look the
    /// same at every shard count.
    pub fn controller(&self) -> &Controller {
        match self.world.try_node::<Controller>(self.controller) {
            Some(c) => c,
            None => self
                .world
                .node::<crate::plane::ShardedControlPlane>(self.controller)
                .controller(),
        }
    }

    /// Mutably borrows the controller (e.g. to change policy mid-run).
    /// Works on both plain and sharded campuses; on a sharded one the
    /// edit propagates to every shard through the epoch tags.
    pub fn controller_mut(&mut self) -> &mut Controller {
        // Two lookups to satisfy the borrow checker: probe, then borrow.
        if self.world.try_node::<Controller>(self.controller).is_some() {
            return self.world.node_mut::<Controller>(self.controller);
        }
        self.world
            .node_mut::<crate::plane::ShardedControlPlane>(self.controller)
            .controller_mut()
    }

    /// The sharded control plane, if this campus was built with
    /// [`CampusBuilder::with_shards`].
    pub fn shard_plane(&self) -> Option<&crate::plane::ShardedControlPlane> {
        self.world
            .try_node::<crate::plane::ShardedControlPlane>(self.controller)
    }

    /// Mutable access to the sharded control plane, if any.
    pub fn shard_plane_mut(&mut self) -> Option<&mut crate::plane::ShardedControlPlane> {
        self.world
            .try_node_mut::<crate::plane::ShardedControlPlane>(self.controller)
    }

    /// Borrows an AS switch.
    pub fn switch(&self, idx: usize) -> &AsSwitch {
        assert!(idx < self.as_switches.len(), "no AS switch {idx}");
        self.world.node::<AsSwitch>(self.as_switches[idx])
    }

    /// Migrates a host to another AS switch mid-run without changing
    /// its addresses — the paper's user/VM mobility (§III-D): the old
    /// port goes down (evicting the stale location), the host re-plugs
    /// at the new switch and announces itself, and the controller's
    /// location discovery re-learns it.
    ///
    /// Returns the updated handle. The generic parameter is the host's
    /// app type (needed only to address the node).
    ///
    /// # Panics
    ///
    /// Panics if `to_switch` is out of range or out of access ports.
    pub fn migrate_user(&mut self, user: UserHandle, to_switch: usize) -> UserHandle {
        assert!(
            to_switch < self.as_switches.len(),
            "unknown switch {to_switch}"
        );
        // Unplug at the old switch and signal the port down.
        self.world.disconnect(user.node, PortId(1));
        self.world
            .node_mut::<AsSwitch>(self.as_switches[user.switch])
            .fail_port(user.port);
        // Plug into the new switch.
        let port = self.as_next_port[to_switch];
        assert!(port < AS_PORTS, "switch {to_switch} out of access ports");
        self.as_next_port[to_switch] += 1;
        self.world.connect(
            user.node,
            PortId(1),
            self.as_switches[to_switch],
            PortId(port),
            self.user_link,
        );
        // Gratuitous ARP on link-up, as a real machine would.
        let announce_at = self.world.kernel().now() + livesec_sim::SimDuration::from_millis(1);
        self.world
            .schedule_timer_at(user.node, announce_at, livesec_switch::host::ANNOUNCE_TOKEN);
        UserHandle {
            switch: to_switch,
            port,
            ..user
        }
    }
}

/// Builder for [`Campus`] testbeds.
///
/// ```rust
/// use livesec::deploy::{CampusBuilder, NullApp};
///
/// let mut b = CampusBuilder::new(42, 2);
/// let gw = b.add_gateway(0);
/// let user = b.add_user(1, NullApp);
/// assert_ne!(gw.mac, user.mac);
/// let mut campus = b.finish();
/// campus.world.run_for(livesec_sim::SimDuration::from_millis(10));
/// ```
pub struct CampusBuilder {
    world: World,
    controller: NodeId,
    legacy: Vec<NodeId>,
    legacy_next_port: Vec<u32>,
    as_switches: Vec<NodeId>,
    as_kind: Vec<SwitchKind>,
    as_next_port: Vec<u32>,
    users: Vec<UserHandle>,
    ses: Vec<SeHandle>,
    gateway: Option<UserHandle>,
    next_mac: u64,
    next_host_index: u32,
    subnet: Ipv4Net,
    gateway_ip: Ipv4Addr,
    certification: bool,
    user_link: LinkSpec,
    se_link: LinkSpec,
    gateway_link: LinkSpec,
    uplink: LinkSpec,
    next_edge: usize,
    shards: Option<u32>,
    attest_every: u64,
}

/// Ports per AS switch: 1 uplink + up to 39 access ports (enough for
/// the paper's 20 VMs plus users).
const AS_PORTS: u32 = 40;

impl std::fmt::Debug for CampusBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampusBuilder")
            .field("as_switches", &self.as_switches.len())
            .field("legacy", &self.legacy.len())
            .finish_non_exhaustive()
    }
}

impl CampusBuilder {
    /// Starts a campus with `n_ovs` AS switches uplinked into a single
    /// legacy core star. The controller is created immediately;
    /// configure it via [`CampusBuilder::configure_controller`].
    pub fn new(seed: u64, n_ovs: usize) -> Self {
        Self::with_legacy_tiers(seed, n_ovs, 0)
    }

    /// Starts a campus whose legacy layer is two-tier: a 10 Gbps core
    /// star over `n_edge` edge switches, with AS switches spread over
    /// the edges round-robin (the FIT building's per-storey secondary
    /// switches). `n_edge == 0` collapses to the single-star layout.
    pub fn with_legacy_tiers(seed: u64, n_ovs: usize, n_edge: usize) -> Self {
        Self::with_legacy_tiers_uplink(seed, n_ovs, n_edge, LinkSpec::gigabit())
    }

    /// Starts a campus whose legacy layer is **redundant**: a core
    /// star over `n_edge` edge switches *plus* a ring among the edges,
    /// so the physical topology has loops. The spanning tree that STP
    /// would converge to is computed offline
    /// ([`livesec_switch::stp`]) and the blocked ports applied, so the
    /// Access-Switching layer sees a loop-free fabric — the paper's
    /// §III-C.1 guarantee that redundant physical links never affect
    /// the abstract two-hop routing.
    ///
    /// # Panics
    ///
    /// Panics if `n_edge < 2` (no redundancy to speak of).
    pub fn with_redundant_legacy(seed: u64, n_ovs: usize, n_edge: usize) -> Self {
        assert!(n_edge >= 2, "redundancy needs at least two edges");
        let mut b = Self::with_legacy_tiers(seed, n_ovs, n_edge);
        // Close the ring among the edges: edge_i.2' <-> edge_{i+1}.3'.
        // Edge port numbering: port 1 faces the core; AS uplinks start
        // at 2 and grow upward, so ring ports are taken from the top
        // of the range to avoid collisions.
        let mut topo = livesec_switch::Topology::new();
        // Record the existing core<->edge links (core port = 1 + i).
        for i in 0..n_edge {
            topo.add_link(0, (1 + i) as u32, (1 + i) as u64, 1);
        }
        // Each edge reserves its two highest port numbers for the ring
        // (within the switch's flood range, so an absent spanning tree
        // really would loop broadcasts).
        let core_ports = (n_ovs + n_edge + 16) as u32;
        let (right, left) = (core_ports - 2, core_ports - 1);
        for i in 0..n_edge {
            let j = (i + 1) % n_edge;
            if n_edge == 2 && i == 1 {
                break; // a 2-ring is a single parallel link, added once
            }
            b.world.connect(
                b.legacy[1 + i],
                PortId(right),
                b.legacy[1 + j],
                PortId(left),
                LinkSpec::ten_gigabit(),
            );
            topo.add_link((1 + i) as u64, right, (1 + j) as u64, left);
        }
        // Apply the converged spanning tree: block the redundant ports.
        for (sw, port) in livesec_switch::compute_spanning_tree(&topo) {
            b.world
                .node_mut::<LearningSwitch>(b.legacy[sw as usize])
                .block_port(port);
        }
        b
    }

    /// Like [`CampusBuilder::with_legacy_tiers`] with an explicit AS
    /// uplink link spec. Throughput experiments use this to give
    /// uplinks buffers sized for many objects in flight.
    pub fn with_legacy_tiers_uplink(
        seed: u64,
        n_ovs: usize,
        n_edge: usize,
        uplink: LinkSpec,
    ) -> Self {
        let mut world = World::new(seed);
        world.set_control_latency(SimDuration::from_micros(100));
        let controller = world.add_node(Controller::new());

        let mut legacy = Vec::new();
        let mut legacy_next_port = Vec::new();
        // Core switch: index 0.
        let core_ports = (n_ovs + n_edge + 16) as u32;
        legacy.push(world.add_node(LearningSwitch::new(core_ports)));
        legacy_next_port.push(1);
        for _ in 0..n_edge {
            let edge = world.add_node(LearningSwitch::new(core_ports));
            let core_port = legacy_next_port[0];
            legacy_next_port[0] += 1;
            world.connect(
                legacy[0],
                PortId(core_port),
                edge,
                PortId(1),
                LinkSpec::ten_gigabit(),
            );
            legacy.push(edge);
            legacy_next_port.push(2); // port 1 is the core-facing port
        }

        let mut builder = CampusBuilder {
            world,
            controller,
            legacy,
            legacy_next_port,
            as_switches: Vec::new(),
            as_kind: Vec::new(),
            as_next_port: Vec::new(),
            users: Vec::new(),
            ses: Vec::new(),
            gateway: None,
            next_mac: 0x0016_3e00_0001,
            next_host_index: 256, // leave 10.0.0.x for infrastructure
            subnet: Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), 16),
            gateway_ip: Ipv4Addr::new(10, 0, 255, 254),
            certification: false,
            user_link: LinkSpec::fast_ethernet(),
            se_link: LinkSpec::gigabit(),
            gateway_link: LinkSpec::gigabit(),
            uplink,
            next_edge: 0,
            shards: None,
            attest_every: 0,
        };
        for _ in 0..n_ovs {
            builder.add_as_switch(SwitchKind::Ovs);
        }
        builder
    }

    /// Applies `f` to the controller before the run (set policy,
    /// balancer, timeouts, …).
    pub fn configure_controller(mut self, f: impl FnOnce(&mut Controller)) -> Self {
        f(self.world.node_mut::<Controller>(self.controller));
        self
    }

    /// Replaces the controller's policy table.
    pub fn with_policy(self, policy: crate::policy::PolicyTable) -> Self {
        self.configure_controller(|c| c.set_policy(policy))
    }

    /// Replaces the controller's load balancer.
    pub fn with_balancer(self, balancer: crate::balance::LoadBalancer) -> Self {
        self.configure_controller(|c| c.set_balancer(balancer))
    }

    /// Enables SE certification: each element gets a token derived
    /// from its MAC and the controller only trusts those tokens.
    pub fn with_certification(mut self) -> Self {
        self.certification = true;
        self.world
            .node_mut::<Controller>(self.controller)
            .set_required_certs(std::collections::BTreeSet::new());
        self
    }

    /// Shards the control plane: at [`CampusBuilder::finish`] the
    /// controller is wrapped into an `n`-shard
    /// [`crate::ShardedControlPlane`] (n ≥ 1; even `n = 1` wraps, which
    /// is how the determinism suite pins the plane against the plain
    /// controller). All `configure_controller`-style calls still apply
    /// — they run on the controller before it is wrapped, and
    /// [`Campus::controller`] keeps working afterwards.
    pub fn with_shards(mut self, n: u32) -> Self {
        assert!(n >= 1, "a control plane needs at least one shard");
        self.shards = Some(n);
        self
    }

    /// Enables forwarding attestations on every AS switch, present and
    /// future: each switch samples the packets whose deterministic tag
    /// is divisible by `every` (1 = every packet, 0 = off, the
    /// default) and reports its *actual* forwarding decision to the
    /// controller, where the accountability detector replays it
    /// against the flow's path proof (DESIGN.md §11).
    pub fn with_attestation(mut self, every: u64) -> Self {
        self.attest_every = every;
        for &node in &self.as_switches {
            self.world
                .node_mut::<AsSwitch>(node)
                .set_attest_every(every);
        }
        self
    }

    /// Overrides the wired-user access link (default 100 Mbps).
    pub fn with_user_link(mut self, spec: LinkSpec) -> Self {
        self.user_link = spec;
        self
    }

    /// Overrides the gateway's access link (default 1 Gbps). Give it
    /// extra propagation delay to stand in for the WAN path to an
    /// Internet server (the §V-B.3 ping target).
    pub fn with_gateway_link(mut self, spec: LinkSpec) -> Self {
        self.gateway_link = spec;
        self
    }

    /// Overrides the service-element access link (default 1 Gbps).
    pub fn with_se_link(mut self, spec: LinkSpec) -> Self {
        self.se_link = spec;
        self
    }

    /// Sets the one-way control-channel latency (default 100 µs).
    pub fn with_control_latency(mut self, latency: SimDuration) -> Self {
        self.world.set_control_latency(latency);
        self
    }

    fn add_as_switch(&mut self, kind: SwitchKind) -> usize {
        let dpid = (self.as_switches.len() + 1) as u64;
        let node = self.world.add_node(
            AsSwitch::new(dpid, AS_PORTS)
                .with_controller(self.controller)
                .with_attest_every(self.attest_every),
        );
        // Attach to a legacy switch: edges round-robin when present.
        let legacy_idx = if self.legacy.len() > 1 {
            let idx = 1 + (self.next_edge % (self.legacy.len() - 1));
            self.next_edge += 1;
            idx
        } else {
            0
        };
        let lp = self.legacy_next_port[legacy_idx];
        self.legacy_next_port[legacy_idx] += 1;
        self.world.connect(
            node,
            PortId(1),
            self.legacy[legacy_idx],
            PortId(lp),
            self.uplink,
        );
        self.as_switches.push(node);
        self.as_kind.push(kind);
        self.as_next_port.push(2);
        self.as_switches.len() - 1
    }

    /// Adds an OF Wi-Fi AP (Pantou model): an AS switch whose access
    /// links run at the paper's measured 43 Mbps. Returns its switch
    /// index for use with [`CampusBuilder::add_user`].
    pub fn add_wifi_ap(&mut self) -> usize {
        self.add_as_switch(SwitchKind::WifiAp)
    }

    /// Number of AS switches (OvS + APs) so far.
    pub fn switch_count(&self) -> usize {
        self.as_switches.len()
    }

    fn alloc_mac(&mut self) -> MacAddr {
        let mac = MacAddr::from_u64(self.next_mac);
        self.next_mac += 1;
        mac
    }

    fn alloc_ip(&mut self) -> Ipv4Addr {
        let ip = self.subnet.nth(self.next_host_index);
        self.next_host_index += 1;
        ip
    }

    fn access_port(&mut self, switch: usize) -> u32 {
        assert!(switch < self.as_next_port.len(), "no AS switch {switch}");
        let p = self.as_next_port[switch];
        assert!(p < AS_PORTS, "switch {switch} is out of access ports");
        self.as_next_port[switch] += 1;
        p
    }

    /// Adds a user host running `app` on the given AS switch. Wired
    /// users get 100 Mbps links; users on a Wi-Fi AP get 43 Mbps.
    pub fn add_user<A: App>(&mut self, switch: usize, app: A) -> UserHandle {
        self.add_user_with(switch, app, |h| h)
    }

    /// [`CampusBuilder::add_user`] with a host-shell configuration hook
    /// (announcement cadence, scripted departure, …).
    pub fn add_user_with<A: App>(
        &mut self,
        switch: usize,
        app: A,
        configure: impl FnOnce(Host<A>) -> Host<A>,
    ) -> UserHandle {
        assert!(switch < self.as_switches.len(), "no AS switch {switch}");
        let mac = self.alloc_mac();
        let ip = self.alloc_ip();
        let host = configure(Host::new(mac, ip, app).with_gateway(self.subnet, self.gateway_ip));
        let node = self.world.add_node(host);
        let port = self.access_port(switch);
        let link = match self.as_kind[switch] {
            SwitchKind::Ovs => self.user_link,
            SwitchKind::WifiAp => LinkSpec::pantou_wifi(),
        };
        self.world.connect(
            node,
            PortId(1),
            self.as_switches[switch],
            PortId(port),
            link,
        );
        let handle = UserHandle {
            node,
            mac,
            ip,
            switch,
            port,
        };
        self.users.push(handle);
        handle
    }

    /// Adds a VM-based service element on the given AS switch.
    pub fn add_service_element<I: Inspector>(
        &mut self,
        switch: usize,
        se: ServiceElement<I>,
    ) -> SeHandle {
        assert!(switch < self.as_switches.len(), "no AS switch {switch}");
        let mac = self.alloc_mac();
        let ip = self.alloc_ip();
        let cert = if self.certification {
            let token = 0x5ec0_0000_0000_0000 | mac.to_u64();
            self.world
                .node_mut::<Controller>(self.controller)
                .authorize_cert(token);
            token
        } else {
            0
        };
        let se = if cert != 0 { se.with_cert(cert) } else { se };
        let node = self.world.add_node(Host::new(mac, ip, se));
        let port = self.access_port(switch);
        self.world.connect(
            node,
            PortId(1),
            self.as_switches[switch],
            PortId(port),
            self.se_link,
        );
        let handle = SeHandle {
            node,
            mac,
            ip,
            switch,
            port,
            cert,
        };
        self.ses.push(handle);
        handle
    }

    /// Adds the Internet gateway (once) on the given AS switch: a host
    /// at the reserved gateway address that answers for every
    /// off-subnet destination.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn add_gateway(&mut self, switch: usize) -> UserHandle {
        self.add_gateway_with_app(switch, NullApp)
    }

    /// [`CampusBuilder::add_gateway`] with a custom application (e.g.
    /// an HTTP server standing in for the Internet).
    pub fn add_gateway_with_app<A: App>(&mut self, switch: usize, app: A) -> UserHandle {
        self.add_gateway_configured(switch, app, |h| h)
    }

    /// [`CampusBuilder::add_gateway_with_app`] with a host-shell
    /// configuration hook.
    pub fn add_gateway_configured<A: App>(
        &mut self,
        switch: usize,
        app: A,
        configure: impl FnOnce(Host<A>) -> Host<A>,
    ) -> UserHandle {
        assert!(self.gateway.is_none(), "gateway already added");
        assert!(switch < self.as_switches.len(), "no AS switch {switch}");
        let mac = self.alloc_mac();
        let ip = self.gateway_ip;
        let host = configure(Host::new(mac, ip, app).with_proxy_arp_outside(self.subnet));
        let node = self.world.add_node(host);
        let port = self.access_port(switch);
        self.world.connect(
            node,
            PortId(1),
            self.as_switches[switch],
            PortId(port),
            self.gateway_link,
        );
        let handle = UserHandle {
            node,
            mac,
            ip,
            switch,
            port,
        };
        self.gateway = Some(handle);
        handle
    }

    /// The reserved gateway IP (valid before the gateway is added).
    pub fn gateway_ip(&self) -> Ipv4Addr {
        self.gateway_ip
    }

    /// The campus subnet.
    pub fn subnet(&self) -> Ipv4Net {
        self.subnet
    }

    /// Finalizes the testbed.
    pub fn finish(mut self) -> Campus {
        if let Some(n) = self.shards {
            // Wrap the (fully configured) controller into the sharded
            // plane. The node id stays the same, so every switch's
            // control channel keeps pointing at the control plane.
            let inner = std::mem::take(self.world.node_mut::<Controller>(self.controller));
            self.world.replace_node(
                self.controller,
                crate::plane::ShardedControlPlane::new(inner, n),
            );
        }
        Campus {
            world: self.world,
            controller: self.controller,
            as_switches: self.as_switches,
            legacy: self.legacy,
            users: self.users,
            ses: self.ses,
            gateway: self.gateway,
            subnet: self.subnet,
            as_next_port: self.as_next_port,
            user_link: self.user_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_services::IdsEngine;

    #[test]
    fn builder_wires_star_topology() {
        let mut b = CampusBuilder::new(1, 3);
        let u = b.add_user(0, NullApp);
        let g = b.add_gateway(2);
        let se = b.add_service_element(1, ServiceElement::new(IdsEngine::engine()));
        assert_ne!(u.mac, g.mac);
        assert_ne!(u.ip, g.ip);
        assert_eq!(g.ip, "10.0.255.254".parse::<Ipv4Addr>().unwrap());
        assert_eq!(se.switch, 1);
        let campus = b.finish();
        assert_eq!(campus.as_switches.len(), 3);
        assert_eq!(campus.legacy.len(), 1);
        assert_eq!(campus.users.len(), 1);
        assert_eq!(campus.ses.len(), 1);
        assert!(campus.gateway.is_some());
    }

    #[test]
    fn two_tier_legacy_creates_edges() {
        let b = CampusBuilder::with_legacy_tiers(1, 4, 2);
        let campus = b.finish();
        assert_eq!(campus.legacy.len(), 3, "core + 2 edges");
        assert_eq!(campus.as_switches.len(), 4);
    }

    #[test]
    fn wifi_ap_extends_switch_list() {
        let mut b = CampusBuilder::new(1, 1);
        let ap = b.add_wifi_ap();
        assert_eq!(ap, 1);
        assert_eq!(b.switch_count(), 2);
        let u = b.add_user(ap, NullApp);
        assert_eq!(u.switch, ap);
    }

    #[test]
    fn certification_issues_unique_tokens() {
        let mut b = CampusBuilder::new(1, 1).with_certification();
        let a = b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
        let c = b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
        assert_ne!(a.cert, 0);
        assert_ne!(a.cert, c.cert);
    }

    #[test]
    #[should_panic(expected = "gateway already added")]
    fn double_gateway_panics() {
        let mut b = CampusBuilder::new(1, 1);
        b.add_gateway(0);
        b.add_gateway(0);
    }

    #[test]
    fn mac_and_ip_allocation_is_sequential() {
        let mut b = CampusBuilder::new(1, 1);
        let u1 = b.add_user(0, NullApp);
        let u2 = b.add_user(0, NullApp);
        assert_eq!(u2.mac.to_u64(), u1.mac.to_u64() + 1);
        assert_eq!(
            u32::from(u2.ip),
            u32::from(u1.ip) + 1,
            "sequential host addresses"
        );
    }
}
